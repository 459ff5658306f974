"""Numerical workbench for doubly-periodic instantons: model solutions,
asymptotic-invariant extraction, dimensional reduction to Higgs pairs,
spectral jumping data, stability arithmetic, and moduli-space checks."""

from . import (asymptotics, gauge, geometry, hitchin, models, moduli, spectral,
               stability)
from .asymptotics import (AsymptoticInvariants, ExtractionError,
                          decay_exponent, extract_invariants, flat_limit,
                          instanton_number, limiting_holonomy,
                          poincare_constant, residue)
from .gauge import (ConnectionSource, DomainError, asd_residual, curvature,
                    curvature_norm, monodromy_drift_defect,
                    weitzenbock_defect)
from .geometry import (AnnulusGrid, DualTorusPoint, TorusSpec,
                       conventions_hash, conventions_sheet, reduce_dual)
from .hitchin import HiggsPairOnPlane, hitchin_residual, lift
from .models import ModelParams, model_connection, perturb
from .moduli import (AnnulusCalculus, K1Chart, TangentVectorInstanton,
                     complex_structures, instanton_tangent_residual,
                     k1_chart, l2_metric, moduli_dimension,
                     translation_tangents)
from .spectral import (BundleModel, SingularPointError, SpectralData,
                       fourier_gap, jumping_points, nahm_weights,
                       phi_residue)
from .stability import (StabilityVerdict, SubsheafSpec, alpha_stable_extension,
                        existence_obstruction, h0_consistency, h0_total,
                        parabolic_degree)
from ._version import __version__
