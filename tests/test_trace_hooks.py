"""The benchmark's layer tracer (perfbench/layertrace.py) patches functions
into `ipl` by name; every name it hooks must still exist."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_layertrace():
    path = os.path.join(ROOT, "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_hook_finds_its_target():
    tracer = load_layertrace().Tracer([])
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
