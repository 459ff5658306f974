"""The package's layering: no `ipl` module imports another's private
names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ipl"


def _private(name: str) -> bool:
    """An underscore-prefixed name that is not a dunder like __version__."""
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_no_module_imports_a_private_name_of_another():
    # a private name is its module's own business; the private modules
    # _su2 and _version may themselves be imported, and their public names
    modules = {path.stem for path in SRC.glob("*.py")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or (node.module or "").startswith("ipl")):
                continue
            for alias in node.names:
                is_module = not node.module and alias.name in modules
                if _private(alias.name) and not is_module:
                    found.append(f"{path.name}: {alias.name} from "
                                 f"{'.' * node.level}{node.module or ''}")
    assert not found, found
