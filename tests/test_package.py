import ast
import importlib
from pathlib import Path

import pytest

import driven_resonator

PACKAGE_DIR = Path(driven_resonator.__file__).parent
MODULES = sorted(
    path.stem for path in PACKAGE_DIR.glob("*.py") if not path.stem.startswith("__")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"driven_resonator.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"


def test_package_reexports_public_names():
    # every name the package imports from a module is public there and resolves
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"driven_resonator.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name} is not public"
            assert getattr(driven_resonator, alias.asname or alias.name) is getattr(module, alias.name)
