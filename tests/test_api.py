"""The package's public namespace matches its ``__all__``."""

import ast
import types
from pathlib import Path

import navsteer


def test_all_entries_resolve_and_are_unique():
    names = navsteer.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(navsteer, name)]
    assert missing == []


def test_every_public_name_is_listed():
    public = {name for name, value in vars(navsteer).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public - set(navsteer.__all__) == set()


def _sibling_imports(path):
    """(module, name) for every name a module imports from its own package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("navsteer")):
            for alias in node.names:
                yield node.module or ".", alias.name


def test_no_module_imports_a_private_name_from_a_sibling():
    # a leading underscore keeps a format or layout decision inside its
    # module; dunder names such as __version__ are public
    src = Path(navsteer.__file__).parent
    private = [f"{path.name}: {module}.{name}"
               for path in sorted(src.glob("*.py"))
               for module, name in _sibling_imports(path)
               if name.startswith("_") and not name.endswith("__")]
    assert private == []
