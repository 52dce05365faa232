"""The package's public namespace matches its ``__all__``."""

import ast
import sys
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


def _private_keywords(path):
    """Every keyword argument a module passes under a leading underscore."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and (node.arg or "").startswith("_"):
            yield node.arg


def test_no_module_passes_a_private_keyword():
    # a private keyword is the call form of a private import: it lets one
    # module steer a decision that another module keeps to itself
    src = Path(navsteer.__file__).parent
    private = [f"{path.name}: {name}" for path in sorted(src.glob("*.py"))
               for name in _private_keywords(path)]
    assert private == []


def _unread_imports(path):
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds "a"
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_imported_name_is_read():
    # no linter is a dependency, so a name whose last use was deleted would
    # stay imported unnoticed; __init__.py imports names to re-export them
    src = Path(navsteer.__file__).parent
    unread = [f"{path.name}: {name}"
              for path in sorted(src.glob("*.py")) if path.name != "__init__.py"
              for name in _unread_imports(path)]
    assert unread == []


# numpy calls that hand a reduction to BLAS
_BLAS_REDUCTIONS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}


def _blas_reductions(path):
    """Every ``np.<name>`` or ``from numpy import <name>`` of a BLAS reduction."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _BLAS_REDUCTIONS \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            yield f"np.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            yield from (alias.name for alias in node.names
                        if alias.name in _BLAS_REDUCTIONS)


def test_no_module_calls_a_blas_reduction():
    # OpenBLAS splits a long dot product over its threads, so the last bits
    # of the sum would follow the host's thread count; numpy's own sum
    # does not
    src = Path(navsteer.__file__).parent
    found = [f"{path.name}: {name}" for path in sorted(src.glob("*.py"))
             for name in _blas_reductions(path)]
    assert found == []


def _read_names(path):
    """Every name a module reads, bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_public_name_is_read_by_the_package():
    # a public name that only tests call is either used or deleted;
    # __init__.py only re-exports
    src = Path(navsteer.__file__).parent
    read = {name for path in src.glob("*.py") if path.name != "__init__.py"
            for name in _read_names(path)}
    assert sorted(set(navsteer.__all__) - read) == []


_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _reached_attributes(path):
    """(module, imported name, attribute) for every ``name.attr`` a module
    reads from a name it imports from navsteer."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("navsteer"):
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in imported:
            yield (*imported[node.value.id], node.attr)


def test_benchmark_hooks_resolve(monkeypatch):
    # the benchmark wraps package functions by name, so a renamed or deleted
    # one breaks traced runs without failing any other test
    import importlib
    import importlib.util

    import navsteer.cli  # noqa: F401  (the tracer patches its attributes)

    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  _PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    patched = (navsteer.cli, navsteer.experiment, navsteer.modify)
    before = [dict(vars(module)) for module in patched]
    tracer = spans.Tracer()
    spans.install(tracer, navsteer)
    assert navsteer.experiment.stationary is not navsteer.surfer.stationary
    tracer.unpatch()
    assert navsteer.experiment.stationary is navsteer.surfer.stationary
    assert [dict(vars(module)) for module in patched] == before

    reached = {hook for name in ("checks.py", "workloads.py")
               for hook in _reached_attributes(_PERFBENCH / name)}
    assert {("navsteer", "experiment", "_make_spec"),
            ("navsteer", "experiment", "sample_target_sets"),
            ("navsteer", "experiment", "run_single_detailed"),
            ("navsteer", "graph", "METADATA_SUFFIX")} <= reached
    missing = [f"{imported}.{attr}" for module, imported, attr in sorted(reached)
               if not hasattr(getattr(importlib.import_module(module), imported),
                              attr)]
    assert missing == []
