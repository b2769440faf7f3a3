"""Every function, class and method of the package has a caller a user can
reach: code in ``src/amenact``, the README, the acceptance criteria or the
benchmark.  Names that wait for a ROADMAP item to give them a runner are
pinned below, and the list may only shrink."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amenact"

# qualified name -> why it stays without a caller
ALLOWED = {
    "conjugate_action": "ROADMAP item 4 (restriction and conjugation laws)",
    "GroupIso.from_matrix": "ROADMAP item 4 (restriction and conjugation laws)",
    "h_top_estimate": "ROADMAP item 9 (compact-side ratio table)",
    "sample_axioms": "ROADMAP item 4 (an integral check of the axioms)",
    "minkowski_sum": "test oracle: the reference sumset of the tests",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(qualified name, name) of every top-level function and class of the
    package, and of every method of a top-level class but dunders."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (*funcs, ast.ClassDef)):
                yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, funcs) and not _is_dunder(item.name):
                        yield f"{node.name}.{item.name}", item.name


def _reached_words():
    """Every word of the package's modules but ``__init__``, the README,
    the acceptance criteria and the benchmark, with each ``def name`` and
    ``class name`` taken out: docstrings and comments count, and so do the
    strings that name functions (``getattr``, the tracing ``TARGETS``)."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    paths += (ROOT / "perfbench").glob("*.py")
    words = set()
    for path in paths:
        words.update(re.findall(r"\w+", re.sub(r"\b(?:def|class)\s+\w+", "", path.read_text())))
    return words


def _unreached():
    words = _reached_words()
    return {qual for qual, name in _definitions() if name not in words}


def test_every_name_is_reached_or_allowed():
    assert sorted(_unreached() - ALLOWED.keys()) == []


def test_no_allowed_name_has_gained_a_caller():
    # a name that is reached now leaves the list, so the list only shrinks
    assert sorted(ALLOWED.keys() - _unreached()) == []


def _imported_names(tree):
    """(bound name, line) of every import of a module but ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    """Every name a module loads, including those inside string annotations."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, funcs):
            a = node.args
            args = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            annotations += [arg.annotation for arg in args if arg is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                             if isinstance(n, ast.Name))
    return names


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
                   if name not in used]
    assert unused == []
