"""Static checks on the package source (no linter is a dependency)."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradedalg"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the package, its exports and the benchmark, which wraps functions by name
NAMING_SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _named(naming: list) -> set:
    """Every name the trees in ``naming`` read: as a variable, an attribute, an
    imported name or a string.  Assigning to a name does not read it."""
    named = set()
    for other in naming:
        for node in ast.walk(other):
            if isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return named


def _dead_definitions(tree: ast.Module, naming: list) -> list:
    """Top-level functions and classes of ``tree`` that no tree in ``naming``
    names."""
    named = _named(naming)
    return sorted(
        (node.lineno, node.name)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
    )


def _member_names(cls: ast.ClassDef):
    """(line, name) of the methods and fields of ``cls``, leaving out the
    dunder methods Python calls by itself."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__")):
            yield node.lineno, node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.lineno, node.target.id
        elif isinstance(node, ast.Assign):
            yield from ((node.lineno, t.id) for t in node.targets if isinstance(t, ast.Name))


def _dead_members(tree: ast.Module, naming: list) -> list:
    """Methods and fields of the top-level classes of ``tree`` that no tree in
    ``naming`` names, as (line, "Class.member")."""
    named = _named(naming)
    return sorted(
        (line, f"{cls.name}.{name}")
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for line, name in _member_names(cls) if name not in named
    )


def _attribute_reads(tree: ast.Module, attr: str) -> list:
    """Lines of ``tree`` that name the attribute ``attr``."""
    return sorted({
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == attr
    })


def _calls_outside(tree: ast.Module, callee: str, home: str) -> list:
    """Lines of ``tree`` that call ``callee`` outside the function ``home``."""
    def calls(node):
        return {
            n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == callee
        }
    homes = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == home]
    return sorted(calls(tree).difference(*map(calls, homes)))


def test_the_package_has_modules_to_check():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(_parse(path)) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from functools import cached_property, partial\nimport os.path\npartial\n")
    assert _unused_imports(tree) == [(1, "cached_property"), (2, "os")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__main__.py"], ids=lambda p: p.name)
def test_every_definition_is_named_elsewhere(path):
    assert _dead_definitions(_parse(path), [_parse(p) for p in NAMING_SOURCES]) == []


def test_the_check_sees_a_dead_definition():
    tree = ast.parse("def used():\n    pass\n\n\nclass Dead:\n    pass\n\n\ndef wrapped():\n    used()\n")
    assert _dead_definitions(tree, [tree]) == [(5, "Dead"), (9, "wrapped")]
    bench = ast.parse('LAYERS = {"ops": ("wrapped",)}\n')
    assert _dead_definitions(tree, [tree, bench]) == [(5, "Dead")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_class_member_is_named_elsewhere(path):
    assert _dead_members(_parse(path), [_parse(p) for p in NAMING_SOURCES]) == []


def test_the_check_sees_a_dead_member():
    tree = ast.parse(
        "class Ring:\n    add: tuple\n    kind = 'ring'\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "    @property\n    def neg(self):\n        return self.add\n\n"
        "    def size(self):\n        return 0\n"
    )
    assert _dead_members(tree, [tree]) == [(3, "Ring.kind"), (9, "Ring.neg"), (12, "Ring.size")]
    bench = ast.parse("def run(ring):\n    return ring.size(), getattr(ring, 'kind')\n")
    assert _dead_members(tree, [tree, bench]) == [(9, "Ring.neg")]


def _body_without_docstring(node: ast.FunctionDef) -> str:
    body = node.body
    if ast.get_docstring(node, clean=False) is not None:
        body = body[1:]
    return ast.dump(ast.Module(body=body, type_ignores=[]))


def _duplicate_bodies(trees: dict) -> list:
    """Groups of the functions and methods, nested ones included, of the
    trees in ``trees`` (name -> tree) that share one body, ignoring
    docstrings; each as a list of "name:line function"."""
    groups = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                groups.setdefault(_body_without_docstring(node), []).append(f"{name}:{node.lineno} {node.name}")
    return [sorted(group) for group in groups.values() if len(group) > 1]


def test_no_two_functions_share_a_body():
    # a job done in two places belongs in one shared function or base class
    assert _duplicate_bodies({p.name: _parse(p) for p in MODULES}) == []


def test_the_check_sees_a_duplicate_body():
    one = ast.parse(
        'class Ring:\n    def size(self):\n        """The order."""\n        return len(self.labels)\n\n\n'
        "def count(self):\n    return len(self.labels)\n"
    )
    other = ast.parse(
        "class Group:\n    def size(self):\n        return len(self.labels)\n\n"
        "    def order(self):\n        return len(self.elements)\n"
    )
    assert _duplicate_bodies({"one": one, "other": other}) == [["one:2 size", "one:7 count", "other:2 size"]]
    assert _duplicate_bodies({"other": other}) == []


NOT_GRADING = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "grading.py"]


@pytest.mark.parametrize("path", NOT_GRADING, ids=lambda p: p.name)
def test_only_grading_reads_the_memo_store(path):
    # every other module memoizes through the carrier's memo(key, build)
    assert _attribute_reads(_parse(path), "_caches") == []


def test_the_check_sees_a_memo_store_read():
    tree = ast.parse("def f(ctx):\n    cache = ctx._caches\n    return ctx.memo('k', dict), cache\n")
    assert _attribute_reads(tree, "_caches") == [2]


@pytest.mark.parametrize("path", NOT_GRADING, ids=lambda p: p.name)
def test_only_grading_reads_the_decomposition(path):
    # a grading stores its components only; gradedness is decided by
    # counting, the radical by degree, and the direct sum by counting too
    assert _attribute_reads(_parse(path), "decomposition") == []


def test_the_check_sees_a_decomposition_read():
    tree = ast.parse("def f(grading, x):\n    comps = grading.components\n    return grading.decomposition[x]\n")
    assert _attribute_reads(tree, "decomposition") == [3]


def test_propositions_label_handles_in_one_place():
    # checkers record handles; verify_suite labels a violation's handles
    # through _named, so no checker builds a label it may not use
    assert _calls_outside(_parse(PACKAGE / "propositions.py"), "_members_label", "_named") == []


def test_the_check_sees_a_label_built_elsewhere():
    tree = ast.parse(
        "def _named(v):\n    return _members_label(v)\n\n\n"
        "def check(n):\n    return {'N': _members_label(n)}\n"
    )
    assert _calls_outside(tree, "_members_label", "_named") == [6]


def _imports_of(tree: ast.Module, module: str) -> list:
    """Lines of ``tree`` that import the package module ``module``, in any form."""
    def paths(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        base = "." * node.level + (node.module or "")
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return sorted({
        node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for path in paths(node) if path.rsplit(".", 1)[-1] == module
    })


def test_the_cli_imports_no_classifier():
    # classify and search name predicates only through propositions.classify_named
    assert _imports_of(_parse(PACKAGE / "cli.py"), "classifiers") == []


def test_the_check_sees_an_import_of_classifiers():
    tree = ast.parse(
        "from .core import DEFAULT_MAX_ELEMENTS\nfrom .classifiers import classify_ideal\n"
        "from . import classifiers\nimport gradedalg.classifiers\n"
        "from .propositions import classify_named\n"
    )
    assert _imports_of(tree, "classifiers") == [2, 3, 4]


def _package_imports(tree: ast.AST, package: str) -> list:
    """Lines of ``tree`` that import the top-level package ``package`` or a
    submodule of it."""
    return sorted({
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == package for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == package
    })


def _sets_blas_default(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "os.environ.setdefault"
        and isinstance(node.value.args[0], ast.Constant) and node.value.args[0].value == "OPENBLAS_NUM_THREADS"
    )


def _blas_default_before_numpy(tree: ast.Module) -> bool:
    """Whether a top-level ``os.environ.setdefault("OPENBLAS_NUM_THREADS", …)``
    comes before the first top-level statement that imports numpy."""
    for node in tree.body:
        if _sets_blas_default(node):
            return True
        if _package_imports(node, "numpy"):
            return False
    return False


def test_only_core_imports_numpy_and_after_the_blas_default():
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it; a second
    # module that imported numpy first would bring back its thread pool
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if _package_imports(_parse(p), "numpy")] == ["core.py"]
    assert _blas_default_before_numpy(_parse(PACKAGE / "core.py"))


def test_the_check_sees_numpy_imported_before_the_blas_default():
    tree = ast.parse(
        "import os\nimport numpy.linalg\nfrom numpy import zeros\nfrom .core import numpy\n"
        "def f():\n    import numpy as np\n"
    )
    assert _package_imports(tree, "numpy") == [2, 3, 6]
    default = 'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n'
    assert _blas_default_before_numpy(ast.parse("import os\n" + default + "import numpy as np\n"))
    assert not _blas_default_before_numpy(ast.parse("import os\nimport numpy as np\n" + default))
    assert not _blas_default_before_numpy(ast.parse("import os\nos.environ.setdefault('OMP_NUM_THREADS', '1')\n"
                                                    "import numpy as np\n"))
    # an assignment would override a value the user exported
    assert not _blas_default_before_numpy(ast.parse("import os\nos.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
                                                    "import numpy as np\n"))


def test_the_package_data_ships_every_standard_corpus_file():
    # without the package-data entry a non-editable install has no standard corpus
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    shipped = {p for glob in config["tool"]["setuptools"]["package-data"]["gradedalg"] for p in PACKAGE.glob(glob)}
    standard = set((PACKAGE / "standard").iterdir())
    assert len(standard) == 12 and standard <= shipped
