"""Every name a besovlab module imports is used in that module, every name
it defines at top level is used somewhere in the project and, with its
classes' public methods, reached from the program itself (src or perfbench)
unless declared test-only, every defaulted parameter and dataclass field
is passed by some call in the program unless declared here, the package
reads no environment variable that is not declared here, the fragments in
theorems.py read their grid from one Resolution and their map from one
MapOnGrid, which alone composes a witness with phi, theorems.py reads phi
through maps and never through _kernels,
the program runs without importing scipy, and the README states its line
count."""

import ast
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import besovlab

PACKAGE = Path(besovlab.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
PROJECT = [*PACKAGE.glob("*.py"), *(ROOT / "tests").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read, attributes taken and names imported in ``tree``, outside ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _top_level_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_definitions(path):
    tree = ast.parse(path.read_text())
    elsewhere = set()
    for other in PROJECT:
        if other.resolve() != path.resolve():
            elsewhere |= _references(ast.parse(other.read_text()))
    dead = [
        name
        for name, node in _top_level_definitions(tree)
        if name not in elsewhere and name not in _references(tree, skip=node)
    ]
    assert dead == []


# A fresh interpreter that runs the map command and builds every spline map
# kind, then prints the scipy modules it has loaded. scipy is a test
# dependency: maps._spline_map does its cubic spline in numpy.
SPLINE_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from besovlab.cli import main
from besovlab.maps import inverse_map, named_map
main(["map", "--map", "sin_drift:amp=0.5"])
named_map("sin")
inverse_map(named_map("sin_drift:amp=0.5"))
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def _fresh_run(script: str) -> str:
    """The last line that ``script`` prints in a fresh interpreter."""
    run = subprocess.run(
        [sys.executable, "-c", script, str(PACKAGE.parent)], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_the_program_runs_without_scipy():
    assert _fresh_run(SPLINE_RUN) == "[]"


# A fresh interpreter that imports the CLI and prints whether multiprocessing
# came with it: worker.py imports it only when a worker is forked.
CLI_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
import besovlab.cli
print("multiprocessing" in sys.modules)
"""


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    assert _fresh_run(CLI_IMPORT) == "False"


# Every environment variable the package reads. A new knob is a visible
# edit here; a read whose name is not a literal is listed by file and line.
ENVIRONMENT_READS: set[str] = set()


def _environment_reads(source: str, where: str) -> set[str]:
    """The names read through os.environ / os.getenv (or their names
    imported from os) in ``source``."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            names = {alias.name for alias in node.names} & {"environ", "getenv"}
            reads |= {f"{where}:{node.lineno} ({name})" for name in sorted(names)}
            continue
        if not (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")):
            continue
        use = parents[node]
        if isinstance(use, ast.Attribute) and isinstance(parents[use], ast.Call):
            use = parents[use]  # os.environ.get(...)
        if isinstance(use, ast.Subscript):
            key = use.slice
        elif isinstance(use, ast.Call) and use.args:
            key = use.args[0]
        else:
            key = None
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            reads.add(key.value)
        else:
            reads.add(f"{where}:{node.lineno}")
    return reads


def test_environment_reads_are_the_declared_ones():
    reads = set()
    for path in PACKAGE.glob("*.py"):
        reads |= _environment_reads(path.read_text(), path.name)
    assert reads == ENVIRONMENT_READS


@pytest.mark.parametrize(
    "source, want",
    [
        ("import os\nos.environ['A']", {"A"}),
        ("import os\nos.environ.get('B', '0')", {"B"}),
        ("import os\nos.getenv('C')", {"C"}),
        ("import os\nname = 'D'\nos.environ[name]", {"m.py:3"}),
        ("import os\ndict(os.environ)", {"m.py:2"}),
        ("from os import environ\nenviron['E']", {"m.py:1 (environ)"}),
    ],
)
def test_environment_guard_sees_each_form_of_read(source, want):
    assert _environment_reads(source, "m.py") == want


# theorems.py: the default grid is read only in Resolution, and no function
# outside it takes a grid or cache of its own
GRID_DEFAULTS = {"DEFAULT_WINDOW", "DEFAULT_COUNT"}
GRID_PARAMETERS = {"hg", "window", "memo"}


def _outside_class(source: str, owner: str, names=(), parameters=(), calls=(), attributes=()) -> list[str]:
    """Outside the class ``owner`` of ``source``: reads of ``names``,
    parameters named in ``parameters``, calls of the functions ``calls``
    and reads of the attributes ``attributes``."""
    found, stack = [], [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == owner:
            continue
        if isinstance(node, ast.Name) and node.id in names:
            found.append(f"{node.id} (line {node.lineno})")
        elif isinstance(node, ast.arg) and node.arg in parameters:
            found.append(f"parameter {node.arg} (line {node.lineno})")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in calls:
            found.append(f"call {node.func.id} (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr in attributes:
            found.append(f".{node.attr} (line {node.lineno})")
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def _grid_outside_resolution(source: str) -> list[str]:
    return _outside_class(source, "Resolution", names=GRID_DEFAULTS, parameters=GRID_PARAMETERS)


def test_theorems_reads_its_grid_from_resolution():
    assert _grid_outside_resolution((PACKAGE / "theorems.py").read_text()) == []


@pytest.mark.parametrize(
    "source, want",
    [
        ("class Resolution:\n    w = DEFAULT_WINDOW\n    def f(self, hg=1): pass", []),
        ("def f(count=DEFAULT_COUNT): pass", ["DEFAULT_COUNT (line 1)"]),
        ("def f(x, *, window): pass", ["parameter window (line 1)"]),
        ("g = lambda f, sp, hg: 0", ["parameter hg (line 1)"]),
    ],
)
def test_grid_guard_sees_each_form(source, want):
    assert _grid_outside_resolution(source) == want


# theorems.py: phi's per-map values are read in MapOnGrid, once per classify,
# no function outside it takes them loose, and a witness's descriptor is read
# only in MapOnGrid.compose, so every witness is composed one way
MAP_READS = {"lipschitz_constant", "max_preimage_count", "derivative", "sample_composed", "compose"}
MAP_PARAMETERS = {"lip", "phi_prime"}
MAP_ATTRIBUTES = {"descriptor"}


def _map_outside_reading(source: str) -> list[str]:
    return _outside_class(source, "MapOnGrid", parameters=MAP_PARAMETERS, calls=MAP_READS, attributes=MAP_ATTRIBUTES)


def test_theorems_reads_each_map_once():
    assert _map_outside_reading((PACKAGE / "theorems.py").read_text()) == []


@pytest.mark.parametrize(
    "source, want",
    [
        ("class MapOnGrid:\n    def read(phi, lip=1):\n        return derivative(phi)", []),
        ("def f(phi):\n    return lipschitz_constant(phi)", ["call lipschitz_constant (line 2)"]),
        ("g = compose(f, phi)", ["call compose (line 1)"]),
        ("g = mg.compose(f)", []),
        ("def f(mg, *, phi_prime): pass", ["parameter phi_prime (line 1)"]),
        ("h = lambda phi, lip: 0", ["parameter lip (line 1)"]),
        ("class MapOnGrid:\n    def compose(self, f):\n        return f.descriptor(self.ys)", []),
        ("g = GridFunction(np.asarray(f.descriptor(mg.ys)), dx, x0)", [".descriptor (line 1)"]),
        ("def f(g):\n    return g.descriptor is None", [".descriptor (line 2)"]),
    ],
)
def test_map_guard_sees_each_form(source, want):
    assert _map_outside_reading(source) == want


# theorems.py asks maps about phi: it imports nothing from _kernels and reads
# no segment table, whose column layout only maps knows
def _kernel_reads(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            names = []
        if any(name.split(".")[-1] == "_kernels" for name in names):
            found.append(f"import of _kernels (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr == "segments":
            found.append(f".segments (line {node.lineno})")
    return sorted(found)


def test_theorems_reads_phi_through_maps():
    assert _kernel_reads((PACKAGE / "theorems.py").read_text()) == []


@pytest.mark.parametrize(
    "source, want",
    [
        ("from . import _kernels", ["import of _kernels (line 1)"]),
        ("from ._kernels import preimage_lengths", ["import of _kernels (line 1)"]),
        ("from besovlab import maps, _kernels as K", ["import of _kernels (line 1)"]),
        ("import besovlab._kernels", ["import of _kernels (line 1)"]),
        ("seg = mg.phi.segments()", [".segments (line 1)"]),
        ("table = phi.segments\nrows = table()", [".segments (line 1)"]),
        ("from .maps import preimage_lengths\nlengths = preimage_lengths(mg.phi, a, a + 1.0)", []),
        ("from . import maps\nsegments = 3", []),
    ],
)
def test_kernel_guard_sees_each_form(source, want):
    assert _kernel_reads(source) == want


# Names that only the tests reach, each kept as a paper check, an oracle or a
# reference that the tests compare the program against.
TEST_ONLY_API = {
    "embedding_lhs": "the l^p sum of per-cell sups in the paper's embedding, kept as a paper check",
    "inverse_map": "phi^-1 as a spline: classify must read phi and phi^-1 alike",
    "pairwise_disjoint": "the property every greedy class must have, checked on each split",
}


def _program_references() -> tuple[dict, set[str]]:
    """Per src module, its parsed tree; and everything perfbench references,
    its string constants included (layers.py names the traced functions as
    strings). The package's __init__ is left out: a re-export there is not a
    use."""
    trees = {path: ast.parse(path.read_text()) for path in MODULES}
    bench = set()
    for path in (ROOT / "perfbench").rglob("*.py"):
        tree = ast.parse(path.read_text())
        bench |= _references(tree)
        bench |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return trees, bench


def _definitions(tree: ast.Module):
    """Top-level names, and the public methods of top-level classes."""
    for name, node in _top_level_definitions(tree):
        yield name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def test_every_definition_is_reached_by_the_program():
    """Every name defined in src/besovlab is referenced from src or perfbench,
    or is declared in TEST_ONLY_API. References are matched by name, so
    this guard cannot see operator methods (``__add__`` and the like),
    which no name reaches."""
    trees, bench = _program_references()
    whole = {path: _references(tree) for path, tree in trees.items()}
    unreached = []
    for path, tree in trees.items():
        others = set(bench)
        for other, refs in whole.items():
            if other != path:
                others |= refs
        for name, node in _definitions(tree):
            if name not in others and name not in _references(tree, skip=node) and name not in TEST_ONLY_API:
                unreached.append(f"{path.name}:{name}")
    assert unreached == []


def test_test_only_api_is_defined_and_unreached():
    """Each TEST_ONLY_API name exists in src and nothing in the program
    reaches it, so the exemption list cannot go stale."""
    trees, bench = _program_references()
    defined = {name for tree in trees.values() for name, _ in _definitions(tree)}
    reached = bench.union(*(_references(tree) for tree in trees.values()))
    assert set(TEST_ONLY_API) <= defined
    assert set(TEST_ONLY_API).isdisjoint(reached)


# Defs with a defaulted parameter that no call in the program passes, each
# with the reason it stays a parameter. A value that no caller varies is
# otherwise a module constant.
SPEC_KEYS = "called through grid.call_declared: its keywords are the keys a spec or config may set"
UNPASSED_DEFAULTS = {
    "grid._gaussian": SPEC_KEYS,
    "grid._indicator": SPEC_KEYS,
    "grid._const": SPEC_KEYS,
    "grid._sine": SPEC_KEYS,
    "cli._space": SPEC_KEYS,
    "cli._suite_settings": SPEC_KEYS,
    "norms.DyadicHGrid": (
        "levels and nodes_per_level: test_besov_self_convergence_oracle holds the default nodes to a "
        "reference with ten times as many"
    ),
}


def _called_name(node: ast.AST):
    """The name in ``name`` or ``x.name``, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _dataclass_fields(cls: ast.ClassDef):
    """(name, defaulted) of each ``__init__`` field of ``cls``, in order, if
    ``cls`` is a @dataclass; a ``field(init=False)`` is none of them."""
    if not any(_called_name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in cls.decorator_list):
        return
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _called_name(value.func) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if not (isinstance(init, ast.Constant) and init.value is False):
                yield item.target.id, bool(keywords.keys() & {"default", "default_factory"})
        else:
            yield item.target.id, value is not None


def _defaulted_parameters(tree: ast.Module, module: str):
    """(where, callee, parameter, position) for each defaulted parameter of
    each def in ``tree``, and for each defaulted field of a @dataclass.
    ``callee`` is the name a call uses: the def's own, or its class's for
    ``__init__`` and a field. ``position`` counts the positional arguments
    before it, ``self`` excluded (for a field, the ``__init__`` fields before
    it), and is None for a keyword-only parameter."""
    stack = [(tree, module, False)]
    while stack:
        node, prefix, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                where = f"{prefix}.{child.name}"
                stack.append((child, where, True))
                for position, (name, defaulted) in enumerate(_dataclass_fields(child)):
                    if defaulted:
                        yield where, child.name, name, position
            elif isinstance(child, ast.FunctionDef):
                where = f"{prefix}.{child.name}"
                stack.append((child, where, False))
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                if in_class and not static:
                    positional = positional[1:]
                callee = prefix.rsplit(".", 1)[1] if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for position, arg in enumerate(positional[first:], first):
                    yield where, callee, arg.arg, position
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield where, callee, arg.arg, None
            else:
                stack.append((child, prefix, in_class))


def _calls(tree: ast.AST):
    """(callee name, positional argument count, keyword names) of each call
    in ``tree``. A ``*args`` counts for every position from its own on; a
    ``**kwargs`` names no keyword, since its keys are known only at run time."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node.func)
        if name is None:
            continue
        count = math.inf if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        yield name, count, {k.arg for k in node.keywords if k.arg}


def _unpassed_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function(parameter)`` for each defaulted parameter of a def
    in ``sources`` (module name -> text) that no call in ``callers`` passes,
    by position or by keyword."""
    calls = [call for text in callers for call in _calls(ast.parse(text))]
    unpassed = []
    for module, text in sources.items():
        for where, callee, param, position in _defaulted_parameters(ast.parse(text), module):
            if not any(
                name == callee and (param in keywords or (position is not None and count > position))
                for name, count, keywords in calls
            ):
                unpassed.append(f"{where}({param})")
    return sorted(unpassed)


def _program_unpassed_defaults() -> list[str]:
    sources = {path.stem: path.read_text() for path in MODULES}
    callers = [*sources.values(), *(p.read_text() for p in (ROOT / "perfbench").rglob("*.py"))]
    return _unpassed_defaults(sources, callers)


def test_every_default_is_passed_by_the_program():
    """Each defaulted parameter in src/besovlab is passed at some call in
    src or perfbench, or is declared in UNPASSED_DEFAULTS. Calls are matched
    by the callee's name, and ``Class(...)`` counts for ``__init__``."""
    found = _program_unpassed_defaults()
    assert [entry for entry in found if entry.split("(")[0] not in UNPASSED_DEFAULTS] == []


def test_unpassed_defaults_are_current():
    """Each UNPASSED_DEFAULTS entry names a def with a parameter that no
    program call passes, so the exemptions cannot go stale."""
    found = {entry.split("(")[0] for entry in _program_unpassed_defaults()}
    assert set(UNPASSED_DEFAULTS) <= found


@pytest.mark.parametrize(
    "source, want",
    [
        ("def f(a, b=1): pass\nf(0)", ["m.f(b)"]),
        ("def f(a, b=1): pass\nf(0, 2)", []),
        ("def f(a, b=1): pass\nf(0, b=2)", []),
        ("def f(a, *, b=1): pass\nf(0, 2)", ["m.f(b)"]),
        ("def f(a, b=1, *, c=2): pass\nf(0, *xs)", ["m.f(c)"]),
        ("def f(a=0, b=1): pass\nf(**kw)", ["m.f(a)", "m.f(b)"]),
        ("class C:\n    def __init__(self, n=1): pass\nC(2)", []),
        ("class C:\n    def go(self, n=1): pass\nC().go()", ["m.C.go(n)"]),
        ("class C:\n    def go(self, n=1): pass\nc.go(2)", []),
        ("class C:\n    @staticmethod\n    def go(n, k=1): pass\nC.go(2)", ["m.C.go(k)"]),
        ("def f():\n    def g(x=1): pass\n    return g", ["m.f.g(x)"]),
        ("@dataclass\nclass C:\n    a: int\n    b: int = 1\nC(0)", ["m.C(b)"]),
        ("@dataclass(frozen=True)\nclass C:\n    a: int\n    b: int = 1\nC(0, 2)", []),
        ("@dataclasses.dataclass\nclass C:\n    a: int = 0\n    b: int = 1\nC(b=2)", ["m.C(a)"]),
        ("@dataclass\nclass C:\n    a: int = field(repr=False)\n    b: list = field(default_factory=list)\nC(0)", ["m.C(b)"]),
        ("@dataclass\nclass C:\n    a: int = field(default=0, init=False)\n    b: int = 1\nC(2)", []),
        ("class C:\n    a: int = 0\nC()", []),
    ],
)
def test_default_guard_sees_each_form(source, want):
    assert _unpassed_defaults({"m": source}, [source]) == want


def test_the_readme_states_the_programs_line_count():
    """The count the README gives for ``src/besovlab/*.py`` is what ``wc -l`` reads."""
    stated = re.findall(r"`src/besovlab/\*\.py` is (\d+) lines", (ROOT / "README.md").read_text())
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "besovlab").glob("*.py"))
    assert stated == [str(lines)]
