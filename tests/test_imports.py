"""Every imported name is used, and every top-level definition is reachable.

Three `ast` scans standing in for a linter, and two import checks:

* the unused-import rule over src/ and tests/; names listed in a module's
  `__all__` count as used (re-exports);
* a dead-definition rule over src/: each top-level function and class is
  referred to by another top-level statement of the package, or exported
  in `__all__`, or kept on KEPT with its reason; each method of a class
  (dunders exempt) is referred to outside its own body, by name or as an
  attribute.  Imports do not count as references, and a definition does
  not refer to itself;
* a KEPT entry whose reason is that perfbench/tracing.py rebinds it must
  be named there, as a string, so that no stale entry outlives the tracer;
* an unused-option rule over src/: each defaulted parameter of a function
  or method is set, by keyword or by position, in some call under src/,
  tests/ or perfbench/, so that no option lingers that nothing sets;

and `import propeller_sim.cli`, run in a fresh interpreter, loads no scipy
module, nor do small classical-symtop, density and quantum-symtop runs
through `cli.main` (the runtime needs numpy alone; scipy is a test oracle),
and a small fig4 preset loads no numpy.ma inside its run.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "propeller_sim"
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])
TRACER = ROOT / "perfbench" / "tracing.py"
CALLERS = sorted([*FILES, *(ROOT / "perfbench").glob("*.py")])
REBOUND = "rebound by perfbench/tracing.py"

# definitions no package code refers to, kept on purpose
KEPT = {
    "angular.wigner3j": "rebound by perfbench/tracing.py; the scalar 3j oracle",
    "classical_linear.kick_velocity": "rebound by perfbench/tracing.py",
    "classical_linear.propagate_arrays": "rebound by perfbench/tracing.py",
    "io_formats.read_timeseries_csv": "rebound by perfbench/tracing.py",
    "quantum_symtop.coupling_block": "rebound by perfbench/tracing.py; lab-frame oracle",
    "quantum_linear.nitrogen_spin_weights": "the N2 spin-weight hook of criterion 1",
}


def _exported(tree: ast.Module) -> set[str]:
    return {e.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in ast.walk(node.value) if isinstance(e, ast.Constant)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    exported = _exported(tree)
    # an attribute chain a.b.c is rooted at the Name a
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def _words(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """"module.name" of each top-level function or class, and
    "module.Class.name" of each non-dunder method, that nothing else refers to.

    sources maps module names to their source.  A reference is a Name or an
    attribute with the definition's name in any other non-import top-level
    statement of any module; for a method, anywhere in the package outside
    the method itself.
    """
    defs, methods, statements, members, exported = [], [], [], [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        exported |= _exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((module, node.name, node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    members.append((item, _words(item)))
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        methods.append((f"{module}.{node.name}", item.name, node, item))
            statements.append((node, _words(node)))
    dead = [f"{module}.{name}" for module, name, own in defs
            if name not in exported
            and not any(name in words for node, words in statements if node is not own)]
    dead += [f"{owner}.{name}" for owner, name, cls, own in methods
             if not any(name in words for node, words in statements if node is not cls)
             and not any(name in words for node, words in members if node is not own)]
    return sorted(dead)


def unrebound_entries(kept: dict[str, str], tracer_source: str) -> list[str]:
    """KEPT entries said to be rebound by the tracer whose name it never spells."""
    named = {n.value for n in ast.walk(ast.parse(tracer_source))
             if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return sorted(key for key, why in kept.items()
                  if REBOUND in why and key.rsplit(".", 1)[1] not in named)


def _defaulted(func: ast.FunctionDef, skip_first: bool) -> list[tuple[str, int | None]]:
    """(name, positional index or None if keyword-only) of each defaulted
    parameter; the index does not count a method's self or cls."""
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    first_default = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip_first) for i, a in enumerate(positional) if i >= first_default]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def unset_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """"module.function(parameter)" of each defaulted parameter in sources
    that no call in callers sets.

    A call is matched by the callee's name (a Name, or the last attribute);
    a call of a class counts for its __init__.  A call sets a parameter by
    naming it, by passing more positional arguments than its index, or by
    *args (positional) or **kwargs (any).
    """
    calls = []
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.append((name, sum(not isinstance(a, ast.Starred) for a in node.args),
                              any(isinstance(a, ast.Starred) for a in node.args),
                              {k.arg for k in node.keywords}))
    params = []                      # (label, callee name, parameter, index)
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = set()
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    methods.add(item)
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    callee = cls.name if item.name == "__init__" else item.name
                    params += [(f"{module}.{cls.name}.{item.name}", callee, *p)
                               for p in _defaulted(item, not static)]
        for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            if func not in methods:
                params += [(f"{module}.{func.name}", func.name, *p)
                           for p in _defaulted(func, False)]
    return sorted(f"{label}({param})" for label, callee, param, index in params
                  if not any(name == callee and (param in kw or None in kw
                                                 or (index is not None
                                                     and (n_pos > index or starred)))
                             for name, n_pos, starred, kw in calls))


def test_scanner_flags_only_unused_names():
    src = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
           "import a.b\nfrom m import x, y\n__all__ = ['y']\nnp.zeros(a.b.c)\n")
    assert unused_imports(src) == ["os (line 2)", "x (line 5)"]


def test_definition_scanner_flags_only_unreachable_names():
    sources = {
        "a": ("from .b import helper\n__all__ = ['api']\n"
              "def api():\n    return b.helper() + _private()\n"
              "def _private():\n    return 1\n"
              "def dead():\n    return dead()\n"
              "class Orphan:\n    pass\n"),
        "b": "def helper():\n    return 2\nTABLE = {'x': lambda: used_by_table()}\n"
             "def used_by_table():\n    return 3\n"
             "class Box:\n    def __init__(self):\n        self.fill()\n"
             "    def fill(self):\n        return 1\n"
             "    def spare(self):\n        return self.spare()\n"
             "def use():\n    return Box()\n",
    }
    assert unreferenced_definitions(sources) == ["a.Orphan", "a.dead", "b.Box.spare", "b.use"]


def test_default_scanner_flags_only_unset_parameters():
    sources = {"a": "def f(x, y=1, *, z=2):\n    pass\n"
                    "class Box:\n    def __init__(self, n=0):\n        pass\n"
                    "    def put(self, item, where=None):\n        pass\n"
                    "    @staticmethod\n    def make(k=1):\n        pass\n"
                    "def g(u=1, v=2):\n    pass\n"
                    "def h(p, q=1):\n    pass\n"
                    "def lone(a=1):\n    pass\n"}
    callers = ["f(1, 2)\nBox(3)\nb.put(1)\nBox.make(1)\ng(*args)\n",
               "m.f(0, z=3)\nh(**opts)\nlone\n"]
    assert unset_defaults(sources, callers) == ["a.Box.put(where)", "a.lone(a)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unreferenced_definitions():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(sources) == sorted(KEPT)


def test_every_default_is_set_by_some_call():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unset_defaults(sources, [p.read_text() for p in CALLERS]) == []


def test_rebound_check_flags_only_unnamed_functions():
    kept = {"a.traced": REBOUND, "a.gone": REBOUND + "; an oracle", "a.oracle": "an oracle"}
    source = 'rebind(a, "traced")\n# gone is only a comment here\n'
    assert unrebound_entries(kept, source) == ["a.gone"]


def test_kept_tracer_entries_are_rebound():
    assert unrebound_entries(KEPT, TRACER.read_text()) == []


def _fresh_interpreter(code: str) -> str:
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    return run.stdout.strip()


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_loads_no_scipy():
    # importing scipy.special and scipy.linalg costs ~0.4 s and ~30 MiB per run
    assert _fresh_interpreter(f"import sys, propeller_sim.cli\nprint({SCIPY_MODULES})") == "[]"


def test_cli_runs_load_no_scipy():
    # catches imports made lazily inside the engines, the sampler and the density
    runs = [["classical-symtop", "--molecule", "benzene", "--P1", "-1", "--P2", "-1",
             "--delay", "0.02", "--n-traj", "100", "--t-max", "0.05", "--dt-out", "0.01"],
            ["density", "--molecule", "benzene", "--P1", "-1", "--n-traj", "100"],
            ["density", "--molecule", "n2", "--P1", "0", "--n-traj", "100"],   # point kernels
            ["quantum-symtop", "--molecule", "benzene", "--temp-K", "0.9", "--P1", "-1",
             "--P2", "-1", "--t-max", "0.05", "--dt-out", "0.01"]]
    code = ("import sys, tempfile\n"
            "from propeller_sim import cli\n"
            "with tempfile.TemporaryDirectory() as out:\n"
            "    codes = [cli.main([*run, '--out', f'{out}/{i}'])\n"
            f"             for i, run in enumerate({runs!r})]\n"
            f"print(codes, {SCIPY_MODULES})")
    assert _fresh_interpreter(code) == "[0, 0, 0, 0] []"


def test_density_run_loads_no_numpy_ma():
    # np.unique imports numpy.ma (12-18 ms) on its first call in a process,
    # which would land inside every density run's timed call
    code = ("import sys, tempfile\n"
            "from propeller_sim import cli\n"
            "with tempfile.TemporaryDirectory() as out:\n"
            "    code = cli.main(['preset', 'fig4', '--n-traj', '300', '--out', f'{out}/fig4'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    assert _fresh_interpreter(code) == "0 []"
