"""Every imported name is used, and every top-level definition is reachable.

`ast` scans standing in for a linter, and two import checks:

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
* a one-builder rule over src/: only angular calls wigner_d_half_pi, so
  every per-shell rotation comes from angular.shell_rotations;
* a one-rank-2-builder rule over src/: only quantum_symtop calls
  wigner3j_array, so every rank-2 coupling, the linear rotor's included,
  comes from its one 3j table;
* a one-pulse-1-pass rule over src/: only quantum_symtop._pulse1_pass
  calls _first_kick, so alignment_trace and delay_curve kick each K's
  thermal states through one pass;
* a one-quantum-front-end rule over src/: only quantum_symtop calls
  thermal_levels and _basis_cutoff, so both quantum engines take their
  thermal levels and basis cut-off from _thermal_setup;
* a one-beat-table rule over src/: only spectral calls beat_freqs, so every
  trace builds its beats from the size of its amplitude matrix;
* a one-cone-builder rule over src/: only classical_symtop refers to
  CONE_SIN, so SymTopEnsemble alone decides whether a molecule is frozen,
  on a great circle or on a cone, and the belt density reads its cones;
* a one-quadrature rule over src/: no module imports numpy.polynomial or
  reaches it as an attribute, so angular.gauss_legendre is the only
  Gauss-Legendre rule;
* a one-buffer rule over src/ and tests/: nothing collects
  angular.legendre_sweep whole with list(...) or tuple(...), because its
  tables are views of one buffer and would all read as its last one;

and `import propeller_sim.cli`, run in a fresh interpreter, loads no scipy
and no numpy.polynomial module; small classical-symtop, density and
quantum-symtop runs through `cli.main` load no scipy (the runtime needs
numpy alone; scipy is a test oracle), and a small fig4 preset loads no
numpy.ma inside its run.  perfbench/tracing.py, loaded from its file
without touching perfbench/, installs on the package under src/ and
uninstalls cleanly, so a rename of anything it rebinds fails here.
"""

import ast
import importlib.util
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
    "io_formats.read_density_text": "rebound by perfbench/tracing.py",
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


def callers_of(name: str, sources: dict[str, str]) -> list[str]:
    """The modules in sources that call name, as a Name or an attribute."""
    return sorted(module for module, source in sources.items()
                  if any(isinstance(n, ast.Call) and name in _words(n.func)
                         for n in ast.walk(ast.parse(source))))


def function_callers_of(name: str, sources: dict[str, str]) -> list[str]:
    """"module.function" or "module.Class.method" of each top-level function
    or method in sources whose body, nested definitions included, calls name."""
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{module}.{node.name}." if isinstance(node, ast.ClassDef) else f"{module}."
            found += [prefix + f.name for f in members if isinstance(f, ast.FunctionDef)
                      and any(isinstance(n, ast.Call) and name in _words(n.func)
                              for n in ast.walk(f))]
    return sorted(found)


def referrers_of(name: str, sources: dict[str, str]) -> list[str]:
    """The modules in sources that spell name as a Name or an attribute."""
    return sorted(module for module, source in sources.items()
                  if name in _words(ast.parse(source)))


def importers_of(dotted: str, sources: dict[str, str]) -> list[str]:
    """The modules in sources that import dotted or a submodule of it, or
    reach it as an attribute (np.polynomial for numpy.polynomial)."""
    leaf = dotted.rsplit(".", 1)[-1]

    def names(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom) and node.module:
            return [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
        return [dotted] if isinstance(node, ast.Attribute) and node.attr == leaf else []

    return sorted(module for module, source in sources.items()
                  if any(n == dotted or n.startswith(dotted + ".")
                         for node in ast.walk(ast.parse(source)) for n in names(node)))


def collectors_of(name: str, sources: dict[str, str]) -> list[str]:
    """The modules in sources with a list(...) or tuple(...) call whose
    arguments call name, as a Name or an attribute."""
    def collects(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and any(isinstance(n, ast.Call) and name in _words(n.func)
                        for arg in node.args for n in ast.walk(arg)))

    return sorted(module for module, source in sources.items()
                  if any(collects(n) for n in ast.walk(ast.parse(source))))


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


def test_caller_scanner_finds_names_and_attributes():
    sources = {"a": "def f():\n    return g(1)\n", "b": "x = m.g()\n",
               "c": "g = 1\nh(g)\n", "d": "from m import g\n"}
    assert callers_of("g", sources) == ["a", "b"]


def test_one_shell_rotation_builder():
    # a second tilt construction from d(pi/2) would duplicate shell_rotations
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert callers_of("wigner_d_half_pi", sources) == ["angular"]


def test_one_rank2_builder():
    # the linear rotor's cos^2 theta and kicks are the K = 0 pulse-frame blocks
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert callers_of("wigner3j_array", sources) == ["quantum_symtop"]


def test_function_caller_scanner_finds_functions_and_methods():
    sources = {"a": "def f():\n    return g(1)\n"
                    "def h():\n    def inner():\n        return m.g()\n    return inner\n"
                    "def k():\n    return g\n",
               "b": "class C:\n    def run(self):\n        self.g()\n"
                    "    def other(self):\n        return 1\nx = g()\n"}
    assert function_callers_of("g", sources) == ["a.f", "a.h", "b.C.run"]


def test_one_pulse1_pass():
    # alignment_trace and delay_curve share the thermal states after pulse 1
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert function_callers_of("_first_kick", sources) == ["quantum_symtop._pulse1_pass"]


def _with_call(sources: dict[str, str], module: str, call: str) -> dict[str, str]:
    """sources with a top-level function calling call appended to module."""
    return {**sources, module: sources[module] + f"\n\ndef _extra():\n    return {call}\n"}


def test_one_quantum_front_end():
    # thermal_run reads its levels, l_max and counts from _thermal_setup
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert callers_of("thermal_levels", sources) == ["quantum_symtop"]
    assert callers_of("_basis_cutoff", sources) == ["quantum_symtop"]


def test_one_quantum_front_end_rule_sees_a_second_caller():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    for name in ("thermal_levels", "_basis_cutoff"):
        extra = _with_call(sources, "quantum_linear", f"quantum_symtop.{name}(mol, 0.0)")
        assert callers_of(name, extra) == ["quantum_linear", "quantum_symtop"]


def test_one_beat_table():
    # SpectralTrace(g) builds e_J - e_J' itself, so no engine passes beats
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert callers_of("beat_freqs", sources) == ["spectral"]


def test_one_beat_table_rule_sees_a_second_caller():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    extra = _with_call(sources, "quantum_symtop", "spectral.beat_freqs(3)")
    assert callers_of("beat_freqs", extra) == ["quantum_symtop", "spectral"]


def test_referrer_scanner_finds_names_and_attributes():
    sources = {"a": "LIMIT = 1\n", "b": "x = m.LIMIT\n", "c": "y = 'LIMIT'\n",
               "d": "def f(limit):\n    return limit\n"}
    assert referrers_of("LIMIT", sources) == ["a", "b"]


def test_one_cone_builder():
    # the belt density reads its cones from SymTopEnsemble, not a second test
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert referrers_of("CONE_SIN", sources) == ["classical_symtop"]


def test_import_scanner_finds_imports_and_attributes():
    sources = {"a": "from numpy.polynomial.legendre import leggauss\n",
               "b": "import numpy.polynomial\n", "c": "from numpy import polynomial\n",
               "d": "import numpy as np\nx = np.polynomial.legendre.leggauss(3)\n",
               "e": "import numpy as np\nfrom numpy import linalg\nnp.polyfit\n",
               "f": "import numpy.polynomials\n"}
    assert importers_of("numpy.polynomial", sources) == ["a", "b", "c", "d"]


def test_one_gauss_legendre_rule():
    # angular.gauss_legendre is the package's only quadrature rule
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert importers_of("numpy.polynomial", sources) == []


def test_collector_scanner_finds_list_and_tuple_of_calls():
    sources = {"a": "x = list(legendre_sweep(3, t))\n",
               "b": "x = tuple(angular.legendre_sweep(3, t))\n",
               "c": "x = list(t for t in angular.legendre_sweep(3, t))\n",
               "d": "x = [t.copy() for t in legendre_sweep(3, t)]\n",
               "e": "x = next(legendre_sweep(3, t))\ny = list(range(3))\n",
               "f": "x = list(legendre_sweep)\n"}
    assert collectors_of("legendre_sweep", sources) == ["a", "b", "c"]


def test_legendre_tables_are_not_collected_whole():
    # each table of the sweep is a view of one buffer: copy a table to keep it
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in FILES}
    assert collectors_of("legendre_sweep", sources) == []


def test_rebound_check_flags_only_unnamed_functions():
    kept = {"a.traced": REBOUND, "a.gone": REBOUND + "; an oracle", "a.oracle": "an oracle"}
    source = 'rebind(a, "traced")\n# gone is only a comment here\n'
    assert unrebound_entries(kept, source) == ["a.gone"]


def test_kept_tracer_entries_are_rebound():
    assert unrebound_entries(KEPT, TRACER.read_text()) == []


def test_benchmark_tracer_installs_on_the_package():
    # the tracer rebinds layer functions by name and signature, so a rename
    # (SpectralTrace.evaluate, mean_cos2theta, ...) fails here, in Tier-1
    import propeller_sim
    from propeller_sim import ensemble, spectral

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert Path(propeller_sim.__file__).resolve().parent == PACKAGE
    originals = spectral.SpectralTrace.__dict__["evaluate"], ensemble.mean_cos2theta
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert spectral.SpectralTrace.__dict__["evaluate"] is not originals[0]
        assert ensemble.mean_cos2theta is not originals[1]
    finally:
        tracer.uninstall()
    assert (spectral.SpectralTrace.__dict__["evaluate"], ensemble.mean_cos2theta) == originals


def _fresh_interpreter(code: str) -> str:
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    return run.stdout.strip()


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_loads_no_scipy():
    # importing scipy.special and scipy.linalg costs ~0.4 s and ~30 MiB per run
    assert _fresh_interpreter(f"import sys, propeller_sim.cli\nprint({SCIPY_MODULES})") == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # numpy.polynomial adds 4-5 ms to every run's import
    code = ("import sys, propeller_sim.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'polynomial']))")
    assert _fresh_interpreter(code) == "[]"


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
