"""Mutation probe: do the tests notice small, plausible edits to src/?

    python tests/mutation_probe.py

Run by hand; pytest does not collect it (its name is not test_*.py).  Each
entry of MUTANTS names a module of src/propeller_sim, the text edits that
make the mutant (each old text must occur exactly once in the module) and
the tests that should fail under it.  For each mutant, src/, tests/,
perfbench/ and pyproject.toml are copied into a fresh temporary directory,
the edits are applied to the copy, and

    python -m pytest -x -q -p no:cacheprovider <tests>

runs there with PYTHONPATH=src, every thread variable pinned to 1, and a
wall-time cap of TIMEOUT_S.  A failing test run kills the mutant, a passing
one means it survived; a run cut by the cap counts as killed and is marked
as a timeout.  Any other pytest exit (no tests collected, a usage error) is
reported as an error of the probe.  A control run first runs every mutant's
tests on an unmutated copy, which must pass, so that a failing test cannot
pass for a kill.  The script prints one line per run, then the counts and the
run time, and exits 1 if the control failed or any mutant survived or
errored.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "PROPELLER_THREADS")
TIMEOUT_S = 600.0
CLI = "tests/test_cli.py::TestOutputs::"
SCAN = "tests/test_ensemble.py::TestScanAdditionTheorem"

# (name, module, [(old text, new text), ...], tests)
MUTANTS = [
    ("kick_sign", "classical_symtop.py",
     [("dL = (-2.0 * P * (r @ p))", "dL = (2.0 * P * (r @ p))")],
     ["tests/test_classical_symtop.py"]),
    ("positions_without_w", "classical_symtop.py",
     [("np.sin(ang)) * self.w + self.a", "np.sin(ang)) + self.a")],
     ["tests/test_classical_symtop.py"]),
    ("kick_without_degenerate_guard", "classical_symtop.py",
     [("    dL[np.sqrt(np.sum(pxr * pxr, axis=1)) < 1e-12] = 0.0\n", "")],
     ["tests/test_classical_symtop.py", "tests/test_classical_linear.py",
      "tests/test_ensemble.py", "tests/test_density.py"]),
    ("fig5_without_guard", "cli.py",
     [("    if k is None:\n        raise ProtocolError(f\"{tag}: no delay-scan",
       "    if False:\n        raise ProtocolError(f\"{tag}: no delay-scan")],
     [CLI + "test_preset_fig5_needs_both_extrema"]),
    ("alignment_with_curve_meta", "cli.py",
     [("meta = dict(curve.meta, distinct_freqs=curve.meta.pop(\"cos2theta_freqs\"))",
       "meta = curve.meta")],
     [CLI + "test_alignment_counts_its_own_beats"]),
    ("vertex_0.45", "ensemble.py",
     [("x[1] + 0.5 * (y[0] - y[2])", "x[1] + 0.45 * (y[0] - y[2])")],
     ["tests/test_ensemble.py::TestAlignmentExtremum", "tests/test_references.py"]),
    ("fig5_topt_from_norm", "cli.py",
     [("np.abs(scan.channels[\"Ly\"]), \"max\", \"|Ly|\")",
       "np.abs(scan.channels[\"Ly_norm\"]), \"max\", \"|Ly|\")")],
     [CLI + "test_fig5_extrema_are_read_from_the_delay_scans"]),
    ("compare_skip_first", "cli.py",
     [("np.max(np.abs(c[post] - q[post]))", "np.max(np.abs(c[post] - q[post])[1:])"),
      ("np.max(np.abs(cl - qm))", "np.max(np.abs(cl - qm)[1:])")],
     [CLI + "test_compare_deviation_is_the_maximum_of_the_file"]),
    ("scan_dLy_sign", "ensemble.py",
     [("(-2.0 * P) * (s * pxr[1])", "(2.0 * P) * (s * pxr[1])")],
     [SCAN]),
    ("scan_P2_term_halved", "ensemble.py",
     [("(4.0 * P * P) * ss", "(2.0 * P * P) * ss")],
     [SCAN]),
    ("scan_LdL_term_halved", "ensemble.py",
     [("(-4.0 * P) * (s * g)", "(-2.0 * P) * (s * g)")],
     [SCAN]),
    ("blocks_unaligned", "ensemble.py",
     [("pos = _aligned_empty((len(centre)", "pos = np.empty((len(centre)")],
     ["tests/test_ensemble.py::TestFreeFlightBlocks::test_blocks_start_on_64_byte_boundaries"]),
    ("format_ties_half_up", "io_formats.py",
     [("m = np.rint(p)", "m = np.floor(p + 0.5)")],
     ["tests/test_io_formats.py"]),
    ("extremum_nonstrict", "ensemble.py",
     [("(v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])", "(v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])")],
     ["tests/test_ensemble.py::TestAlignmentExtremum"]),
]


def _mutate(path: Path, edits) -> None:
    text = path.read_text()
    for old, new in edits:
        count = text.count(old)
        if count != 1:
            raise ValueError(f"{path.name}: {old!r} occurs {count} times, not once")
        text = text.replace(old, new)
    path.write_text(text)


def run_mutant(module: str, edits, tests) -> str:
    """'killed', 'timeout', 'survived' or 'error <pytest exit code>'."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(src, copy / name)
        _mutate(copy / "src" / "propeller_sim" / module, edits)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
                   **{k: "1" for k in THREAD_VARS})
        try:
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "timeout"
    return {0: "survived", 1: "killed"}.get(code, f"error {code}")


def main() -> int:
    start, tally = time.perf_counter(), {}
    control = run_mutant("__init__.py", [], list(dict.fromkeys(
        t for *_, tests in MUTANTS for t in tests)))
    passed = control == "survived"
    print(f"{'control (no mutation)':32s} {'passed' if passed else control:10s} "
          f"{time.perf_counter() - start:6.1f} s", flush=True)
    if not passed:
        return 1
    for name, module, edits, tests in MUTANTS:
        t0 = time.perf_counter()
        status = run_mutant(module, edits, tests)
        tally[status.split()[0]] = tally.get(status.split()[0], 0) + 1
        print(f"{name:32s} {status:10s} {time.perf_counter() - t0:6.1f} s", flush=True)
    killed = tally.get("killed", 0) + tally.get("timeout", 0)
    print(f"{len(MUTANTS)} mutants: {killed} killed ({tally.get('timeout', 0)} by timeout), "
          f"{tally.get('survived', 0)} survived, {tally.get('error', 0)} errors "
          f"in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
