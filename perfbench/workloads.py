"""The benchmark's workloads and the check of their outputs.

Each workload is one `propeller_sim.cli.main` call.  Its outputs are
checked per operation, where an operation is one output array (a CSV
column) or the run's `manifest.json`:

* at the reference seed, and at every seed for a workload whose outputs do
  not depend on the seed, each array must match the stored reference
  (`refs/<workload>/`) to within `TOL_QUANTA` print quanta of the CLI's
  `%.10e` format, and quantum channels also to 1e-10 relative;
* at every seed, seed-independent invariants must hold: cos^2 values in
  [0, 1], |Ly_norm| <= 1, the density integral and the moment sum, and the
  classical-vs-quantum deviation the fig2 manifest reports.

A miss fails its operation and is reported; it never stops the run.
"""

from __future__ import annotations

import gzip
import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "refs"
REF_SEED = 1                # seed at which the stored references were made
PRINT_DIGITS = 10           # the CLI writes values as %.10e
TOL_QUANTA = 1.01           # allowed distance, in print quanta of the reference
QUANTUM_TOL = 1e-10         # ROADMAP gate for quantum channels (relative above 1)
SMALL = 1e-4                # values below SMALL x column max use that floor's quantum


@dataclass(frozen=True)
class Workload:
    """One CLI call; `argv` omits --seed and --out, which the benchmark adds."""

    name: str
    why: str
    argv: tuple[str, ...]
    tiny_argv: tuple[str, ...]      # same outputs at smoke-test size
    seeded: bool                    # outputs depend on --seed
    quantum: tuple[str, ...]        # operations that are quantum channels
    invariants: Callable[[dict], Iterable[tuple[str, bool, str]]]   # (op, ok, why)


# ---- output loading ---------------------------------------------------------


def _open(path: Path):
    return gzip.open(path, "rt") if path.suffix == ".gz" else open(path)


def read_columns(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CLI time-series or density table, by name."""
    with _open(path) as fh:
        lines = fh.read().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    body = lines[len(header):]
    if header[-1].startswith("# columns:"):          # density text
        names = header[-1].split(":", 1)[1].strip().split(",")
    else:                                             # time series
        names, body = body[0].split(","), body[1:]
    data = np.loadtxt(body, delimiter=",", ndmin=2)
    return {n: data[:, i] for i, n in enumerate(names)}


def _manifest_numbers(doc: dict) -> dict[str, float]:
    """Numeric results of a manifest, flattened to dotted keys."""
    out = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}", v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}.{i}", v)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[prefix] = float(value)

    for key, value in doc.get("config", {}).items():
        if key.startswith("result_"):
            walk(key, value)
    for key in ("auto_delay_trev", "truncation"):
        if doc.get(key) is not None:
            walk(key, doc[key])
    return out


def load_outputs(run_dir: Path) -> dict:
    """Operation name -> array, plus "manifest.json" -> flattened numbers.

    Reads a CLI output directory, or a reference directory whose files carry
    an extra .gz suffix.
    """
    run_dir = Path(run_dir)
    gz = "" if (run_dir / "manifest.json").exists() else ".gz"
    path = run_dir / f"manifest.json{gz}"
    if not path.exists():
        return {}
    with _open(path) as fh:
        doc = json.load(fh)
    out = {"manifest.json": _manifest_numbers(doc)}
    for fname in doc["outputs"]:
        try:
            columns = read_columns(run_dir / f"{fname}{gz}")
        except (OSError, ValueError):     # its arrays then count as missing
            continue
        for col, arr in columns.items():
            out[f"{fname}:{col}"] = arr
    return out


# ---- checks -------------------------------------------------------------------


def print_tolerance(ref: np.ndarray) -> np.ndarray:
    """TOL_QUANTA quanta of %.10e at each reference value (column-floored)."""
    mag = np.abs(ref)
    floor = SMALL * (mag.max() if mag.size else 0.0)
    mag = np.maximum(mag, floor)
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log10(mag))
    return np.where(mag > 0, TOL_QUANTA * 10.0 ** (exponent - PRINT_DIGITS), 0.0)


def compare(out, ref, quantum: bool) -> str | None:
    """Why `out` misses `ref`, or None when it matches."""
    if isinstance(ref, dict):                         # manifest numbers
        if set(out) != set(ref):
            return f"keys differ: {sorted(set(out) ^ set(ref))}"
        keys = sorted(ref)
        out = np.array([out[k] for k in keys])
        ref = np.array([ref[k] for k in keys])
    if out.shape != ref.shape:
        return f"shape {out.shape} != reference {ref.shape}"
    dev = np.abs(out - ref)
    bad = ~(dev <= print_tolerance(ref))
    if quantum:
        bad |= ~(dev <= QUANTUM_TOL * np.maximum(1.0, np.abs(ref)))
    if np.any(bad):
        i = int(np.argmax(np.where(bad, dev, -1.0)))
        return (f"{int(bad.sum())} value(s) off the reference; worst at index {i}: "
                f"{out[i]!r} vs {ref[i]!r}")
    return None


def check(workload: Workload, run_dir: Path, refs: dict, against_refs: bool):
    """(operations attempted, {operation: [reasons it failed]})."""
    outputs = load_outputs(run_dir)
    failures: dict[str, list[str]] = {}

    def fail(op, why):
        failures.setdefault(op, []).append(why)

    for op in sorted(set(refs) | set(outputs)):
        if op not in outputs:
            fail(op, "missing from the outputs")
        elif op not in refs:
            fail(op, "not in the reference set")
        elif against_refs:
            why = compare(outputs[op], refs[op], op in workload.quantum)
            if why:
                fail(op, why)
    if outputs:
        try:
            for op, ok, why in workload.invariants(outputs):
                if not ok:
                    fail(op, why)
        except (KeyError, IndexError, ValueError) as exc:   # an output is missing
            fail("manifest.json", f"invariants could not be evaluated: {exc!r}")
    return len(set(refs) | set(outputs)), failures


def load_refs(workload: Workload) -> dict:
    return load_outputs(REF_DIR / workload.name)


# ---- invariants -----------------------------------------------------------------

_EPS = 1e-12


def _in_unit(o, op):
    v = o[op]
    return op, bool(np.all((v >= -_EPS) & (v <= 1 + _EPS))), "value outside [0, 1]"


def _abs_le_one(o, op):
    return op, bool(np.all(np.abs(o[op]) <= 1 + _EPS)), "|value| > 1"


def _close(a, b, rel):
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


def _fig2_invariants(o):
    f = "compare.csv"
    for name in ("cos2theta", "cos2phi"):
        for side in ("classical", "quantum"):
            yield _in_unit(o, f"{f}:{name}_{side}")
    man = o["manifest.json"]
    delay = man["result_delay_trev"]
    post = o[f"{f}:t_trev"] >= delay
    for name in ("cos2theta", "cos2phi"):
        dev = np.max(np.abs(o[f"{f}:{name}_classical"][post]
                            - o[f"{f}:{name}_quantum"][post]))
        reported = man[f"result_max_abs_deviation.{name}"]
        yield ("manifest.json", abs(dev - reported) <= 1e-9 and 0.0 < reported <= 1.0,
               f"reported {name} deviation {reported!r} vs {dev!r} from compare.csv")


def _symtop_quantum_invariants(o):
    yield _in_unit(o, "alignment.csv:cos2theta")
    ly, l2 = o["delayscan.csv:Ly"], o["delayscan.csv:L2"]
    yield "delayscan.csv:L2", bool(np.all(l2 > 0)), "<L^2> not positive"
    yield _abs_le_one(o, "delayscan.csv:Ly_norm")
    yield ("delayscan.csv:Ly_norm", _close(o["delayscan.csv:Ly_norm"], ly / np.sqrt(l2), 1e-9),
           "Ly_norm != Ly / sqrt(L2)")
    man = o["manifest.json"]
    yield ("manifest.json", man["truncation.headroom_tail"] <= QUANTUM_TOL,
           "headroom tail above 1e-10")


def _fig5_invariants(o):
    extrema = {k.split(":")[1]: v for k, v in o.items() if k.startswith("extrema.csv:")}
    for row, P in enumerate(extrema["P"]):
        tag = f"P{int(abs(P))}"
        align, scan = f"alignment_{tag}.csv", f"delayscan_{tag}.csv"
        yield _in_unit(o, f"{align}:cos2theta")
        yield _in_unit(o, f"{scan}:cos2theta")
        yield _abs_le_one(o, f"{scan}:Ly_norm")
        yield f"{scan}:L2", bool(np.all(o[f"{scan}:L2"] >= 0)), "<L^2> negative"
        for name in ("cos2theta", "Ly_norm"):
            yield (f"combined.csv:{name}_{tag}",
                   np.array_equal(o[f"combined.csv:{name}_{tag}"], o[f"{scan}:{name}"]),
                   f"differs from {scan}")
        at_min = o[f"{align}:t_trev"] == extrema["t_min_trev"][row]
        yield ("extrema.csv:cos2theta_min",
               np.array_equal(o[f"{align}:cos2theta"][at_min],
                              extrema["cos2theta_min"][row:row + 1]),
               f"{tag} minimum is not the alignment value at t_min")


def _fig4_invariants(o):
    rho = o["density.csv:rho"]
    theta = o["density.csv:theta"]
    n_theta = len(np.unique(theta))
    n_phi = len(rho) // n_theta
    grid = rho.reshape(n_theta, n_phi)
    _, w = np.polynomial.legendre.leggauss(n_theta)   # symmetric, so order-free
    integral = float(w @ grid.sum(axis=1) * (2.0 * np.pi / n_phi))
    man = o["manifest.json"]
    yield "density.csv:rho", bool(np.all(rho >= 0)), "negative density"
    yield ("density.csv:rho", abs(integral - 1.0) <= 1e-9,
           f"density integrates to {integral!r}")
    yield ("manifest.json", abs(man["result_density_integral"] - integral) <= 1e-9,
           f"reported integral {man['result_density_integral']!r} vs {integral!r}")
    moments = sum(man[f"result_second_moments.{i}"] for i in range(3))
    yield "manifest.json", abs(moments - 1.0) <= 1e-12, f"moments sum to {moments!r}"
    yield ("profile.csv:rho_phi_avg", _close(o["profile.csv:rho_phi_avg"], grid.mean(axis=1), 1e-9),
           "profile is not the phi average of the density")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="n2_fig2",
        why="N2 fig2 classical vs quantum: the chunked free-flight loop, the "
            "auto-delay scan and quantum_linear",
        argv=("preset", "fig2", "--n-traj", "6000"),
        tiny_argv=("preset", "fig2", "--n-traj", "200"),
        seeded=True,
        quantum=("compare.csv:cos2theta_quantum", "compare.csv:cos2phi_quantum"),
        invariants=_fig2_invariants),
    Workload(
        name="benzene_quantum_p4",
        why="benzene symmetric-top quantum run at P=-4: 3j couplings, block "
            "eigensolves, block algebra and frequency grouping",
        argv=("quantum-symtop", "--molecule", "benzene", "--temp-K", "0.9",
              "--P1", "-4", "--P2", "-4", "--angle-deg", "-45",
              "--t-max", "0.15", "--dt-out", "0.0005"),
        tiny_argv=("quantum-symtop", "--molecule", "benzene", "--temp-K", "0.9",
                   "--P1", "-1", "--P2", "-1", "--angle-deg", "-45",
                   "--t-max", "0.01", "--dt-out", "0.0005"),
        seeded=False,
        quantum=("alignment.csv:cos2theta", "delayscan.csv:Ly", "delayscan.csv:L2",
                 "delayscan.csv:Ly_norm"),
        invariants=_symtop_quantum_invariants),
    Workload(
        name="benzene_fig5_scan",
        why="benzene classical delay scans: symtop geometry, positions and kicks "
            "over many delays, plus small CSV writes",
        argv=("preset", "fig5", "--n-traj", "10000"),
        tiny_argv=("preset", "fig5", "--n-traj", "300"),
        seeded=True,
        quantum=(),
        invariants=_fig5_invariants),
    Workload(
        name="n2_fig4_belt",
        why="N2 fig4 belt density: density synthesis and the density-text "
            "write and read-back",
        argv=("preset", "fig4", "--n-traj", "4000"),
        tiny_argv=("preset", "fig4", "--n-traj", "100"),
        seeded=True,
        quantum=(),
        invariants=_fig4_invariants),
)}
