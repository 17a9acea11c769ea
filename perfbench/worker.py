"""One benchmark job: a single workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--tiny]

Imports the program from the checkout's `src/`, loads the workload's
references and (with --trace) installs the tracer, then prints READY; the
parent times set-up up to that line.  It then times one `cli.main` call,
checks the outputs and prints one JSON line with wall and CPU time, peak
RSS, the CPU time the host stole from this machine meanwhile (a noisy
neighbour shows there), the operations attempted and failed, and (with
--trace) the per-layer metrics.  Thread settings come from the environment the parent sets.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def import_program():
    """Import propeller_sim from this checkout, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import propeller_sim
    import propeller_sim.cli
    if Path(propeller_sim.__file__).resolve().parent != src / "propeller_sim":
        raise SystemExit(f"propeller_sim imported from {propeller_sim.__file__}, "
                         f"not from {src}")
    return propeller_sim.cli


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def steal_seconds() -> float:
    """CPU time the host gave to other guests (all CPUs), from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def library_versions() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = ap.parse_args(argv)

    cli = import_program()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    refs = workloads.load_refs(wl)
    tracer = tracing.Tracer().install() if args.trace else None
    print("READY", flush=True)

    WORK.mkdir(exist_ok=True)
    out_dir = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    cli_argv = [*(wl.tiny_argv if args.tiny else wl.argv),
                "--seed", str(args.seed), "--out", str(out_dir)]
    steal0, cpu0, t0 = steal_seconds(), cpu_seconds(), time.perf_counter()
    rc = cli.main(cli_argv)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    steal = steal_seconds() - steal0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
    against_refs = not args.tiny and (args.seed == workloads.REF_SEED or not wl.seeded)
    attempted, failures = workloads.check(wl, out_dir, refs, against_refs)
    if rc != 0:
        failures.setdefault("cli", []).append(f"cli.main returned {rc}")
        attempted += 1
    shutil.rmtree(out_dir, ignore_errors=True)

    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mib": peak_rss_mib,
              "host_steal_s": steal,
              "attempted": attempted, "failed": len(failures),
              "failures": failures, "checked_against_refs": against_refs,
              "versions": library_versions()}
    if tracer is not None:
        result["layers"], result["absent"] = tracer.metrics(wall)
        tracer.dump(WORK / f"trace-{wl.name}.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
