"""propeller-sim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: the workload is run as a batch job, each job in a
fresh worker process (`worker.py`), one after another until --seconds have
passed (at least MIN_JOBS jobs).  The thread variables are pinned to
THREADS here and never inherited.  With --trace 0 the last line reports the
end-to-end metrics as medians over the jobs; with --trace 1 untraced and
traced jobs alternate and it reports the per-layer metrics as medians over
the traced jobs, plus trace.overhead_s.  The line before it is the run
record: versions, nproc, threads, load average and every job's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402  (stdlib-only module)

# One BLAS/OpenMP/engine thread: on a shared 2-core box this kept cpu_s equal
# to wall_s and gave the steadier figures (see README.md, "Thread setting").
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "PROPELLER_THREADS")
MIN_JOBS = 3                  # jobs per untraced run, whatever --seconds says
MIN_TRACED_JOBS = 2           # jobs per traced run: one untraced, one traced
RUN_LIMIT_S = 170.0           # a job still running then is killed and fails
WORKLOADS = ("n2_fig2", "benzene_quantum_p4", "benzene_fig5_scan", "n2_fig4_belt")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update({k: str(THREADS) for k in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_job(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One worker process; its result, with setup_s measured from here."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if traced else [])
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t_spawn
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return {"traced": traced, "error": "job killed at the run time limit"}
    lines = out.strip().splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        return {"traced": traced, "error": f"worker exited with {proc.returncode}"}
    job = json.loads(lines[-1])
    job.update(setup_s=setup_s, traced=traced)
    return job


def median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "propeller_sim" / "cli.py").is_file():
        print(f"no propeller_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "git_sha": git_sha(), "nproc": os.cpu_count(),
              "threads": {k: THREADS for k in THREAD_VARS},
              "loadavg_start": Path("/proc/loadavg").read_text().split()[:3],
              "jobs": []}
    jobs = record["jobs"]
    min_jobs = MIN_TRACED_JOBS if args.trace else MIN_JOBS
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        t0 = time.perf_counter()
        job = run_job(args.workload, args.seed, traced, deadline)
        job["job_s"] = time.perf_counter() - t0
        jobs.append(job)
        if "error" in job:
            print(f"job {len(jobs)}: {job['error']}", file=sys.stderr)
            break
        for op, reasons in job["failures"].items():
            for why in reasons:
                print(f"job {len(jobs)}: FAILED {op}: {why}", file=sys.stderr)
        elapsed = time.perf_counter() - t_start
        typical = median([j["job_s"] for j in jobs])
        if len(jobs) >= min_jobs and elapsed + typical > args.seconds:
            break
        if elapsed + typical > RUN_LIMIT_S - 10.0:
            break

    good = [j for j in jobs if "error" not in j]
    attempted = sum(j["attempted"] for j in good) + len(jobs) - len(good)
    failed = sum(j["failed"] for j in good) + len(jobs) - len(good)
    record["versions"] = good[0]["versions"] if good else None
    if args.trace:
        traced_jobs = [j for j in good if j["traced"]]
        untraced_jobs = [j for j in good if not j["traced"]]
        names = traced_jobs[0]["layers"] if traced_jobs else ()
        values = {n: median([j["layers"][n] for j in traced_jobs
                             if j["layers"][n] is not None]) for n in names}
        if traced_jobs and untraced_jobs:
            values["trace.overhead_s"] = (median([j["wall_s"] for j in traced_jobs])
                                          - median([j["wall_s"] for j in untraced_jobs]))
        record["absent"] = traced_jobs[0]["absent"] if traced_jobs else None
        units = LAYER_METRICS
    else:
        values = {n: median([j[n] for j in good]) for n in END_TO_END}
        units = END_TO_END
    # a layer that never fired is listed under "absent" in the record; the
    # result line needs a number for every metric, so it reads 0 there
    metrics = {n: {"value": values.get(n) or 0, "unit": u} for n, u in units.items()}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": len(good) == len(jobs) and failed == 0,
                      "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
