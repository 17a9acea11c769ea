"""Regenerate the stored reference outputs.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs each workload (all by default) once at the reference seed with the
benchmark's pinned thread settings and stores its output files, gzipped,
under perfbench/refs/<workload>/.  Only do this when a change is meant to
alter the outputs, and say so in the change.
"""

from __future__ import annotations

import gzip
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# before numpy is imported, so that the BLAS pool starts with this size
os.environ.update({k: str(run.THREADS) for k in run.THREAD_VARS})

import worker  # noqa: E402
import workloads  # noqa: E402


def make(cli, name: str):
    wl = workloads.WORKLOADS[name]
    dest = HERE / "refs" / name
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        rc = cli.main([*wl.argv, "--seed", str(workloads.REF_SEED), "--out", tmp])
        if rc != 0:
            raise SystemExit(f"{name}: cli.main returned {rc}")
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        for path in sorted(Path(tmp).iterdir()):
            target = dest / f"{path.name}.gz"
            with open(path, "rb") as src, gzip.GzipFile(target, "wb", mtime=0) as dst:
                shutil.copyfileobj(src, dst)
            print(f"{target.relative_to(run.ROOT)}: {target.stat().st_size} bytes")


if __name__ == "__main__":
    program = worker.import_program()
    for workload in sys.argv[1:] or run.WORKLOADS:
        make(program, workload)
