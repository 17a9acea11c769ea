"""The CLI reproduces the benchmark's stored reference outputs.

Each workload of perfbench/workloads.py runs its argv at the reference seed
through `cli.main`, and its check against perfbench/refs/<workload>/ must
report no failure: every output array within print precision of the stored
one (quantum channels also to 1e-10), and the workload's invariants.  A
change meant to move the outputs regenerates the references with
perfbench/make_refs.py and says so.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from propeller_sim import cli

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_its_references(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    argv = [*wl.argv, "--seed", str(workloads.REF_SEED), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    attempted, failures = workloads.check(wl, tmp_path, workloads.load_refs(wl),
                                          against_refs=True)
    assert attempted > 1 and failures == {}
