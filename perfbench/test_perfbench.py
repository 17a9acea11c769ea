"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

Smoke runs of every workload at a tiny size (untraced and traced), the
check counting a perturbed output as failed, traced self times adding up to
the traced wall time, and the refusal to run without the program's sources.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads

ROOT = run.ROOT


def job(name: str, *flags: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.HERE / "worker.py"), "--workload", name,
         "--seed", "7", "--tiny", *flags],
        env=run.pinned_env(), cwd=ROOT, capture_output=True, text=True,
        check=True, timeout=300)
    lines = out.stdout.splitlines()
    assert lines[0] == "READY"
    return json.loads(lines[-1])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_passes_its_checks(name):
    result = job(name)
    assert result["failures"] == {}
    assert result["attempted"] > 1 and result["failed"] == 0
    assert result["wall_s"] > 0 and result["cpu_s"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_self_times_add_up_to_the_wall(name):
    result = job(name, "--trace")
    assert result["failed"] == 0
    layers = result["layers"]
    span_self = sum(v for k, v in layers.items()
                    if k.endswith("_s") and v is not None and k != "cli.self_s")
    assert layers["cli.self_s"] >= 0
    assert span_self + layers["cli.self_s"] == pytest.approx(result["wall_s"], abs=1e-9)
    spans = json.loads((ROOT / ".perfbench_work" / f"trace-{name}.json").read_text())["spans"]
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
    for layer in result["absent"]:
        assert all(v is None for k, v in layers.items() if k.startswith(layer + "."))


def _unpacked_refs(name: str, dest: Path) -> Path:
    for path in (workloads.REF_DIR / name).iterdir():
        with gzip.open(path, "rb") as src, open(dest / path.name[:-3], "wb") as dst:
            shutil.copyfileobj(src, dst)
    return dest


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_reference_outputs_pass_the_check(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    refs = workloads.load_refs(wl)
    attempted, failures = workloads.check(wl, _unpacked_refs(name, tmp_path), refs, True)
    assert failures == {}
    assert attempted == len(refs)


def _perturb(path: Path, row: int, col: int, change):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = "%.10e" % change(float(cells[col]))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_perturbed_output_is_counted_as_failed(tmp_path):
    wl = workloads.WORKLOADS["benzene_quantum_p4"]
    refs = workloads.load_refs(wl)
    out = _unpacked_refs(wl.name, tmp_path)
    # one cos^2 value moved by 1e-8 relative: within every invariant, off the reference
    _perturb(out / "alignment.csv", 50, 1, lambda v: v * (1 + 1e-8))
    _, failures = workloads.check(wl, out, refs, True)
    assert list(failures) == ["alignment.csv:cos2theta"]
    assert workloads.check(wl, out, refs, False)[1] == {}
    # |Ly_norm| > 1 breaks an invariant even without references
    _perturb(out / "delayscan.csv", 10, 3, lambda v: 1.5)
    _, failures = workloads.check(wl, out, refs, False)
    assert list(failures) == ["delayscan.csv:Ly_norm"]
    (out / "alignment.csv").unlink()
    attempted, failures = workloads.check(wl, out, refs, False)
    assert attempted == len(refs)
    missing = {op for op in refs if op.startswith("alignment.csv:")}
    assert set(failures) == missing | {"manifest.json"}


def test_tracer_refuses_a_missing_name(monkeypatch):
    worker.import_program()
    from propeller_sim import ensemble
    monkeypatch.delattr(ensemble, "delay_scan")
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError):
        tracer.install()
    tracer.uninstall()


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "refs"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "n2_fig2",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_lists_what_the_benchmark_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        n: w.why for n, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.LAYER_METRICS
