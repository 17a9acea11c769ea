"""Deterministic output serialization: time series, density grids, manifests.

CSV schema: line 1 is `# propeller-sim v<version>`, line 2 the column names,
then comma-separated values in %.10e (times in T_rev units).  Identical runs
produce byte-identical files.  Density grids use a plain-text table
"theta,phi,rho" behind an 8-line header.  Every run directory carries a
manifest.json whose configuration echo re-parses to an identical dict.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .core import ParameterError
from .density import DensityGrid
from .ensemble import TimeSeries

_FMT = "%.10e"


def _fmt(x: float) -> str:
    return _FMT % x


def write_timeseries_csv(path, ts: TimeSeries, time_column: str = "t_trev"):
    names = list(ts.channels)
    lines = [f"# propeller-sim v{__version__}",
             ",".join([time_column] + names)]
    cols = [ts.grid] + [ts.channels[n] for n in names]
    for row in zip(*cols):
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_timeseries_csv(path) -> TimeSeries:
    lines = Path(path).read_text().strip().split("\n")
    if not lines[0].startswith("# propeller-sim"):
        raise ParameterError(f"{path}: not a propeller-sim CSV")
    names = lines[1].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    channels = {n: data[:, i + 1] for i, n in enumerate(names[1:])}
    return TimeSeries(grid=data[:, 0], channels=channels,
                      meta={"source": str(path)})


def write_timeseries_json(path, ts: TimeSeries, time_column: str = "t_trev"):
    doc = {"version": __version__,
           time_column: [float(v) for v in ts.grid],
           "channels": {k: [float(x) for x in v] for k, v in ts.channels.items()},
           "meta": _plain(ts.meta)}
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def write_density_text(path, grid: DensityGrid, seed=None):
    meta = grid.meta
    lines = [
        f"# propeller-sim v{__version__} density grid",
        f"# estimator = {meta.get('estimator', 'unknown')}",
        f"# n_theta = {len(grid.theta)}",
        f"# n_phi = {len(grid.phi)}",
        f"# sigma = {_fmt(meta.get('sigma', float('nan')))}",
        f"# n_molecules = {meta.get('n_molecules', 0)}",
        f"# seed = {seed if seed is not None else meta.get('seed', '')}",
        "# columns: theta,phi,rho",
    ]
    # theta and phi are formatted once; a theta row is one template whose
    # %.10e fields take that row's rho values, written as it is formed
    cells = [f",{_fmt(ph)},{_FMT}\n" for ph in grid.phi.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        for th, rho in zip(map(_fmt, grid.theta.tolist()), grid.rho):
            fh.write("".join([th + c for c in cells]) % tuple(rho.tolist()))


def read_density_text(path):
    with open(path) as fh:
        header = [fh.readline().rstrip("\n") for _ in range(8)]
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    n_theta = int(header[2].split("=")[1])
    n_phi = int(header[3].split("=")[1])
    theta = body[::n_phi, 0]
    phi = body[:n_phi, 1]
    rho = body[:, 2].reshape(n_theta, n_phi)
    return theta, phi, rho, header


def _plain(obj):
    """Recursively convert to JSON-serializable python types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


@dataclass
class RunManifest:
    """Reproducibility record written next to every output file set."""

    command: str
    config: dict
    seed: int | None = None
    version: str = __version__
    versions: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    auto_delay_trev: float | None = None
    truncation: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(_plain(asdict(self)), indent=1, sort_keys=True)

    def write(self, path):
        Path(path).write_text(self.to_json() + "\n")


def library_versions() -> dict:
    return {"propeller-sim": __version__, "numpy": np.__version__}
