"""Deterministic output serialization: time series, density grids, manifests.

CSV schema: line 1 is `# propeller-sim v<version>`, line 2 the column names,
then comma-separated values in %.10e (times in T_rev units).  Identical runs
produce byte-identical files.  Density grids use a plain-text table
"theta,phi,rho" behind an 8-line header.  Every run directory carries a
manifest.json whose configuration echo re-parses to an identical dict.

Both tables are formatted as arrays by `format_e10`, which gives exactly the
bytes of `'%.10e' % x`: the 11 significant digits of x correctly rounded,
ties to even, as CPython's `%` does (Steele & White, Gay).  With
e = floor(log10|x|) in [-12, 10], the power 10^(10-e) is an exact double
(10^0 .. 10^22), so Dekker's two-product gives x 10^(10-e) = p + err
exactly, with |err| at most half an ulp of p (2^-17 in [10^10, 10^11)).
p rounded half to even is then the rounding of p + err, except where p is
a half-integer and err is not zero; there the sign of err decides.  An
estimate of e that is off by one (log10 next to a power of ten) leaves
p + err outside [10^10, 10^11); e then moves by one and p is formed again.
A mantissa that rounds up to 10^11 carries into e, and zeros keep their
sign.  NaN, +-inf and magnitudes outside [1e-12, 1e11), three-digit
exponents and subnormals among them, are formatted one at a time by `%`.
The writers form blocks of about _CHUNK values: each cell holds its text
right-aligned behind NUL bytes, then its separator, and the NULs are
deleted as the block is written.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classical_symtop import _two_product
from .core import ParameterError
from .density import DensityGrid
from .ensemble import TimeSeries

_FMT = "%.10e"
_FIELD = 18                    # widest %.10e text: -1.2345678901e-100
_WIDTH = 20                    # a table cell: the text, its separator, a NUL
_CHUNK = 1800                  # values per written block of rows
_POW10 = np.array([float(10 ** k) for k in range(23)])     # exact doubles


def _pairs(text: str) -> np.ndarray:
    """The byte pairs of text as little-endian uint16."""
    return np.frombuffer(text.encode(), "<u2")


# every byte pair of a field is one lookup in these tables, so all nine
# pairs take the same numpy kernel and formatting pages in little numpy code
_SIGNS = _pairs("\0\0\0-")                                     # x >= 0, x < 0
_LEADS = _pairs("".join([f"{k}." for k in range(10)]))         # "0." .. "9."
_PAIRS = _pairs("".join([f"{k:02d}" for k in range(100)]))     # "00" .. "99"
_EXP_SIGNS = _pairs("e-" * 12 + "e+" * 12)                     # exponent + 12
_EXP_DIGITS = _PAIRS[np.abs(np.arange(-12, 12))]


def _decade(a):
    """floor(log10(a)), which may miss by one next to a power of ten."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.floor(np.log10(a))


def format_e10(x, out=None) -> np.ndarray:
    """`'%.10e' % v` of each element v of x, right-aligned behind NUL bytes
    in out, a uint8 array of shape x.shape + (_FIELD,) whose last axis is
    contiguous (allocated when None); returns out."""
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape + (_FIELD,), np.uint8)
    a = np.abs(x)
    e = _decade(a)
    other = ~((e >= -12.0) & (e <= 10.0))              # zero, NaN, inf, far exponents
    if other.any():
        a, e = np.where(other, 1.0, a), np.where(other, 0.0, e)
    e = e.astype(np.int64)
    p, err = _two_product(a, _POW10[10 - e])
    # the exact p + err lies in [10^10, 10^11) unless e missed by one; each
    # difference from a bound is exact or far larger than err
    low, high = (p - 1e10) + err < 0.0, (p - 1e11) + err >= 0.0
    miss = np.nonzero(low | high)
    if miss[0].size:
        e[miss] += high[miss].astype(np.int64) - low[miss]
        outside = (e < -12) | (e > 10)
        other |= outside
        a[outside], e[outside] = 1.0, 0
        p[miss], err[miss] = _two_product(a[miss], _POW10[10 - e[miss]])
    m = np.rint(p)                      # half to even: right unless p is a tie
    tie = (np.abs(m - p) == 0.5) & (err != 0.0)
    if tie.any():
        m[tie] = p[tie] + np.copysign(0.5, err[tie])
    carry = m == 1e11
    if carry.any():
        m[carry] = 1e10
        e += carry
    m = m.astype(np.int64)
    pairs = out.view("<u2")     # NUL|sign, lead|".", five digit pairs, "e"|sign, exponent
    pairs[..., 0] = _SIGNS[np.signbit(x).astype(np.intp)]
    lead, m = np.divmod(m, 10 ** 10)
    pairs[..., 1] = _LEADS[lead]
    for k in range(2, 6):
        pair, m = np.divmod(m, 10 ** (12 - 2 * k))
        pairs[..., k] = _PAIRS[pair]
    pairs[..., 6] = _PAIRS[m]
    e += 12
    pairs[..., 7] = _EXP_SIGNS[e]
    pairs[..., 8] = _EXP_DIGITS[e]
    if other.any():
        zero = x == 0.0
        pairs[..., 1][zero] = _LEADS[0]
        for i in zip(*np.nonzero(other & ~zero)):
            text = (_FMT % x[i]).encode()
            out[i] = 0
            out[i][_FIELD - len(text):] = np.frombuffer(text, np.uint8)
    return out


def _row_block(shape) -> np.ndarray:
    """Empty text rows of shape[-1] cells each: the cells of a row end in
    ",", its last in a newline, and the NUL bytes are dropped on writing."""
    block = np.zeros(tuple(shape) + (_WIDTH,), np.uint8)
    block[..., _FIELD] = ord(",")
    block[..., -1, _FIELD] = ord("\n")
    return block


def write_timeseries_csv(path, ts: TimeSeries, time_column: str = "t_trev"):
    names = list(ts.channels)
    lines = [f"# propeller-sim v{__version__}",
             ",".join([time_column] + names)]
    data = np.column_stack([ts.grid] + [ts.channels[n] for n in names])
    rows = max(1, _CHUNK // data.shape[1])
    block = _row_block(data[:rows].shape)
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for i in range(0, len(data), rows):
            part = block[:len(data) - i]
            format_e10(data[i:i + rows], part[..., :_FIELD])
            fh.write(part.tobytes().translate(None, b"\0"))


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
           time_column: np.asarray(ts.grid, dtype=float).tolist(),
           "channels": {k: np.asarray(v, dtype=float).tolist()
                        for k, v in ts.channels.items()},
           "meta": _plain(ts.meta)}
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def write_density_text(path, grid: DensityGrid, seed=None):
    meta = grid.meta
    lines = [
        f"# propeller-sim v{__version__} density grid",
        f"# estimator = {meta.get('estimator', 'unknown')}",
        f"# n_theta = {len(grid.theta)}",
        f"# n_phi = {len(grid.phi)}",
        f"# sigma = {_FMT % meta.get('sigma', float('nan'))}",
        f"# n_molecules = {meta.get('n_molecules', 0)}",
        f"# seed = {seed if seed is not None else meta.get('seed', '')}",
        "# columns: theta,phi,rho",
    ]
    # theta and phi are formatted once; each block of whole theta rows
    # takes its theta and rho fields and is written as it is formed
    n_theta, n_phi = grid.rho.shape
    theta = format_e10(grid.theta)
    rows = max(1, _CHUNK // n_phi)
    block = _row_block((min(rows, n_theta), n_phi, 3))
    block[:, :, 1, :_FIELD] = format_e10(grid.phi)
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for i in range(0, n_theta, rows):
            part = block[:n_theta - i]
            part[:, :, 0, :_FIELD] = theta[i:i + rows, None]
            format_e10(grid.rho[i:i + rows], part[:, :, 2, :_FIELD])
            fh.write(part.tobytes().translate(None, b"\0"))


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
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
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
