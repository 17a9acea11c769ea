"""The array %.10e formatter and the CSV writers built on it, byte for byte.

`io_formats.format_e10` must give exactly the text of `'%.10e' % x`.  The
corpus holds the cases where an approximate method goes wrong: exact
decimal ties, values whose scaled product lands on a tie only through its
rounding error, neighbours of powers of ten where log10 can miss by one,
the carry from 9.99999999995e to the next exponent, and every cell that
takes the one-by-one fallback.  The writers must write the same bytes as
their one-value-at-a-time references in `oracles`.
"""

import json

import numpy as np
import pytest

import oracles
from propeller_sim import io_formats
from propeller_sim.density import DensityGrid
from propeller_sim.ensemble import TimeSeries


def _texts(x) -> list[str]:
    cells = io_formats.format_e10(x).reshape(-1, io_formats._FIELD)
    return [bytes(c).lstrip(b"\0").decode() for c in cells]


def _corpus() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(38)
    signs = rng.choice([-1.0, 1.0], 20000)
    n = rng.integers(10 ** 10, 10 ** 11, 20000).astype(float)
    k = np.arange(-12, 12)
    powers = np.array([float(f"1e{j}") for j in k])
    carries = np.array([float(f"9.99999999995e{j}") for j in range(-14, 13)])
    return {
        "uniform": rng.uniform(-1.0, 1.0, 20000),
        "uniform wide": rng.uniform(-2e10, 2e10, 20000),
        "log-uniform": signs * 10.0 ** rng.uniform(-320.0, 300.0, 20000),
        "decimal ties": np.concatenate([n + 0.5, -(n + 0.5)]),
        # (n + 1/2) 10^-s: the product by 10^s is often a tie in floating
        # point but not in exact arithmetic, so only err decides it
        "near ties": (n + 0.5) / 10.0 ** rng.integers(1, 23, 20000),
        "powers of ten": np.concatenate([np.nextafter(powers, 0.0), powers,
                                         np.nextafter(powers, np.inf), -powers]),
        "carries": np.concatenate([np.nextafter(carries, 0.0), carries,
                                   np.nextafter(carries, np.inf)]),
        "specials": np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                              5e-324, -5e-324, 2.2250738585072014e-308,
                              1.2345e-310, 1e-100, -9.99999999995e-100,
                              1e100, -1.5e299, 1.7976931348623157e308]),
    }


@pytest.mark.parametrize("name", list(_corpus()))
def test_format_e10_matches_percent(name):
    x = _corpus()[name]
    assert _texts(x) == ["%.10e" % v for v in x.tolist()]


def test_format_e10_corrects_its_exponent_estimate(monkeypatch):
    # floor(log10|x|) misses by one only within a few ulps of a power of
    # ten, where both exponents give the same text; an estimate off by one
    # anywhere must be corrected by the mantissa's range
    x = np.concatenate(list(_corpus().values()))
    decade = io_formats._decade
    rng = np.random.default_rng(5)
    monkeypatch.setattr(io_formats, "_decade",
                        lambda a: decade(a) + rng.integers(-1, 2, a.shape))
    assert _texts(x) == ["%.10e" % v for v in x.tolist()]


def test_format_e10_fills_a_strided_view():
    x = np.array([[1.5, -0.0, np.nan], [-2.5e-7, 1e300, 9.99999999995e3]])
    cells = np.full((2, 3, io_formats._WIDTH), ord("|"), np.uint8)
    io_formats.format_e10(x, cells[..., :io_formats._FIELD])
    assert (cells[..., io_formats._FIELD:] == ord("|")).all()
    assert _texts(x) == [bytes(c[:io_formats._FIELD]).lstrip(b"\0").decode()
                         for c in cells.reshape(-1, io_formats._WIDTH)]


def _series(n_rows: int) -> TimeSeries:
    rng = np.random.default_rng(n_rows)
    grid = rng.uniform(0.0, 3.0, n_rows)
    channels = {"cos2theta": rng.uniform(-1.0, 1.0, n_rows),
                "Ly": rng.normal(0.0, 1e-9, n_rows),
                "L2": 10.0 ** rng.uniform(-320.0, 300.0, n_rows)}
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-310, -1e150])
    channels["Ly"][:len(special)] = special[:n_rows]
    return TimeSeries(grid=grid, channels=channels)


@pytest.mark.parametrize("n_rows", [0, 1, 7, 450, 1001])
def test_timeseries_csv_bytes(tmp_path, n_rows):
    # 450 rows of four columns are one block; 1001 rows end in a short one
    ts = _series(n_rows)
    io_formats.write_timeseries_csv(tmp_path / "new.csv", ts, time_column="tau_trev")
    oracles.write_timeseries_csv(tmp_path / "ref.csv", ts, time_column="tau_trev")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_timeseries_csv_integer_grid(tmp_path):
    ts = TimeSeries(grid=np.arange(5), channels={"P": np.arange(5) - 2})
    io_formats.write_timeseries_csv(tmp_path / "new.csv", ts)
    oracles.write_timeseries_csv(tmp_path / "ref.csv", ts)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("shape", [(181, 360), (1, 360), (7, 11), (3, 1000)])
def test_density_text_bytes(tmp_path, shape):
    # 181 theta rows are 36 blocks of 5 and one of 1; a 1000-node row is a
    # block of its own
    grid = DensityGrid.build(*shape)
    rng = np.random.default_rng(shape[0])
    grid.rho = rng.normal(0.05, 0.1, grid.rho.shape)
    grid.rho.flat[:6] = [0.0, -0.0, np.nan, np.inf, 1e-200, -3e-320]
    grid.meta.update(estimator="belt", sigma=0.1, n_molecules=4000)
    io_formats.write_density_text(tmp_path / "new.csv", grid, seed=2)
    oracles.write_density_text(tmp_path / "ref.csv", grid, seed=2)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_plain_maps_numpy_booleans():
    assert json.dumps(io_formats._plain({"a": np.bool_(True), "b": [np.False_]})) \
        == '{"a": true, "b": [false]}'
