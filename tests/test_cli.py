import json
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from oracles import read_manifest
from propeller_sim import __version__, cli, quantum_symtop
from propeller_sim.cli import main, parse_molecule
from propeller_sim.core import ParameterError
from propeller_sim.io_formats import read_density_text, read_timeseries_csv


def run_cli(*args) -> int:
    return main(list(args))


MONTE_CARLO = ("classical-linear", "classical-symtop", "density", "compare")


def n_traj(command, value) -> list:
    """--n-traj value for the commands that sample molecules, else nothing."""
    return ["--n-traj", value] if command in MONTE_CARLO else []


def grid(command, t_max, dt) -> list:
    """--t-max and --dt-out for the commands with an output grid, all but
    density, which takes --t-max only to bound an auto second pulse's search."""
    return [] if command == "density" else ["--t-max", t_max, "--dt-out", dt]


class TestParsing:
    def test_molecule_specs(self):
        assert parse_molecule("n2").kind == "linear"
        assert parse_molecule("benzene").kind == "oblate-symtop"
        custom = parse_molecule("custom:1.5")
        assert custom.kind == "linear" and custom.B_cm1 == 1.5
        top = parse_molecule("custom:0.2,0.1")
        assert top.kind == "oblate-symtop" and top.C_cm1 == 0.1
        with pytest.raises(ParameterError):
            parse_molecule("water")
        with pytest.raises(ParameterError):
            parse_molecule("custom:a,b")


class TestExitCodes:
    def test_unknown_flag(self, tmp_path):
        assert run_cli("classical-linear", "--out", str(tmp_path), "--bogus") == 2

    def test_molecule_subcommand_mismatch(self, tmp_path):
        assert run_cli("classical-linear", "--molecule", "benzene",
                       "--out", str(tmp_path)) == 2

    def test_numerical_failure(self, tmp_path):
        # auto-delay window too short to contain an alignment maximum
        code = run_cli("classical-linear", "--molecule", "n2", "--temp-K", "50",
                       "--P1", "5", "--P2", "5", "--delay", "auto",
                       "--n-traj", "200", "--t-max", "0.002",
                       "--dt-out", "0.001", "--out", str(tmp_path))
        assert code == 3

    def test_internal_key_error_propagates(self, tmp_path, monkeypatch):
        # a KeyError inside a runner is a bug, not a configuration error
        def broken(cfg):
            raise KeyError("missing-channel")

        monkeypatch.setattr(cli.ensemble, "run_protocol", broken)
        with pytest.raises(KeyError, match="missing-channel"):
            run_cli("classical-linear", "--out", str(tmp_path))

    @pytest.mark.parametrize("command, flag, value", [
        ("classical-linear", "--temp-K", "nan"),
        ("classical-symtop", "--P1", "nan"),
        ("classical-linear", "--P1", "inf"),
        ("classical-linear", "--t-max", "-1"),
        ("classical-linear", "--t-max", "nan"),
        ("classical-linear", "--dt-out", "inf"),
        ("classical-linear", "--delay", "nan"),
        ("quantum-linear", "--delay", "inf"),
        *((command, flag, value)
          for command in ("quantum-linear", "quantum-symtop", "compare")
          for flag, value in (("--dt-out", "0"), ("--dt-out", "inf"), ("--t-max", "nan"),
                              ("--dt-out", "-0.01"), ("--t-max", "-1"))),
        *((command, "--temp-K", value)
          for command in ("quantum-linear", "quantum-symtop") for value in ("inf", "nan")),
    ])
    def test_non_finite_or_negative_run_parameters(self, tmp_path, command, flag, value):
        molecule = "n2" if command.endswith("linear") else "benzene"
        args = {"--temp-K": "5", "--P1": "2", "--P2": "2", "--delay": "0.02",
                "--t-max": "0.05", "--dt-out": "0.01"}
        if command in ("quantum-symtop", "compare"):
            del args["--delay"]     # these benzene scans reject a numeric delay
        args[flag] = value
        argv = [command, "--molecule", molecule, *n_traj(command, "50"), "--out", str(tmp_path)]
        for k, v in args.items():
            argv += [k, v]
        assert run_cli(*argv) == 2
        assert not (tmp_path / "timeseries.csv").exists()
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value) for command, (_, _, honoured) in cli.COMMANDS.items()
        for flag in honoured if cli.FLAGS[flag].get("type") is cli.finite
        for value in ("nan", "inf", "-inf")])
    def test_every_float_flag_must_be_finite(self, tmp_path, capsys, command, flag, value):
        # the flag is rejected however the rest of the run would have gone
        assert run_cli(command, "--P2", "1", f"{flag}={value}", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "invalid finite value" in err and "Traceback" not in err
        assert not (tmp_path / "manifest.json").exists()

    def test_negative_exponent_value_as_separate_token(self, tmp_path):
        # argparse's own negative-number pattern would read "-1e-1" as a flag
        argv = ["classical-linear", "--n-traj", "50", "--t-max", "0.05", "--dt-out", "0.01"]
        assert run_cli(*argv, "--P1", "-1e-1", "--out", str(tmp_path / "token")) == 0
        assert run_cli(*argv, "--P1=-1e-1", "--out", str(tmp_path / "joined")) == 0
        assert ((tmp_path / "token" / "timeseries.csv").read_bytes()
                == (tmp_path / "joined" / "timeseries.csv").read_bytes())

    def test_negative_infinity_as_separate_token(self, tmp_path, capsys):
        # "-inf" reaches the type as a value, which rejects it
        assert run_cli("classical-linear", "--P1", "-inf", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "invalid finite value" in err and "Traceback" not in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["quantum-symtop", "compare"])
    @pytest.mark.parametrize("delay", ["0.05", "0", "nan"])
    def test_numeric_delay_rejected_where_every_delay_is_scanned(self, tmp_path,
                                                                 command, delay):
        # the benzene quantum run and compare scan the whole output grid of delays
        argv = [command, "--molecule", "benzene", "--temp-K", "0.9", "--P1", "-1",
                "--P2", "-1", *n_traj(command, "50"), "--t-max", "0.01", "--dt-out", "0.005",
                "--out", str(tmp_path)]
        assert run_cli(*argv, "--delay", delay) == 2
        assert not (tmp_path / "manifest.json").exists()
        assert run_cli(*argv, "--delay", "auto") == 0

    @pytest.mark.parametrize("flag, value", [("--angle-deg", "80"), ("--delay", "0.3")])
    @pytest.mark.parametrize("command, molecule", [
        ("classical-linear", "n2"), ("classical-symtop", "benzene"), ("quantum-linear", "n2"),
        ("quantum-symtop", "benzene"), ("density", "n2")])
    def test_second_pulse_flags_need_p2(self, tmp_path, command, molecule, flag, value):
        # without --P2 these commands fire one pulse: no angle or delay to set
        argv = [command, "--molecule", molecule, "--P1", "1", *n_traj(command, "50"),
                *grid(command, "0.02", "0.01"), "--out", str(tmp_path)]
        assert run_cli(*argv, flag, value) == 2
        assert not (tmp_path / "manifest.json").exists()
        assert run_cli(*argv) == 0

    def test_bad_propeller_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROPELLER_THREADS", "abc")
        assert run_cli("classical-linear", "--n-traj", "50", "--t-max", "0.02",
                       "--dt-out", "0.01", "--out", str(tmp_path)) == 2

    def test_success(self, tmp_path):
        code = run_cli("classical-linear", "--molecule", "n2", "--temp-K", "50",
                       "--P1", "5", "--P2", "5", "--delay", "auto",
                       "--n-traj", "500", "--seed", "1", "--t-max", "0.3",
                       "--dt-out", "0.01", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "timeseries.csv").exists()
        assert (tmp_path / "manifest.json").exists()


class TestOutputs:
    def test_csv_schema_and_determinism(self, tmp_path):
        args = ("classical-linear", "--molecule", "n2", "--temp-K", "50",
                "--P1", "5", "--P2", "5", "--delay", "auto", "--n-traj", "400",
                "--seed", "7", "--t-max", "0.2", "--dt-out", "0.01")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        fa = (a / "timeseries.csv").read_bytes()
        fb = (b / "timeseries.csv").read_bytes()
        assert fa == fb
        text = fa.decode()
        assert text.startswith(f"# propeller-sim v{__version__}\n")
        header = text.split("\n")[1].split(",")
        assert header[0] == "t_trev" and "cos2theta" in header

    def test_csv_round_trip(self, tmp_path):
        assert run_cli("classical-linear", "--molecule", "n2", "--temp-K", "10",
                       "--P1", "3", "--n-traj", "300", "--t-max", "0.1",
                       "--dt-out", "0.02", "--out", str(tmp_path)) == 0
        ts = read_timeseries_csv(tmp_path / "timeseries.csv")
        assert len(ts.grid) == 6
        assert np.all(ts.channels["cos2theta"] >= 0)

    def test_manifest_round_trip(self, tmp_path):
        assert run_cli("classical-linear", "--molecule", "n2", "--temp-K", "50",
                       "--P1", "5", "--n-traj", "300", "--t-max", "0.1",
                       "--dt-out", "0.02", "--seed", "5", "--out", str(tmp_path)) == 0
        m = read_manifest(tmp_path / "manifest.json")
        assert m.seed == 5
        assert m.outputs == ["timeseries.csv"]
        # round trip: re-serializing parses back to the identical config
        clone = read_manifest(tmp_path / "manifest.json")
        assert json.loads(m.to_json())["config"] == json.loads(clone.to_json())["config"]
        rewritten = tmp_path / "manifest2.json"
        m.write(rewritten)
        assert read_manifest(rewritten).config == m.config

    def test_json_format(self, tmp_path):
        assert run_cli("classical-linear", "--molecule", "n2", "--temp-K", "10",
                       "--P1", "3", "--n-traj", "200", "--t-max", "0.1",
                       "--dt-out", "0.05", "--format", "json",
                       "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "timeseries.json").read_text())
        assert doc["version"] == __version__
        assert "cos2theta" in doc["channels"]

    def test_density_file_format(self, tmp_path):
        assert run_cli("density", "--molecule", "n2", "--temp-K", "0",
                       "--P1", "10", "--n-traj", "400", "--seed", "3",
                       "--sigma-kde", "0.1", "--out", str(tmp_path)) == 0
        text = (tmp_path / "density.csv").read_text().split("\n")
        assert len([ln for ln in text[:8] if ln.startswith("#")]) == 8
        theta, phi, rho, header = read_density_text(tmp_path / "density.csv")
        assert rho.shape == (181, 360)
        assert np.all(rho >= 0)
        m = read_manifest(tmp_path / "manifest.json")
        assert abs(m.config["result_density_integral"] - 1.0) < 1e-3

    def test_density_manifest_diagnostics(self, tmp_path):
        assert run_cli("density", "--molecule", "n2", "--temp-K", "50",
                       "--P1", "5", "--n-traj", "300", "--seed", "4",
                       "--out", str(tmp_path)) == 0
        m = read_manifest(tmp_path / "manifest.json")
        belt = m.diagnostics["belt_average"]
        assert belt["path"] in ("direct", "spectral")
        assert belt["n_live"] + belt["n_rest"] == 300
        assert belt["l_max"] > 0 and belt["spectrum_tail"] >= 0.0
        assert belt["clamped_min"] <= 0.0
        assert not any(k.startswith("result_diagnostics") for k in m.config)

    def test_classical_manifest_free_flight(self, tmp_path):
        assert run_cli("classical-linear", "--molecule", "n2", "--temp-K", "50",
                       "--P1", "5", "--P2", "5", "--n-traj", "300", "--seed", "4",
                       "--t-max", "0.2", "--dt-out", "0.01", "--out", str(tmp_path)) == 0
        m = read_manifest(tmp_path / "manifest.json")
        flight = m.diagnostics["free_flight"]
        assert flight["n_traj"] == 300 and flight["threads"] == 1
        assert sum(seg["n_times"] for seg in flight["segments"]) == 21
        assert "free_flight" not in m.truncation
        assert not any(k.startswith("result_diagnostics") for k in m.config)

    def test_quantum_linear_run(self, tmp_path):
        code = run_cli("quantum-linear", "--molecule", "n2", "--temp-K", "0",
                       "--P1", "2", "--P2", "2", "--delay", "0.05",
                       "--t-max", "0.2", "--dt-out", "0.01", "--out", str(tmp_path))
        assert code == 0
        ts = read_timeseries_csv(tmp_path / "timeseries.csv")
        assert ts.channels["cos2theta"][0] == pytest.approx(1 / 3, abs=1e-8)

    def test_quantum_symtop_run(self, tmp_path):
        code = run_cli("quantum-symtop", "--molecule", "benzene", "--temp-K", "0.9",
                       "--P1", "-3", "--P2", "-3", "--angle-deg", "-45",
                       "--l-max", "30", "--t-max", "0.08", "--dt-out", "0.005",
                       "--out", str(tmp_path))
        assert code == 0
        align = read_timeseries_csv(tmp_path / "alignment.csv")
        assert align.channels["cos2theta"].min() < 1 / 3
        assert (tmp_path / "delayscan.csv").exists()

    def test_quantum_symtop_manifest_diagnostics(self, tmp_path):
        assert run_cli("quantum-symtop", "--molecule", "benzene", "--temp-K", "0.9",
                       "--P1", "-3", "--P2", "-2", "--angle-deg", "-45",
                       "--t-max", "0.05", "--dt-out", "0.005",
                       "--out", str(tmp_path)) == 0
        m = read_manifest(tmp_path / "manifest.json")
        assert set(m.truncation) == {"J_max", "J_max_two_pulse", "headroom_tail"}
        diag = m.diagnostics["quantum_symtop"]
        assert set(diag) == {"K_limit", "n_initial_states", "weight_truncation",
                             "alignment", "delay_curve"}
        assert diag["K_limit"] == 7 and diag["n_initial_states"] == 394
        assert 0.0 < diag["weight_truncation"] < 1e-4
        run_keys = {"J_max", "n_blocks", "max_block_dim", "headroom_tail", "distinct_freqs"}
        assert set(diag["alignment"]) == run_keys
        assert set(diag["delay_curve"]) == run_keys
        for name, J_max in (("alignment", m.truncation["J_max"]),
                            ("delay_curve", m.truncation["J_max_two_pulse"])):
            run = diag[name]
            assert run["J_max"] == J_max and run["max_block_dim"] == J_max + 1
            assert run["n_blocks"] > 0 and run["distinct_freqs"] > 0
            assert 0.0 <= run["headroom_tail"] <= 1e-10
        assert diag["alignment"]["headroom_tail"] == m.truncation["headroom_tail"]
        assert not any(k.startswith("result_diagnostics") for k in m.config)

    @pytest.mark.parametrize("command", ["quantum-symtop", "compare"])
    def test_symtop_run_diagonalises_each_block_once(self, tmp_path, monkeypatch, command):
        # the alignment on the delay grid is the delay curve's cos2theta, so
        # one pulse-1 pass kicks every K: as many eigensolves as the run's blocks
        calls, eigh = [], np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == quantum_symtop.__name__:
                calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        assert run_cli(command, "--molecule", "benzene", "--temp-K", "0.9", "--P1", "-4",
                       "--P2", "-4", "--angle-deg", "-45", "--t-max", "0.05",
                       "--dt-out", "0.005", *n_traj(command, "200"),
                       "--out", str(tmp_path)) == 0
        diag = read_manifest(tmp_path / "manifest.json").diagnostics["quantum_symtop"]
        assert diag["alignment"]["n_blocks"] == diag["delay_curve"]["n_blocks"] > 0
        assert len(calls) == diag["delay_curve"]["n_blocks"]

    @pytest.mark.parametrize("P", ["-1", "-2"])
    def test_quantum_symtop_weak_kicks_at_zero_temperature(self, tmp_path, P):
        assert run_cli("quantum-symtop", "--molecule", "benzene", "--temp-K", "0",
                       "--P1", P, "--P2", P, "--t-max", "0.15", "--dt-out", "0.0005",
                       "--out", str(tmp_path)) == 0

    def test_quantum_symtop_headroom_exit_code(self, tmp_path):
        code = run_cli("quantum-symtop", "--molecule", "benzene", "--temp-K", "0.9",
                       "--l-max", "12", "--P1", "-4", "--P2", "-4",
                       "--t-max", "0.05", "--dt-out", "0.005", "--out", str(tmp_path))
        assert code == 3
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command, molecule", [("quantum-linear", "n2"),
                                                   ("quantum-symtop", "benzene")])
    @pytest.mark.parametrize("l_max", ["0", "3"])
    def test_basis_below_headroom_band_is_rejected(self, tmp_path, command, molecule, l_max):
        # a basis no larger than the headroom band can never pass its check
        delay = ["--delay", "0.02"] if command == "quantum-linear" else []
        code = run_cli(command, "--molecule", molecule, "--temp-K", "0", "--P1", "0.01",
                       "--P2", "0.01", *delay, "--t-max", "0.05",
                       "--dt-out", "0.01", "--l-max", l_max, "--out", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command, molecule", [("quantum-linear", "n2"),
                                                   ("quantum-symtop", "benzene")])
    def test_huge_finite_temperature_is_rejected(self, tmp_path, command, molecule):
        # the thermal sum stops at its J limit instead of growing without end
        code = run_cli(command, "--molecule", molecule, "--temp-K", "1e9", "--P1", "2",
                       "--t-max", "0.01", "--dt-out", "0.005", "--out", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "manifest.json").exists()

    def test_state_batch_is_bounded_before_it_is_allocated(self, tmp_path):
        # N2 at 7,000 K keeps J <= 149, and at P = 2 thermal_run's dense
        # batch would be 28,900 x 11,325 complex even with the xz-plane
        # mirror (4.9 GiB; 9.7 GiB for all 22,500 states): exit 2 at once
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = run_cli("quantum-linear", "--molecule", "n2", "--temp-K", "7000",
                           "--P1", "2", "--t-max", "0.01", "--dt-out", "0.005",
                           "--out", str(tmp_path))
            elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and elapsed < 1.0 and peak < 2 ** 24
        assert not (tmp_path / "manifest.json").exists()

    def test_pulse1_pass_is_bounded_before_it_is_allocated(self, tmp_path, capsys):
        # benzene at 1,100 K, near the warmest temperature the thermal list
        # accepts: at P = -1 (J_max = 308) the K = 0 pass would hold Omega on
        # 311 blocks of 311 x 311 and the amplitudes of every K = 0 state,
        # 431 MiB by _pass_bytes, over STATE_BATCH_BYTES: exit 2 at once
        start = time.perf_counter()
        code = run_cli("quantum-symtop", "--molecule", "benzene", "--temp-K", "1100",
                       "--P1", "-1", "--P2", "-1", "--t-max", "0.01", "--dt-out", "0.005",
                       "--out", str(tmp_path))
        assert code == 2 and time.perf_counter() - start < 1.0
        assert "pulse-1 pass needs 431 MiB at K=0, J_max=308" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command, molecule, sections", [
        ("classical-linear", "n2", {"free_flight"}),
        ("classical-symtop", "benzene", {"free_flight"}),
        ("quantum-linear", "n2", {"quantum_linear"}),
        ("quantum-symtop", "benzene", {"quantum_symtop"}),
        ("density", "n2", {"belt_average"}),
        ("compare", "n2", {"free_flight", "quantum_linear"}),
        ("compare", "benzene", {"free_flight", "quantum_symtop"}),
    ])
    def test_manifest_diagnostics_not_empty(self, tmp_path, command, molecule, sections):
        P = "2" if molecule == "n2" else "-1"
        # the benzene delay scans take no numeric delay
        scanned = molecule == "benzene" and command in ("quantum-symtop", "compare")
        delay = [] if scanned else ["--delay", "0.02"]
        assert run_cli(command, "--molecule", molecule, "--temp-K", "0.9",
                       "--P1", P, "--P2", P, *delay, *n_traj(command, "100"),
                       *grid(command, "0.05", "0.01"), "--out", str(tmp_path)) == 0
        m = read_manifest(tmp_path / "manifest.json")
        assert set(m.diagnostics) == sections
        assert all(m.diagnostics.values())
        if "quantum_linear" in sections:
            diag = m.diagnostics["quantum_linear"]
            assert set(diag) == {"l_max", "n_initial_states", "n_columns",
                                 "weight_truncation", "n_blocks", "max_block_dim",
                                 "headroom_tail"}
            # both pulses lie in the xz plane: the m0 >= 0 columns of l0 <= J0 ran
            J0 = math.isqrt(diag["n_initial_states"]) - 1
            assert diag["n_columns"] == (J0 + 1) * (J0 + 2) // 2 < diag["n_initial_states"]
            # the pulse-frame blocks m = 0..l_max, shared by the two equal kicks
            assert diag["max_block_dim"] == diag["l_max"] + 1
            assert diag["n_blocks"] == diag["l_max"] + 1

    def test_preset_fig3a(self, tmp_path):
        assert run_cli("preset", "fig3a", "--n-traj", "500",
                       "--out", str(tmp_path)) == 0
        m = read_manifest(tmp_path / "manifest.json")
        assert set(m.outputs) == {"density.csv", "profile.csv"}
        prof = read_timeseries_csv(tmp_path / "profile.csv")
        assert "rho_analytic" in prof.channels

    def test_preset_fig5_small(self, tmp_path):
        assert run_cli("preset", "fig5", "--n-traj", "800",
                       "--out", str(tmp_path)) == 0
        m = read_manifest(tmp_path / "manifest.json")
        assert len(m.outputs) == 8
        assert (tmp_path / "extrema.csv").exists()
        flight = m.diagnostics["free_flight"]
        assert sorted(flight) == ["P1", "P10", "P3"]
        assert all(f["segments"][0]["n_times"] == 241 for f in flight.values())

    @pytest.mark.parametrize("name, sections", [
        ("fig6", {"quantum_symtop"}),
        ("fig7", {"free_flight", "quantum_symtop"}),
    ])
    def test_preset_quantum_symtop_diagnostics(self, tmp_path, name, sections):
        # fig6 runs quantum-symtop, which samples no molecules to count
        size = [] if name == "fig6" else ["--n-traj", "200"]
        assert run_cli("preset", name, *size, "--out", str(tmp_path)) == 0
        m = read_manifest(tmp_path / "manifest.json")
        assert set(m.diagnostics) == sections
        for section in sections:
            assert sorted(m.diagnostics[section]) == ["P1", "P10", "P3"]
        for diag in m.diagnostics["quantum_symtop"].values():
            assert {"K_limit", "n_initial_states", "weight_truncation",
                    "alignment", "delay_curve"} <= set(diag)
            # pulse 2 acts on the observables, so pulse 1's tail is the only one
            assert set(diag["delay_curve"]) == set(diag["alignment"])
            assert 0.0 <= diag["delay_curve"]["headroom_tail"] <= 1e-10

    def test_compare_linear(self, tmp_path):
        code = run_cli("compare", "--molecule", "n2", "--temp-K", "50",
                       "--P1", "5", "--P2", "5", "--n-traj", "2000", "--seed", "2",
                       "--t-max", "0.25", "--dt-out", "0.005", "--out", str(tmp_path))
        assert code == 0
        ts = read_timeseries_csv(tmp_path / "compare.csv")
        assert "cos2phi_classical" in ts.channels and "cos2phi_quantum" in ts.channels
        m = read_manifest(tmp_path / "manifest.json")
        assert "cos2phi" in m.config["result_max_abs_deviation"]
        assert m.diagnostics["free_flight"]["n_traj"] == 2000

    @pytest.mark.parametrize("argv, n_rows", [
        (("--molecule", "n2", "--temp-K", "50", "--P1", "5", "--P2", "5", "--n-traj", "500",
          "--t-max", "0.1", "--dt-out", "0.002"), 41),
        (("--molecule", "n2", "--temp-K", "50", "--P1", "5", "--P2", "5", "--n-traj", "500",
          "--t-max", "0.0205", "--dt-out", "0.001"), 1),
        (("--molecule", "benzene", "--temp-K", "0.9", "--P1", "-3", "--P2", "-3",
          "--angle-deg", "-45", "--n-traj", "500", "--t-max", "0.05", "--dt-out", "0.0025"), 21),
        (("--molecule", "benzene", "--temp-K", "0.9", "--P1", "-3", "--P2", "-3",
          "--n-traj", "50", "--t-max", "0"), 1),
    ], ids=["n2", "n2_one_time_after_pulse2", "benzene", "benzene_one_delay"])
    def test_compare_deviation_is_the_maximum_of_the_file(self, tmp_path, argv, n_rows):
        # N2 compares the times from the second pulse on, benzene every delay;
        # the file holds 11 significant digits, so each deviation read back
        # is within 1e-10 of the manifest's
        assert run_cli("compare", *argv, "--out", str(tmp_path)) == 0
        config = read_manifest(tmp_path / "manifest.json").config
        ts = read_timeseries_csv(tmp_path / "compare.csv")
        rows = ts.grid >= config.get("result_delay_trev", -math.inf)
        assert np.count_nonzero(rows) == n_rows
        deviation = config["result_max_abs_deviation"]
        assert len(deviation) == 2
        for name, value in deviation.items():
            gap = np.abs(ts.channels[f"{name}_classical"] - ts.channels[f"{name}_quantum"])
            assert value == pytest.approx(gap[rows].max(), rel=0, abs=1e-10), name

    def test_fig5_extrema_are_read_from_the_delay_scans(self, tmp_path):
        # t_min and cos2theta_min at the first local minimum of cos2theta,
        # t_opt at the first local maximum of |Ly|; at 500 molecules the peak
        # of |Ly| and that of Ly_norm lie at different delays for every P
        def first(v):
            return np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))[0] + 1

        assert run_cli("preset", "fig5", "--n-traj", "500", "--out", str(tmp_path)) == 0
        extrema = read_timeseries_csv(tmp_path / "extrema.csv")
        assert list(extrema.grid) == [-1.0, -3.0, -10.0]
        for i, P in enumerate((1, 3, 10)):
            scan = read_timeseries_csv(tmp_path / f"delayscan_P{P}.csv")
            k_min, k_opt = first(-scan.channels["cos2theta"]), first(np.abs(scan.channels["Ly"]))
            assert k_opt != first(np.abs(scan.channels["Ly_norm"]))
            assert extrema.channels["t_min_trev"][i] == scan.grid[k_min]
            assert extrema.channels["cos2theta_min"][i] == scan.channels["cos2theta"][k_min]
            assert extrema.channels["t_opt_trev"][i] == scan.grid[k_opt]

    @pytest.mark.parametrize("pulse2", [(), ("--P2", "2", "--delay", "0.05")],
                             ids=["one-pulse", "fixed-delay"])
    def test_density_rejects_a_window_without_an_auto_pulse(self, tmp_path, pulse2):
        # density's --t-max bounds only the --delay auto search, so without an
        # auto second pulse it would change nothing
        base = ("density", "--molecule", "n2", "--temp-K", "5", "--P1", "2",
                "--n-traj", "20", *pulse2)
        code = run_cli(*base, "--t-max", "0.001", "--out", str(tmp_path / "window"))
        assert code == 2
        assert not (tmp_path / "window" / "manifest.json").exists()
        # without it the run records the default window
        assert run_cli(*base, "--out", str(tmp_path / "plain")) == 0
        assert read_manifest(tmp_path / "plain" / "manifest.json").config["t_max"] == 5.0

    @pytest.mark.parametrize("window", [("--delay", "2.0", "--t-max", "0.1"),
                                        ("--delay", "0.05", "--t-max", "0.1", "--dt-out", "0.2")])
    def test_compare_needs_an_output_time_after_the_second_pulse(self, tmp_path, window):
        # the deviation is taken after the second pulse: with no grid time
        # there, there is nothing to compare
        code = run_cli("compare", "--molecule", "n2", "--temp-K", "0", "--P1", "1",
                       "--n-traj", "50", *window, "--out", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "manifest.json").exists()


class TestFlagTable:
    """Each subcommand takes only the flags that it honours.

    A flag outside a command's row of cli.COMMANDS exits 2 before anything
    runs.  A flag inside it, set to a probe value, changes the bytes of a
    data file or the exit code against a base run.  The one exception is
    --seed on the quantum commands, which only record it as the manifest's
    seed.  --out is not probed: every run here is read back from its --out.
    """

    BASE = {
        "classical-linear": "--molecule n2 --temp-K 5 --P1 2 --P2 2 --n-traj 50 "
                            "--t-max 0.1 --dt-out 0.01",
        "classical-symtop": "--molecule benzene --temp-K 0.9 --P1 -1 --P2 -1 --n-traj 50 "
                            "--t-max 0.1 --dt-out 0.01",
        "quantum-linear": "--molecule n2 --temp-K 5 --P1 2 --P2 2 --t-max 0.1 --dt-out 0.01",
        "quantum-symtop": "--molecule benzene --temp-K 0.9 --P1 -1 --P2 -1 "
                          "--t-max 0.1 --dt-out 0.01",
        # --t-max bounds only the auto-delay search, so the base fires --P2
        "density": "--molecule n2 --temp-K 5 --P1 2 --P2 2 --n-traj 5",
        "compare": "--molecule n2 --temp-K 5 --P1 2 --P2 2 --n-traj 50 "
                   "--t-max 0.1 --dt-out 0.01",
    }
    # at T = 0 a classical linear run does not depend on B, so the bases are warm
    PROBES = {"--angle-deg": "80", "--delay": "0.02", "--n-traj": "60", "--seed": "2",
              "--t-max": "0.08", "--dt-out": "0.02", "--sigma-kde": "0.2",
              "--l-max": "3", "--format": "json"}
    LINEAR = {"--molecule": "custom:1.5", "--temp-K": "8", "--P1": "3", "--P2": "3"}
    SYMTOP = {"--molecule": "custom:0.2,0.1", "--temp-K": "2", "--P1": "-2", "--P2": "-2"}

    @staticmethod
    def _run(command, argv, out):
        code = run_cli(command, *argv, "--out", str(out))
        files = {p.name: p.read_bytes() for p in out.glob("*") if p.name != "manifest.json"}
        return code, files

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_flag_is_honoured_or_rejected(self, tmp_path, command):
        honoured = cli.COMMANDS[command][2]
        probes = {**self.PROBES, **(self.SYMTOP if "benzene" in self.BASE[command]
                                    else self.LINEAR)}
        if command == "density":
            probes["--t-max"] = "0.002"     # too short for the alignment maximum: exit 3
        base = self.BASE[command].split()
        reference = self._run(command, base, tmp_path / "base")
        assert reference[0] == 0 and reference[1]
        for flag in cli.FLAGS:
            if flag == "--out":
                continue
            out = tmp_path / flag.lstrip("-")
            probe = self._run(command, [*base, flag, probes[flag]], out)
            if flag not in honoured:
                assert probe == (2, {}), flag
                assert not (out / "manifest.json").exists(), flag
            elif flag == "--seed" and command.startswith("quantum"):
                assert probe == reference
                assert read_manifest(out / "manifest.json").seed == 2
            else:
                assert probe != reference, flag

    def test_preset_rejects_a_molecule_count_it_cannot_use(self, tmp_path):
        # fig6 runs quantum-symtop, which samples no molecules
        assert run_cli("preset", "fig6", "--n-traj", "5", "--out", str(tmp_path)) == 2
        assert not (tmp_path / "manifest.json").exists()
