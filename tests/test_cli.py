import json

import numpy as np
import pytest

from oracles import read_manifest
from propeller_sim import __version__, cli
from propeller_sim.cli import main, parse_molecule
from propeller_sim.core import ParameterError
from propeller_sim.io_formats import read_density_text, read_timeseries_csv


def run_cli(*args) -> int:
    return main(list(args))


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
        def broken(args, out_dir):
            raise KeyError("missing-channel")

        monkeypatch.setattr(cli, "cmd_classical", broken)
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
        *((command, flag, value)
          for command in ("quantum-linear", "quantum-symtop", "compare")
          for flag, value in (("--dt-out", "0"), ("--dt-out", "inf"), ("--t-max", "nan"),
                              ("--dt-out", "-0.01"), ("--t-max", "-1"))),
    ])
    def test_non_finite_or_negative_run_parameters(self, tmp_path, command, flag, value):
        molecule = "n2" if command.endswith("linear") else "benzene"
        args = {"--temp-K": "5", "--P1": "2", "--P2": "2", "--delay": "0.02",
                "--t-max": "0.05", "--dt-out": "0.01"}
        if command in ("quantum-symtop", "compare"):
            del args["--delay"]     # these benzene scans reject a numeric delay
        args[flag] = value
        argv = [command, "--molecule", molecule, "--n-traj", "50", "--out", str(tmp_path)]
        for k, v in args.items():
            argv += [k, v]
        assert run_cli(*argv) == 2
        assert not (tmp_path / "timeseries.csv").exists()
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["quantum-symtop", "compare"])
    @pytest.mark.parametrize("delay", ["0.05", "0", "nan"])
    def test_numeric_delay_rejected_where_every_delay_is_scanned(self, tmp_path,
                                                                 command, delay):
        # the benzene quantum run and compare scan the whole output grid of delays
        argv = [command, "--molecule", "benzene", "--temp-K", "0.9", "--P1", "-1",
                "--P2", "-1", "--n-traj", "50", "--t-max", "0.01", "--dt-out", "0.005",
                "--out", str(tmp_path)]
        assert run_cli(*argv, "--delay", delay) == 2
        assert not (tmp_path / "manifest.json").exists()
        assert run_cli(*argv, "--delay", "auto") == 0

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
        run_keys = {"J_max", "n_blocks", "max_block_dim", "headroom_tail_pulse1",
                    "distinct_freqs"}
        assert set(diag["alignment"]) == run_keys
        assert set(diag["delay_curve"]) == run_keys | {"headroom_tail_pulse2"}
        for name, J_max in (("alignment", m.truncation["J_max"]),
                            ("delay_curve", m.truncation["J_max_two_pulse"])):
            run = diag[name]
            assert run["J_max"] == J_max and run["max_block_dim"] == J_max + 1
            assert run["n_blocks"] > 0 and run["distinct_freqs"] > 0
            assert 0.0 <= run["headroom_tail_pulse1"] <= 1e-10
        assert diag["alignment"]["headroom_tail_pulse1"] == m.truncation["headroom_tail"]
        assert 0.0 < diag["delay_curve"]["headroom_tail_pulse2"] <= 1e-10
        assert not any(k.startswith("result_diagnostics") for k in m.config)

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
                       "--P1", P, "--P2", P, *delay, "--n-traj", "100",
                       "--t-max", "0.05", "--dt-out", "0.01", "--out", str(tmp_path)) == 0
        m = read_manifest(tmp_path / "manifest.json")
        assert set(m.diagnostics) == sections
        assert all(m.diagnostics.values())
        if "quantum_linear" in sections:
            diag = m.diagnostics["quantum_linear"]
            assert set(diag) == {"l_max", "n_initial_states", "weight_truncation",
                                 "n_blocks", "max_block_dim", "headroom_tail"}
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
        assert run_cli("preset", name, "--n-traj", "200", "--out", str(tmp_path)) == 0
        m = read_manifest(tmp_path / "manifest.json")
        assert set(m.diagnostics) == sections
        for section in sections:
            assert sorted(m.diagnostics[section]) == ["P1", "P10", "P3"]
        for diag in m.diagnostics["quantum_symtop"].values():
            assert {"K_limit", "n_initial_states", "weight_truncation",
                    "alignment", "delay_curve"} <= set(diag)
            assert 0.0 < diag["delay_curve"]["headroom_tail_pulse2"] <= 1e-10

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
