"""Command-line front end.

Subcommands
-----------
classical-linear | classical-symtop
    Monte Carlo double-pulse runs; writes a time-series file and manifest.
quantum-linear
    Thermal wave-packet run in the classical frame.
quantum-symtop
    Thermal symmetric-top run: alignment trace and (with --P2) a delay scan
    over the output grid, so --delay must stay auto.
density
    Classical run followed by the time-averaged belt density grid.
compare
    Classical-vs-quantum harness on a common grid with a deviation summary;
    for a symmetric top it compares delay scans, so --delay must stay auto.
preset
    Canned parameter sets fig2, fig3a, fig3b, fig4, fig5, fig6, fig7.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Times are in units of T_rev throughout.  PROPELLER_THREADS (a positive
integer) caps the trajectory-evaluation thread count of the Monte Carlo
engine.  Classical runs record their free-flight layout under
diagnostics.free_flight in manifest.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, density, ensemble, io_formats, quantum_linear, quantum_symtop
from .core import (IntegrationError, MoleculeParams, ParameterError,
                   ProtocolError, PulseSpec, TruncationError, benzene, nitrogen)
from .ensemble import EnsembleConfig, TimeSeries

SCAN_TREV = 1.0 / 2000.0


def parse_molecule(text: str) -> MoleculeParams:
    if text == "n2":
        return nitrogen()
    if text == "benzene":
        return benzene()
    if text.startswith("custom:"):
        parts = text[len("custom:"):].split(",")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ParameterError(f"cannot parse molecule spec {text!r}") from None
        if len(values) == 1:
            return MoleculeParams(kind="linear", B_cm1=values[0])
        if len(values) == 2:
            return MoleculeParams(kind="oblate-symtop", B_cm1=values[0],
                                  C_cm1=values[1], delta_alpha_sign=-1)
        raise ParameterError(f"molecule spec {text!r} needs B or B,C")
    raise ParameterError(f"unknown molecule {text!r} (use n2, benzene or custom:B[,C])")


def parse_delay(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise ParameterError(f"--delay must be 'auto' or a time in T_rev, got {text!r}") from None


def _add_common(sub):
    sub.add_argument("--molecule", default="n2")
    sub.add_argument("--temp-K", type=float, default=0.0)
    sub.add_argument("--P1", type=float, default=5.0)
    sub.add_argument("--P2", type=float, default=None)
    sub.add_argument("--angle-deg", type=float, default=45.0)
    sub.add_argument("--delay", default="auto")
    sub.add_argument("--n-traj", type=int, default=10000)
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--t-max", type=float, default=5.0)
    sub.add_argument("--dt-out", type=float, default=0.005)
    sub.add_argument("--sigma-kde", type=float, default=0.1)
    sub.add_argument("--l-max", type=int, default=None)
    sub.add_argument("--out", required=True)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="propeller-sim",
                                 description="double-pulse molecular rotation simulator")
    ap.add_argument("--version", action="version", version=f"propeller-sim {__version__}")
    subs = ap.add_subparsers(dest="command", required=True)
    for name in ("classical-linear", "classical-symtop", "quantum-linear",
                 "quantum-symtop", "density", "compare"):
        _add_common(subs.add_parser(name))
    pre = subs.add_parser("preset")
    pre.add_argument("name", choices=("fig2", "fig3a", "fig3b", "fig4",
                                      "fig5", "fig6", "fig7"))
    pre.add_argument("--out", required=True)
    pre.add_argument("--seed", type=int, default=1)
    pre.add_argument("--n-traj", type=int, default=None)
    return ap


def _pulses_from_args(args) -> tuple:
    pulses = [PulseSpec(P=args.P1, p=(0.0, 0.0, 1.0), t_apply=0.0)]
    if args.P2 is not None:
        a = math.radians(args.angle_deg)
        pulses.append(PulseSpec.along(args.P2, (math.sin(a), 0.0, math.cos(a)),
                                      t_apply=parse_delay(str(args.delay))))
    return tuple(pulses)


def _ensemble_config(args, mol: MoleculeParams) -> EnsembleConfig:
    return EnsembleConfig(mol=mol, T_K=args.temp_K, n_traj=args.n_traj,
                          seed=args.seed, pulses=_pulses_from_args(args),
                          t_max=args.t_max, dt_out=args.dt_out)


def _write_series(out_dir: Path, name: str, ts: TimeSeries, fmt: str,
                  time_column: str = "t_trev") -> str:
    fname = f"{name}.{fmt}"
    if fmt == "csv":
        io_formats.write_timeseries_csv(out_dir / fname, ts, time_column)
    else:
        io_formats.write_timeseries_json(out_dir / fname, ts, time_column)
    return fname


def _check_pairing(args, mol: MoleculeParams):
    wants_linear = args.command.endswith("linear")
    if wants_linear and mol.kind != "linear":
        raise ParameterError(f"{args.command} requires a linear molecule, got {mol.kind}")
    if args.command.endswith("symtop") and mol.kind != "oblate-symtop":
        raise ParameterError(f"{args.command} requires an oblate-symtop molecule, got {mol.kind}")


def _check_delay_scanned(args):
    """A delay scan covers every delay of the output grid: a numeric --delay
    would be ignored, so it is rejected."""
    if parse_delay(str(args.delay)) != "auto":
        raise ParameterError(f"--delay {args.delay} cannot be honoured: {args.command} "
                             "scans every delay of the output grid (use --delay auto)")


def cmd_classical(args, out_dir: Path):
    mol = parse_molecule(args.molecule)
    _check_pairing(args, mol)
    cfg = _ensemble_config(args, mol)
    ts = ensemble.run_protocol(cfg)
    files = [_write_series(out_dir, "timeseries", ts, args.format)]
    extra = {"config": ts.meta["config"],
             "diagnostics": {"free_flight": ts.meta["free_flight"]}}
    return files, ts.meta.get("auto_delay_trev"), extra


def cmd_quantum_linear(args, out_dir: Path):
    mol = parse_molecule(args.molecule)
    _check_pairing(args, mol)
    ts = quantum_linear.thermal_run(mol, args.temp_K, _pulses_from_args(args),
                                    t_max=args.t_max, dt_out=args.dt_out,
                                    l_max=args.l_max)
    files = [_write_series(out_dir, "timeseries", ts, args.format)]
    trunc = {"l_max": ts.meta["l_max"], "headroom_tail": ts.meta["headroom_tail"],
             "weight_truncation": ts.meta["weight_truncation"]}
    extra = {"revival_avg": ts.meta["revival_avg"], "truncation": trunc,
             "diagnostics": {"quantum_linear": _linear_diagnostics(ts)}}
    return files, ts.meta.get("auto_delay_trev"), extra


def _linear_diagnostics(ts: TimeSeries) -> dict:
    """diagnostics.quantum_linear: basis size, thermal set, kick blocks and headroom."""
    return {k: ts.meta[k] for k in ("l_max", "n_initial_states", "weight_truncation",
                                    "n_blocks", "max_block_dim", "headroom_tail")}


def _symtop_diagnostics(runs: dict) -> dict:
    """diagnostics.quantum_symtop: the thermal set, then each run's blocks and headroom."""
    diag = {k: runs["alignment"].meta[k]
            for k in ("K_limit", "n_initial_states", "weight_truncation")}
    for name, ts in runs.items():
        diag[name] = {k: ts.meta[k] for k in (
            "J_max", "n_blocks", "max_block_dim", "headroom_tail_pulse1",
            "headroom_tail_pulse2", "distinct_freqs") if k in ts.meta}
    return diag


def cmd_quantum_symtop(args, out_dir: Path):
    mol = parse_molecule(args.molecule)
    _check_pairing(args, mol)
    _check_delay_scanned(args)
    grid = ensemble.output_grid(args.t_max, args.dt_out)
    align = quantum_symtop.alignment_trace(mol, args.temp_K, args.P1, grid,
                                           J_max=args.l_max)
    files = [_write_series(out_dir, "alignment", align, args.format)]
    trunc = {"J_max": align.meta["J_max"], "headroom_tail": align.meta["headroom_tail"]}
    runs = {"alignment": align}
    if args.P2 is not None:
        dphi = math.radians(args.angle_deg)
        scan = quantum_symtop.delay_curve(mol, args.temp_K, args.P1, args.P2,
                                          dphi, grid, J_max=args.l_max)
        files.append(_write_series(out_dir, "delayscan", scan, args.format,
                                   time_column="tau_trev"))
        trunc["J_max_two_pulse"] = scan.meta["J_max"]
        runs["delay_curve"] = scan
    return files, None, {"truncation": trunc,
                         "diagnostics": {"quantum_symtop": _symtop_diagnostics(runs)}}


def cmd_density(args, out_dir: Path):
    mol = parse_molecule(args.molecule)
    cfg = _ensemble_config(args, mol)
    final = ensemble.final_states(cfg)
    grid = density.belt_average(final["kind"], final["r"], final["L"], args.sigma_kde)
    moments = density.second_moments(final["r"], final["L"])
    io_formats.write_density_text(out_dir / "density.csv", grid, seed=args.seed)
    diagnostics = {k: grid.meta[k] for k in ("path", "l_max", "spectrum_tail",
                                             "synthesis_error", "clamped_min",
                                             "n_live", "n_rest")}
    extra = {"second_moments": list(moments), "density_integral": grid.integral(),
             "diagnostics": {"belt_average": diagnostics}}
    return ["density.csv"], final["meta"].get("auto_delay_trev"), extra


def cmd_compare(args, out_dir: Path):
    mol = parse_molecule(args.molecule)
    if args.P2 is None:
        args.P2 = args.P1
    if mol.kind == "linear":
        return _compare_linear(args, mol, out_dir)
    return _compare_symtop(args, mol, out_dir)


def _compare_linear(args, mol, out_dir: Path):
    cfg = _ensemble_config(args, mol)
    cl = ensemble.run_protocol(cfg)
    delay = float(cl.meta.get("auto_delay_trev", cfg.pulses[-1].t_apply))
    qpulses = (cfg.pulses[0], dataclasses.replace(cfg.pulses[1], t_apply=delay))
    qm = quantum_linear.thermal_run(mol, args.temp_K, qpulses, t_max=args.t_max,
                                    dt_out=args.dt_out, l_max=args.l_max)
    channels = {}
    summary = {}
    for name in ("cos2theta", "cos2phi"):
        cl_resampled = np.interp(qm.grid, cl.grid, cl.channels[name])
        channels[f"{name}_classical"] = cl_resampled
        channels[f"{name}_quantum"] = qm.channels[name]
        post = qm.grid >= delay
        summary[name] = float(np.max(np.abs(cl_resampled[post] - qm.channels[name][post])))
    ts = TimeSeries(grid=qm.grid, channels=channels, meta={})
    files = [_write_series(out_dir, "compare", ts, args.format)]
    extra = {"max_abs_deviation": summary, "delay_trev": delay,
             "quantum_revival_avg": qm.meta["revival_avg"],
             "diagnostics": {"free_flight": cl.meta["free_flight"],
                             "quantum_linear": _linear_diagnostics(qm)}}
    return files, delay, extra


def _compare_symtop(args, mol, out_dir: Path):
    _check_delay_scanned(args)
    taus = ensemble.output_grid(args.t_max, args.dt_out)
    cfg = _ensemble_config(args, mol)
    scan_cl = ensemble.delay_scan(cfg, taus)
    dphi = math.radians(args.angle_deg)
    align_qm = quantum_symtop.alignment_trace(mol, args.temp_K, args.P1, taus,
                                              J_max=args.l_max)
    scan_qm = quantum_symtop.delay_curve(mol, args.temp_K, args.P1, args.P2,
                                         dphi, taus, J_max=args.l_max)
    channels = {
        "cos2theta_classical": scan_cl.channels["cos2theta"],
        "cos2theta_quantum": align_qm.channels["cos2theta"],
        "Ly_norm_classical": scan_cl.channels["Ly_norm"],
        "Ly_norm_quantum": scan_qm.channels["Ly_norm"],
    }
    summary = {
        "cos2theta": float(np.max(np.abs(channels["cos2theta_classical"]
                                         - channels["cos2theta_quantum"]))),
        "Ly_norm": float(np.max(np.abs(channels["Ly_norm_classical"]
                                       - channels["Ly_norm_quantum"]))),
    }
    ts = TimeSeries(grid=taus, channels=channels, meta={})
    files = [_write_series(out_dir, "compare", ts, args.format, time_column="tau_trev")]
    quantum = _symtop_diagnostics({"alignment": align_qm, "delay_curve": scan_qm})
    return files, None, {"max_abs_deviation": summary,
                         "diagnostics": {"free_flight": scan_cl.meta["free_flight"],
                                         "quantum_symtop": quantum}}


# ---- presets ------------------------------------------------------------------


def _preset_fig2(out_dir: Path, seed: int, n_traj):
    args = argparse.Namespace(command="compare", molecule="n2", temp_K=50.0,
                              P1=5.0, P2=5.0, angle_deg=45.0, delay="auto",
                              n_traj=n_traj or 10000, seed=seed, t_max=5.0,
                              dt_out=0.002, sigma_kde=0.1, l_max=None, format="csv")
    return cmd_compare(args, out_dir)


def _density_preset(out_dir: Path, seed, n_traj, T_K, P1, P2, with_analytic):
    args = argparse.Namespace(command="density", molecule="n2", temp_K=T_K,
                              P1=P1, P2=P2, angle_deg=45.0, delay="auto",
                              n_traj=n_traj or 10000, seed=seed, t_max=5.0,
                              dt_out=0.005, sigma_kde=0.1, l_max=None, format="csv")
    files, delay, extra = cmd_density(args, out_dir)
    grid_t, _, rho, _ = io_formats.read_density_text(out_dir / "density.csv")
    profile = TimeSeries(grid=grid_t,
                         channels={"rho_phi_avg": rho.mean(axis=1)}, meta={})
    if with_analytic:
        profile.channels["rho_analytic"] = density.analytic_zero_temp(grid_t)
    io_formats.write_timeseries_csv(out_dir / "profile.csv", profile,
                                    time_column="theta")
    return files + ["profile.csv"], delay, extra


def _preset_fig5(out_dir: Path, seed: int, n_traj):
    mol = benzene()
    n = n_traj or 100000
    taus = ensemble.output_grid(0.12, SCAN_TREV)
    files, summary = [], []
    combined, free_flight = {}, {}
    for P in (-1.0, -3.0, -10.0):
        cfg = EnsembleConfig(
            mol=mol, T_K=0.9, n_traj=n, seed=seed,
            pulses=(PulseSpec(P=P, p=(0, 0, 1.0)),
                    PulseSpec.along(P, (-1.0, 0.0, 1.0), t_apply="auto")),
            t_max=0.5, dt_out=SCAN_TREV)
        scan = ensemble.delay_scan(cfg, taus)
        tag = f"P{int(abs(P))}"
        free_flight[tag] = scan.meta["free_flight"]
        align = TimeSeries(grid=taus,
                           channels={"cos2theta": scan.channels["cos2theta"]}, meta={})
        files.append(_write_series(out_dir, f"alignment_{tag}", align, "csv"))
        files.append(_write_series(out_dir, f"delayscan_{tag}", scan, "csv",
                                   time_column="tau_trev"))
        combined[f"cos2theta_{tag}"] = scan.channels["cos2theta"]
        combined[f"Ly_norm_{tag}"] = scan.channels["Ly_norm"]
        c2 = scan.channels["cos2theta"]
        k_min = ensemble.first_local_extremum(c2, "min")
        k_opt = ensemble.first_local_extremum(np.abs(scan.channels["Ly"]), "max")
        summary.append((P, taus[k_min], c2[k_min], taus[k_opt]))
    lines = ["# propeller-sim v" + __version__,
             "P,t_min_trev,cos2theta_min,t_opt_trev"]
    for row in summary:
        lines.append(",".join("%.10e" % v for v in row))
    (out_dir / "extrema.csv").write_text("\n".join(lines) + "\n")
    files.append("extrema.csv")
    ts = TimeSeries(grid=taus, channels=combined, meta={})
    files.append(_write_series(out_dir, "combined", ts, "csv", time_column="tau_trev"))
    return files, None, {"n_traj": n, "diagnostics": {"free_flight": free_flight}}


def _preset_fig6(out_dir: Path, seed: int, n_traj):
    mol = benzene()
    taus = ensemble.output_grid(0.12, SCAN_TREV)
    tgrid = np.arange(0.0, 1.1, 0.001)
    files, quantum = [], {}
    for P in (-1.0, -3.0, -10.0):
        tag = f"P{int(abs(P))}"
        align = quantum_symtop.alignment_trace(mol, 0.9, P, tgrid)
        files.append(_write_series(out_dir, f"alignment_{tag}", align, "csv"))
        scan = quantum_symtop.delay_curve(mol, 0.9, P, P, -math.pi / 4, taus)
        files.append(_write_series(out_dir, f"delayscan_{tag}", scan, "csv",
                                   time_column="tau_trev"))
        quantum[tag] = _symtop_diagnostics({"alignment": align, "delay_curve": scan})
    return files, None, {"diagnostics": {"quantum_symtop": quantum}}


def _preset_fig7(out_dir: Path, seed: int, n_traj):
    files = []
    extras = {}
    diagnostics = {"free_flight": {}, "quantum_symtop": {}}
    for P in (-1.0, -3.0, -10.0):
        tag = f"P{int(abs(P))}"
        sub = out_dir / tag
        sub.mkdir(exist_ok=True)
        args = argparse.Namespace(command="compare", molecule="benzene", temp_K=0.9,
                                  P1=P, P2=P, angle_deg=-45.0, delay="auto",
                                  n_traj=n_traj or 100000, seed=seed, t_max=0.15,
                                  dt_out=SCAN_TREV, sigma_kde=0.1, l_max=None,
                                  format="csv")
        f, _, extra = cmd_compare(args, sub)
        files += [f"{tag}/{x}" for x in f]
        extras[tag] = extra["max_abs_deviation"]
        for key, block in diagnostics.items():
            block[tag] = extra["diagnostics"][key]
    return files, None, {"max_abs_deviation": extras, "diagnostics": diagnostics}


PRESETS = {
    "fig2": _preset_fig2,
    "fig3a": lambda d, s, n: _density_preset(d, s, n, 0.0, 10.0, None, True),
    "fig3b": lambda d, s, n: _density_preset(d, s, n, 50.0, 10.0, None, False),
    "fig4": lambda d, s, n: _density_preset(d, s, n, 50.0, 5.0, 5.0, False),
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
    "fig7": _preset_fig7,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        if args.command == "preset":
            files, delay, extra = PRESETS[args.name](out_dir, args.seed, args.n_traj)
            config = {"preset": args.name, "seed": args.seed, "n_traj": args.n_traj}
            command = f"preset {args.name}"
        else:
            runner = {
                "classical-linear": cmd_classical,
                "classical-symtop": cmd_classical,
                "quantum-linear": cmd_quantum_linear,
                "quantum-symtop": cmd_quantum_symtop,
                "density": cmd_density,
                "compare": cmd_compare,
            }[args.command]
            files, delay, extra = runner(args, out_dir)
            config = {k: v for k, v in vars(args).items() if k != "out"}
            command = args.command
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, IntegrationError, ProtocolError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    manifest = io_formats.RunManifest(
        command=command, config=io_formats._plain(config),
        seed=getattr(args, "seed", None),
        versions=io_formats.library_versions(),
        wall_time_s=time.perf_counter() - start,
        auto_delay_trev=delay,
        truncation=extra.pop("truncation", {}),
        diagnostics=extra.pop("diagnostics", {}),
        outputs=sorted(files))
    for k, v in extra.items():
        manifest.config[f"result_{k}"] = io_formats._plain(v)
    manifest.write(out_dir / "manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
