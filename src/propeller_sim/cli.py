"""Command-line front end.

Subcommands
-----------
classical-linear | classical-symtop
    Monte Carlo double-pulse runs; writes a time-series file and manifest.
quantum-linear
    Thermal wave-packet run in the classical frame.
quantum-symtop
    Thermal symmetric-top run: alignment trace and (with --P2) a delay scan
    over the output grid, so --delay must stay auto; with --P2 the alignment
    is the delay curve's cos2theta, from the same pulse-1 pass.
density
    Classical run followed by the time-averaged belt density grid, always
    written as the text table density.csv.
compare
    Classical-vs-quantum harness on a common grid with a deviation summary;
    for a symmetric top it compares delay scans, so --delay must stay auto.
preset
    Canned runs fig2, fig3a, fig3b, fig4, fig5, fig6, fig7, each a row of
    PRESETS: one subcommand's flags and a writer.  --n-traj replaces the
    row's value, and a preset whose subcommand takes none rejects it.

FLAGS declares every flag once and COMMANDS lists the flags that each
subcommand honours, so any other flag exits 2, as does a non-finite number.
--seed is the one flag that a subcommand takes without using it: the
quantum runs only record it as the manifest's seed.  --angle-deg (45 by
default) and --delay (auto by default) set the second pulse, so they are
rejected without --P2; compare's --P2 defaults to --P1.  density has no
output grid: its --t-max only bounds the search for an auto second pulse,
so it is rejected unless one fires.

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
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, density, ensemble, io_formats, quantum_linear, quantum_symtop
from .core import (IntegrationError, MoleculeParams, ParameterError,
                   ProtocolError, PulseSpec, TruncationError, benzene, nitrogen)
from .ensemble import EnsembleConfig, TimeSeries


def finite(text: str) -> float:
    """The type of every float flag: argparse rejects nan and +-inf with exit 2."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not finite")
    return value


# argparse takes "-1e-1" and "-inf" for flags unless they match its negative
# number pattern, which knows only -12 and -1.5: this one knows all that
# float() reads, so a float flag takes them as a separate value
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$",
                             re.IGNORECASE)


FLAGS = {
    "--molecule": {"default": "n2"},
    "--temp-K": {"type": finite, "default": 0.0},
    "--P1": {"type": finite, "default": 5.0},
    "--P2": {"type": finite},
    "--angle-deg": {"type": finite},
    "--delay": {},
    "--n-traj": {"type": int, "default": 10000},
    "--seed": {"type": int, "default": 1},
    "--t-max": {"type": finite, "default": 5.0},
    "--dt-out": {"type": finite, "default": 0.005},
    "--sigma-kde": {"type": finite, "default": 0.1},
    "--l-max": {"type": int},
    "--out": {"required": True},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
}


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
        return finite(text)
    except ValueError:
        raise ParameterError(f"--delay must be 'auto' or a finite time, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="propeller-sim",
                                 description="double-pulse molecular rotation simulator")
    ap.add_argument("--version", action="version", version=f"propeller-sim {__version__}")
    subs = ap.add_subparsers(dest="command", required=True)
    for name, (_, _, honoured) in COMMANDS.items():
        sub = subs.add_parser(name)
        for flag in (f for f in FLAGS if f in honoured):
            sub.add_argument(flag, **FLAGS[flag])
    # density reads --t-max only as the --delay auto window: None marks it unset
    subs.choices["density"].set_defaults(t_max=None)
    pre = subs.add_parser("preset")
    pre.add_argument("name", choices=tuple(PRESETS))
    pre.add_argument("--out", **FLAGS["--out"])
    pre.add_argument("--seed", **FLAGS["--seed"])
    pre.add_argument("--n-traj", type=int)
    for parser in subs.choices.values():
        parser._negative_number_matcher = NEGATIVE_NUMBER
    return ap


def _second_pulse(args) -> tuple:
    """The second pulse's angle in degrees and its delay, 45 and auto unless
    given.  Without --P2 no second pulse fires, so either flag is rejected."""
    given = [flag for flag, value in (("--angle-deg", args.angle_deg), ("--delay", args.delay))
             if value is not None]
    if args.P2 is None and given:
        raise ParameterError(f"{' and '.join(given)} cannot be honoured: {args.command} "
                             "fires no second pulse without --P2")
    return (45.0 if args.angle_deg is None else args.angle_deg,
            parse_delay("auto" if args.delay is None else str(args.delay)))


def _pulses_from_args(args) -> tuple:
    pulses = [PulseSpec(P=args.P1, p=(0.0, 0.0, 1.0), t_apply=0.0)]
    angle_deg, delay = _second_pulse(args)
    if args.P2 is not None:
        a = math.radians(angle_deg)
        pulses.append(PulseSpec.along(args.P2, (math.sin(a), 0.0, math.cos(a)), t_apply=delay))
    return tuple(pulses)


def _ensemble_config(args, mol: MoleculeParams) -> EnsembleConfig:
    """The Monte Carlo run of args, on the grid flags its command takes."""
    grid = {k: v for k, v in vars(args).items() if k in ("t_max", "dt_out")}
    return EnsembleConfig(mol=mol, T_K=args.temp_K, n_traj=args.n_traj,
                          seed=args.seed, pulses=_pulses_from_args(args), **grid)


def _write_series(out_dir: Path, name: str, ts: TimeSeries, fmt: str,
                  time_column: str = "t_trev") -> str:
    fname = f"{name}.{fmt}"
    if fmt == "csv":
        io_formats.write_timeseries_csv(out_dir / fname, ts, time_column)
    else:
        io_formats.write_timeseries_json(out_dir / fname, ts, time_column)
    return fname


def _check_delay_scanned(args):
    """A delay scan covers every delay of the output grid: a numeric --delay
    would be ignored, so it is rejected."""
    if _second_pulse(args)[1] != "auto":
        raise ParameterError(f"--delay {args.delay} cannot be honoured: {args.command} "
                             "scans every delay of the output grid (use --delay auto)")


def cmd_classical(args, mol: MoleculeParams, out_dir: Path):
    ts = ensemble.run_protocol(_ensemble_config(args, mol))
    files = [_write_series(out_dir, "timeseries", ts, args.format)]
    extra = {"config": ts.meta["config"],
             "diagnostics": {"free_flight": ts.meta["free_flight"]}}
    return files, ts.meta.get("auto_delay_trev"), extra


def cmd_quantum_linear(args, mol: MoleculeParams, out_dir: Path):
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
    """diagnostics.quantum_linear: basis size, thermal set and the columns carried,
    kick blocks and headroom."""
    return {k: ts.meta[k] for k in ("l_max", "n_initial_states", "n_columns",
                                    "weight_truncation", "n_blocks", "max_block_dim",
                                    "headroom_tail")}


def _symtop_diagnostics(runs: dict) -> dict:
    """diagnostics.quantum_symtop: the thermal set, then each run's blocks and headroom."""
    diag = {k: runs["alignment"].meta[k]
            for k in ("K_limit", "n_initial_states", "weight_truncation")}
    for name, ts in runs.items():
        diag[name] = {k: ts.meta[k] for k in ("J_max", "n_blocks", "max_block_dim",
                                              "headroom_tail", "distinct_freqs")}
    return diag


def _symtop_runs(args, mol: MoleculeParams, taus, times=None) -> dict:
    """The quantum symmetric top's alignment trace and, with --P2, its delay
    curve (Ly, L2, Ly_norm) over the delays taus.  The trace runs over times
    if given, and is otherwise the curve's cos2theta: each K is kicked once."""
    if args.P2 is None:
        return {"alignment": quantum_symtop.alignment_trace(mol, args.temp_K, args.P1, taus,
                                                            J_max=args.l_max)}
    dphi = math.radians(_second_pulse(args)[0])
    curve = quantum_symtop.delay_curve(mol, args.temp_K, args.P1, args.P2, dphi, taus,
                                       J_max=args.l_max)
    align = TimeSeries(curve.grid, {"cos2theta": curve.channels.pop("cos2theta")}, curve.meta)
    if times is not None:
        align = quantum_symtop.alignment_trace(mol, args.temp_K, args.P1, times, J_max=args.l_max)
    return {"alignment": align, "delay_curve": curve}


def cmd_quantum_symtop(args, mol: MoleculeParams, out_dir: Path):
    _check_delay_scanned(args)
    runs = _symtop_runs(args, mol, ensemble.output_grid(args.t_max, args.dt_out))
    align = runs["alignment"]
    files = [_write_series(out_dir, "alignment", align, args.format)]
    trunc = {"J_max": align.meta["J_max"], "headroom_tail": align.meta["headroom_tail"]}
    if "delay_curve" in runs:
        files.append(_write_series(out_dir, "delayscan", runs["delay_curve"], args.format,
                                   time_column="tau_trev"))
        trunc["J_max_two_pulse"] = runs["delay_curve"].meta["J_max"]
    return files, None, {"truncation": trunc,
                         "diagnostics": {"quantum_symtop": _symtop_diagnostics(runs)}}


def cmd_density(args, mol: MoleculeParams, out_dir: Path):
    return _belt_density(args, mol, out_dir)[:3]


def _belt_density(args, mol: MoleculeParams, out_dir: Path):
    """density's files, auto delay and manifest extras, and its grid."""
    if args.t_max is None:
        args.t_max = FLAGS["--t-max"]["default"]
    elif args.P2 is None or _second_pulse(args)[1] != "auto":
        raise ParameterError(f"--t-max {args.t_max} cannot be honoured: density uses it only "
                             "to bound the --delay auto search, and fires no auto second pulse")
    final = ensemble.final_states(_ensemble_config(args, mol))
    grid = density.belt_average(final["r"], final["L"], args.sigma_kde)
    io_formats.write_density_text(out_dir / "density.csv", grid, seed=args.seed)
    diagnostics = {k: grid.meta[k] for k in ("path", "l_max", "spectrum_tail",
                                             "synthesis_error", "clamped_min",
                                             "n_live", "n_rest")}
    extra = {"second_moments": list(grid.meta["second_moments"]),
             "density_integral": grid.integral(),
             "diagnostics": {"belt_average": diagnostics}}
    return ["density.csv"], final["meta"].get("auto_delay_trev"), extra, grid


def cmd_compare(args, mol: MoleculeParams, out_dir: Path):
    if args.P2 is None:
        args.P2 = args.P1
    return (_compare_linear if mol.kind == "linear" else _compare_symtop)(args, mol, out_dir)


def _compare_linear(args, mol, out_dir: Path):
    cfg = _ensemble_config(args, mol)
    cl = ensemble.run_protocol(cfg)
    delay = float(cl.meta.get("auto_delay_trev", cfg.pulses[-1].t_apply))
    post = cl.grid >= delay
    if not post.any():
        raise ParameterError(f"the second pulse at {delay:g} T_rev fires after the last "
                             f"output time {cl.grid[-1]:g}: no deviation after it to compare")
    qpulses = (cfg.pulses[0], dataclasses.replace(cfg.pulses[1], t_apply=delay))
    qm = quantum_linear.thermal_run(mol, args.temp_K, qpulses, t_max=args.t_max,
                                    dt_out=args.dt_out, l_max=args.l_max)
    channels, summary = {}, {}     # both runs record ensemble.output_grid
    for name in ("cos2theta", "cos2phi"):
        c, q = cl.channels[name], qm.channels[name]
        channels.update({f"{name}_classical": c, f"{name}_quantum": q})
        summary[name] = float(np.max(np.abs(c[post] - q[post])))
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
    scan_cl = ensemble.delay_scan(_ensemble_config(args, mol), taus)
    runs = _symtop_runs(args, mol, taus)
    channels, summary = {}, {}
    for name, run in (("cos2theta", "alignment"), ("Ly_norm", "delay_curve")):
        cl, qm = scan_cl.channels[name], runs[run].channels[name]
        channels.update({f"{name}_classical": cl, f"{name}_quantum": qm})
        summary[name] = float(np.max(np.abs(cl - qm)))
    ts = TimeSeries(grid=taus, channels=channels, meta={})
    files = [_write_series(out_dir, "compare", ts, args.format, time_column="tau_trev")]
    return files, None, {"max_abs_deviation": summary,
                         "diagnostics": {"free_flight": scan_cl.meta["free_flight"],
                                         "quantum_symtop": _symtop_diagnostics(runs)}}


# the flags of every subcommand, and of those that write a time series
_SHARED = ("--molecule", "--temp-K", "--P1", "--P2", "--angle-deg", "--delay",
           "--seed", "--t-max", "--out")
_SERIES = _SHARED + ("--dt-out", "--format")

# subcommand -> (runner, the molecule kind it needs or None, the flags it honours)
COMMANDS = {
    "classical-linear": (cmd_classical, "linear", _SERIES + ("--n-traj",)),
    "classical-symtop": (cmd_classical, "oblate-symtop", _SERIES + ("--n-traj",)),
    "quantum-linear": (cmd_quantum_linear, "linear", _SERIES + ("--l-max",)),
    "quantum-symtop": (cmd_quantum_symtop, "oblate-symtop", _SERIES + ("--l-max",)),
    "density": (cmd_density, None, _SHARED + ("--n-traj", "--sigma-kde")),
    "compare": (cmd_compare, None, _SERIES + ("--n-traj", "--l-max")),
}


# ---- presets ------------------------------------------------------------------


def _sweep(args):
    """The benzene presets' pulse pairs P1 = P2 = -1, -3, -10, tagged P1, P3, P10."""
    for P in (-1.0, -3.0, -10.0):
        yield f"P{int(abs(P))}", argparse.Namespace(**{**vars(args), "P1": P, "P2": P})


def _density_profile(args, mol, out_dir: Path):
    """density, then its phi average in profile.csv (with the analytic law at T = 0)."""
    files, delay, extra, grid = _belt_density(args, mol, out_dir)
    profile = TimeSeries(grid=grid.theta, channels={"rho_phi_avg": grid.rho.mean(axis=1)})
    if args.temp_K == 0.0:
        profile.channels["rho_analytic"] = density.analytic_zero_temp(grid.theta)
    io_formats.write_timeseries_csv(out_dir / "profile.csv", profile, time_column="theta")
    return files + ["profile.csv"], delay, extra


def _preset_fig5(args, mol, out_dir: Path):
    taus = ensemble.output_grid(args.t_max, args.dt_out)
    files, extrema = [], []
    combined, free_flight = {}, {}
    for tag, run in _sweep(args):
        scan = ensemble.delay_scan(_ensemble_config(run, mol), taus)
        free_flight[tag] = scan.meta["free_flight"]
        c2 = scan.channels["cos2theta"]
        align = TimeSeries(grid=taus, channels={"cos2theta": c2}, meta={})
        files.append(_write_series(out_dir, f"alignment_{tag}", align, args.format))
        files.append(_write_series(out_dir, f"delayscan_{tag}", scan, args.format,
                                   time_column="tau_trev"))
        combined[f"cos2theta_{tag}"] = c2
        combined[f"Ly_norm_{tag}"] = scan.channels["Ly_norm"]
        k_min = ensemble.first_local_extremum(c2, "min")
        k_opt = ensemble.first_local_extremum(np.abs(scan.channels["Ly"]), "max")
        extrema.append((run.P1, taus[k_min], c2[k_min], taus[k_opt]))
    P, *columns = np.array(extrema).T
    ts = TimeSeries(grid=P, channels=dict(zip(("t_min_trev", "cos2theta_min", "t_opt_trev"),
                                              columns)), meta={})
    files.append(_write_series(out_dir, "extrema", ts, args.format, time_column="P"))
    ts = TimeSeries(grid=taus, channels=combined, meta={})
    files.append(_write_series(out_dir, "combined", ts, args.format, time_column="tau_trev"))
    return files, None, {"n_traj": args.n_traj, "diagnostics": {"free_flight": free_flight}}


def _preset_fig6(args, mol, out_dir: Path):
    taus = ensemble.output_grid(args.t_max, args.dt_out)
    files, quantum = [], {}
    for tag, run in _sweep(args):
        runs = _symtop_runs(run, mol, taus, np.arange(0.0, 1.1, 0.001))
        files.append(_write_series(out_dir, f"alignment_{tag}", runs["alignment"],
                                   args.format))
        files.append(_write_series(out_dir, f"delayscan_{tag}", runs["delay_curve"],
                                   args.format, time_column="tau_trev"))
        quantum[tag] = _symtop_diagnostics(runs)
    return files, None, {"diagnostics": {"quantum_symtop": quantum}}


def _preset_fig7(args, mol, out_dir: Path):
    files, extras = [], {}
    diagnostics = {"free_flight": {}, "quantum_symtop": {}}
    for tag, run in _sweep(args):
        sub = out_dir / tag
        sub.mkdir(exist_ok=True)
        f, _, extra = cmd_compare(run, mol, sub)
        files += [f"{tag}/{x}" for x in f]
        extras[tag] = extra["max_abs_deviation"]
        for key, block in diagnostics.items():
            block[tag] = extra["diagnostics"][key]
    return files, None, {"max_abs_deviation": extras, "diagnostics": diagnostics}


_BENZENE = "--molecule benzene --temp-K 0.9 --angle-deg -45 --dt-out 0.0005"

# preset -> (subcommand, its flags, the writer that runs them); fig5-fig7
# sweep P1 = P2 through _sweep
PRESETS = {
    "fig2": ("compare", "--molecule n2 --temp-K 50 --P1 5 --P2 5 --dt-out 0.002", cmd_compare),
    "fig3a": ("density", "--molecule n2 --temp-K 0 --P1 10", _density_profile),
    "fig3b": ("density", "--molecule n2 --temp-K 50 --P1 10", _density_profile),
    "fig4": ("density", "--molecule n2 --temp-K 50 --P1 5 --P2 5", _density_profile),
    "fig5": ("classical-symtop", f"{_BENZENE} --t-max 0.12 --n-traj 100000", _preset_fig5),
    "fig6": ("quantum-symtop", f"{_BENZENE} --t-max 0.12", _preset_fig6),
    "fig7": ("compare", f"{_BENZENE} --t-max 0.15 --n-traj 100000", _preset_fig7),
}


def _run(args, out_dir: Path, write):
    """Check the molecule against the command's kind, then write its run."""
    kind = COMMANDS[args.command][1]
    mol = parse_molecule(args.molecule)
    if kind is not None and mol.kind != kind:
        raise ParameterError(f"{args.command} requires a {kind} molecule, got {mol.kind}")
    return write(args, mol, out_dir)


def _run_preset(parser, args, out_dir: Path):
    command, flags, write = PRESETS[args.name]
    argv = [command, *flags.split(), "--seed", str(args.seed), "--out", str(out_dir)]
    if args.n_traj is not None:
        if "--n-traj" not in COMMANDS[command][2]:
            raise ParameterError(f"--n-traj cannot be honoured: preset {args.name} "
                                 f"runs {command}, which samples no molecules")
        argv += ["--n-traj", str(args.n_traj)]
    return _run(parser.parse_args(argv), out_dir, write)


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
            files, delay, extra = _run_preset(parser, args, out_dir)
            config = {"preset": args.name, "seed": args.seed, "n_traj": args.n_traj}
            command = f"preset {args.name}"
        else:
            files, delay, extra = _run(args, out_dir, COMMANDS[args.command][0])
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
        seed=args.seed,
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
