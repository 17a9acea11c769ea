"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are fixed here, not tuned at runtime.  The benzene fixtures in
conftest.py are session-cached because three criteria share them.
"""

import math
import time

import numpy as np
import pytest

from propeller_sim import EnsembleConfig, PulseSpec, benzene, nitrogen
from propeller_sim import density, quantum_linear, quantum_symtop
from propeller_sim.classical_symtop import SymTopEnsemble
from propeller_sim.ensemble import (delay_scan, final_states,
                                    first_local_extremum, parabolic_vertex,
                                    run_protocol)

from conftest import FINE_TAUS, SCAN_TREV, BENZENE_P_VALUES
from oracles import nitrogen_spin_weights, phi_average


def report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def refined_extremum(grid: np.ndarray, values: np.ndarray, kind: str):
    k = first_local_extremum(values, kind)
    if k is None:
        return None, None
    return parabolic_vertex(grid[k - 1:k + 2], values[k - 1:k + 2]), values[k]


@pytest.fixture(scope="module")
def fig2_runs():
    """Criterion 1-2 configuration: N2, 50 K, P = 5 + 5 at 45 deg, auto delay."""
    t0 = time.perf_counter()
    cfg = EnsembleConfig(
        mol=nitrogen(), T_K=50.0, n_traj=10_000, seed=2026,
        pulses=(PulseSpec(P=5.0, p=(0.0, 0.0, 1.0)),
                PulseSpec.along(5.0, (1.0, 0.0, 1.0), t_apply="auto")),
        t_max=5.0, dt_out=0.005)
    classical = run_protocol(cfg)
    delay = classical.meta["auto_delay_trev"]
    quantum = quantum_linear.thermal_run(
        nitrogen(), 50.0,
        [PulseSpec(P=5.0, p=(0.0, 0.0, 1.0)),
         PulseSpec.along(5.0, (1.0, 0.0, 1.0), t_apply=float(delay))],
        t_max=delay + 0.12, dt_out=0.001)
    wall = time.perf_counter() - t0
    # dense classical curve on the comparison window for criterion 2
    cfg_fine = EnsembleConfig(
        mol=nitrogen(), T_K=50.0, n_traj=10_000, seed=2026,
        pulses=cfg.pulses, t_max=delay + 0.12, dt_out=0.001)
    classical_fine = run_protocol(cfg_fine)
    return {"classical": classical, "classical_fine": classical_fine,
            "quantum": quantum, "delay": delay, "wall_s": wall}


def test_criterion_01_azimuthal_plateau(fig2_runs):
    cl = fig2_runs["classical"]
    window = (cl.grid >= 1.0) & (cl.grid <= 5.0)
    classical_avg = float(np.mean(cl.channels["cos2phi"][window]))
    quantum_avg = fig2_runs["quantum"].meta["revival_avg"]["cos2phi"]
    # the nuclear-spin weighting is unspecified in the source; report both
    spin_run = quantum_linear.thermal_run(
        nitrogen(), 50.0,
        [PulseSpec(P=5.0, p=(0.0, 0.0, 1.0)),
         PulseSpec.along(5.0, (1.0, 0.0, 1.0), t_apply=float(fig2_runs["delay"]))],
        t_max=fig2_runs["delay"] + 0.05, dt_out=0.01,
        spin_weights=nitrogen_spin_weights)
    quantum_avg_spin = spin_run.meta["revival_avg"]["cos2phi"]
    wall = fig2_runs["wall_s"]
    ok = (abs(classical_avg - 0.52) <= 0.01
          and abs(quantum_avg - classical_avg) <= 0.01
          and wall < 60.0)
    report(1, ok, f"classical <cos2phi> [1,5]Trev = {classical_avg:.4f} "
                  f"(target 0.52 +- 0.01), quantum revival avg = {quantum_avg:.4f} "
                  f"uniform / {quantum_avg_spin:.4f} with 2:1 N2 spin weights, "
                  f"runtime {wall:.1f} s (< 60 s)")
    assert abs(classical_avg - 0.52) <= 0.01
    assert abs(quantum_avg - classical_avg) <= 0.01
    assert wall < 60.0


def test_criterion_02_first_oscillation(fig2_runs):
    delay = fig2_runs["delay"]
    cl = fig2_runs["classical_fine"]
    qm = fig2_runs["quantum"]
    cl_interp = np.interp(qm.grid, cl.grid, cl.channels["cos2phi"])
    window = (qm.grid >= delay) & (qm.grid <= delay + 0.1)
    dev = float(np.max(np.abs(cl_interp[window] - qm.channels["cos2phi"][window])))
    ok = dev <= 0.02
    report(2, ok, f"max |classical - quantum| of <cos2phi> over the first "
                  f"oscillation = {dev:.4f} (<= 0.02)")
    assert dev <= 0.02


def quantum_axis_moments(pulses, t_max: float, dt_out: float):
    """Revival averages of (<x^2>, <y^2>, <z^2>) after the N2 50 K pulses.

    The thermal start is isotropic and free flight commutes with rotations,
    so <(a.r)^2> of a run is <cos^2 theta> of the same run with every pulse
    rotated by an R that takes a to z: the cyclic permutations R(p) =
    (p_y, p_z, p_x) for x and (p_z, p_x, p_y) for y.  An auto delay is taken
    from the unrotated run.
    """
    def run(ps):
        return quantum_linear.thermal_run(nitrogen(), 50.0, ps, t_max=t_max, dt_out=dt_out)

    z_run = run(pulses)
    delay = z_run.meta.get("auto_delay_trev")
    fixed = [PulseSpec(P=p.P, p=p.p, t_apply=delay if p.t_apply == "auto" else p.t_apply)
             for p in pulses]
    x_run, y_run = (run([PulseSpec(P=p.P, p=tuple(np.roll(p.p, shift)), t_apply=p.t_apply)
                         for p in fixed]) for shift in (-1, 1))
    return tuple(r.meta["revival_avg"]["cos2theta"] for r in (x_run, y_run, z_run))


def test_criterion_03_single_pulse_moments():
    cfg = EnsembleConfig(mol=nitrogen(), T_K=50.0, n_traj=100_000, seed=31,
                         pulses=(PulseSpec(P=10.0, p=(0.0, 0.0, 1.0)),),
                         t_max=0.1, dt_out=0.05)
    fin = final_states(cfg)
    cl = density.second_moments(SymTopEnsemble(fin["r"], fin["L"]))
    qm = quantum_axis_moments([PulseSpec(P=10.0, p=(0.0, 0.0, 1.0))],
                              t_max=0.02, dt_out=0.01)
    target = (0.29, 0.29, 0.42)
    ok = all(abs(c - t) <= 0.01 for c, t in zip(cl, target)) and \
        all(abs(q - t) <= 0.01 for q, t in zip(qm, target))
    report(3, ok, "single pulse P=10 moments: classical "
                  f"({cl[0]:.3f}, {cl[1]:.3f}, {cl[2]:.3f}), quantum "
                  f"({qm[0]:.3f}, {qm[1]:.3f}, {qm[2]:.3f}), target (0.29, 0.29, 0.42) +- 0.01")
    for got in (cl, qm):
        for g, t in zip(got, target):
            assert abs(g - t) <= 0.01


def test_criterion_04_propeller_moments():
    cfg = EnsembleConfig(
        mol=nitrogen(), T_K=50.0, n_traj=100_000, seed=32,
        pulses=(PulseSpec(P=5.0, p=(0.0, 0.0, 1.0)),
                PulseSpec.along(5.0, (1.0, 0.0, 1.0), t_apply="auto")),
        t_max=0.5, dt_out=0.05)
    fin = final_states(cfg)
    cl = density.second_moments(SymTopEnsemble(fin["r"], fin["L"]))
    qm = quantum_axis_moments([PulseSpec(P=5.0, p=(0.0, 0.0, 1.0)),
                               PulseSpec.along(5.0, (1.0, 0.0, 1.0), t_apply="auto")],
                              t_max=0.1, dt_out=0.05)
    target = (0.31, 0.30, 0.39)
    ok = all(abs(c - t) <= 0.01 for c, t in zip(cl, target)) and \
        all(abs(q - t) <= 0.01 for q, t in zip(qm, target))
    report(4, ok, "propeller P=5 moments: classical "
                  f"({cl[0]:.3f}, {cl[1]:.3f}, {cl[2]:.3f}), quantum "
                  f"({qm[0]:.3f}, {qm[1]:.3f}, {qm[2]:.3f}), target (0.31, 0.30, 0.39) +- 0.01")
    for got in (cl, qm):
        for g, t in zip(got, target):
            assert abs(g - t) <= 0.01


def test_criterion_05_zero_temperature_law():
    cfg = EnsembleConfig(mol=nitrogen(), T_K=0.0, n_traj=10_000, seed=33,
                         pulses=(PulseSpec(P=10.0, p=(0.0, 0.0, 1.0)),),
                         t_max=0.1, dt_out=0.05)
    fin = final_states(cfg)
    grid = density.belt_average(fin["r"], fin["L"], 0.1)
    prof = phi_average(grid)
    exact = density.analytic_zero_temp(grid.theta)
    window = (grid.theta >= 0.3) & (grid.theta <= math.pi - 0.3)
    rel = np.abs(prof[window] / exact[window] - 1.0)
    dev = float(np.max(rel))
    at = float(grid.theta[window][np.argmax(rel)])
    ok = dev <= 0.05
    report(5, ok, f"belt vs 1/(2 pi^2 sin theta): max relative deviation "
                  f"{dev:.3f} at theta = {at:.3f} (<= 0.05 on [0.3, pi - 0.3])")
    assert dev <= 0.05, (
        f"max relative deviation {dev:.3f} at theta = {at:.3f}: the belt "
        f"estimator's kernel bias exp(-x) I0(x) sqrt(2 pi x) - 1 with "
        f"x = sin^2(theta)/(4 sigma^2) is ~8% at theta = 0.3 for sigma = 0.1, "
        "so the stated 5% bound cannot be met at the window edge")


def _classical_extrema(scan):
    taus = scan.grid
    t_min, v_min = refined_extremum(taus, scan.channels["cos2theta"], "min")
    t_opt, _ = refined_extremum(taus, np.abs(scan.channels["Ly_norm"]), "max")
    t_transfer, _ = refined_extremum(taus, np.abs(scan.channels["Ly"]), "max")
    return {"t_min": t_min, "v_min": v_min, "t_opt": t_opt,
            "t_transfer": t_transfer}


def test_criterion_06_anti_alignment_ordering(benzene_classical_scans,
                                              benzene_quantum_scans):
    rows = []
    for P in BENZENE_P_VALUES:
        cl = _classical_extrema(benzene_classical_scans[P])
        qt, qv = refined_extremum(FINE_TAUS,
                                  benzene_quantum_scans[P].channels["cos2theta"],
                                  "min")
        rows.append((P, cl["t_min"], cl["v_min"], qt, qv))
    ok = True
    for (pa, ta, va, qta, qva), (pb, tb, vb, qtb, qvb) in zip(rows, rows[1:]):
        ok &= (vb < va) and (tb < ta) and (qvb < qva) and (qtb < qta)
    detail = "; ".join(f"P={int(p)}: classical (t={t:.4f}, min={v:.3f}), "
                       f"quantum (t={qt:.4f}, min={qv:.3f})"
                       for p, t, v, qt, qv in rows)
    report(6, ok, "anti-alignment deeper and earlier as |P| grows -- " + detail)
    for (pa, ta, va, qta, qva), (pb, tb, vb, qtb, qvb) in zip(rows, rows[1:]):
        assert vb < va and tb < ta, f"classical ordering broken {pa} -> {pb}"
        assert qvb < qva and qtb < qta, f"quantum ordering broken {pa} -> {pb}"


def test_criterion_07_optimal_delay_coincidence(benzene_classical_scans):
    gaps, transfer_gaps = {}, {}
    for P in BENZENE_P_VALUES:
        ex = _classical_extrema(benzene_classical_scans[P])
        gaps[P] = abs(ex["t_opt"] - ex["t_min"]) / SCAN_TREV
        transfer_gaps[P] = abs(ex["t_transfer"] - ex["t_min"]) / SCAN_TREV
    ok = all(g <= 1.0 for g in gaps.values())
    detail = "; ".join(
        f"P={int(P)}: |t_opt - t_min| = {gaps[P]:.2f} steps "
        f"(transferred |<Ly>|: {transfer_gaps[P]:.2f} steps)"
        for P in BENZENE_P_VALUES)
    report(7, ok, "normalized-curve optimum vs anti-alignment minimum -- " + detail)
    assert all(g <= 1.0 for g in transfer_gaps.values()), (
        "the paper's claim (maximal modulus of the transferred angular "
        "momentum at the anti-alignment minimum) must hold within one step")
    assert ok, (
        f"|<Ly>|/sqrt(<L2>) optimum sits {gaps} scan steps after the "
        "anti-alignment minimum: the tau-dependence of the <L^2> denominator "
        "shifts the normalized-curve peak systematically (~2-3 steps); the "
        "unnormalized transferred momentum does coincide within one step "
        f"({transfer_gaps})")


def test_criterion_08_short_time_agreement(benzene_classical_scans,
                                           benzene_quantum_scans):
    devs, feature = {}, {}
    for P in BENZENE_P_VALUES:
        cl = benzene_classical_scans[P]
        qm_c2 = benzene_quantum_scans[P].channels["cos2theta"]
        qm_ly = benzene_quantum_scans[P].channels["Ly_norm"]
        dev_c2 = float(np.max(np.abs(cl.channels["cos2theta"] - qm_c2)))
        dev_ly = float(np.max(np.abs(cl.channels["Ly_norm"] - qm_ly)))
        devs[P] = (dev_c2, dev_ly)
        # feature-level agreement: depth/time of the anti-alignment minimum
        # and the peak oriented momentum (the induced-rotation magnitude)
        tc, vc = refined_extremum(FINE_TAUS, cl.channels["cos2theta"], "min")
        tq, vq = refined_extremum(FINE_TAUS, qm_c2, "min")
        peak_cl = float(np.max(np.abs(cl.channels["Ly_norm"])))
        peak_qm = float(np.max(np.abs(qm_ly)))
        feature[P] = (abs(vc - vq), abs(tc - tq) / tc, abs(peak_cl - peak_qm))
    ok = all(d <= 0.02 for P in (-3.0, -10.0) for d in devs[P])
    improving = max(devs[-10.0]) <= max(devs[-1.0])
    detail = "; ".join(f"P={int(P)}: dev(cos2theta) = {devs[P][0]:.4f}, "
                       f"dev(Ly_norm) = {devs[P][1]:.4f}" for P in BENZENE_P_VALUES)
    report(8, ok and improving, "classical vs quantum on [0, 0.15] Trev -- " + detail)
    # the paper-level claims hold: same dip depth and induced-momentum
    # magnitude to 0.02, optimal delay to 15% relative, and the delay
    # agreement tightens as |P| grows
    for P, (d_depth, rel_time, d_peak) in feature.items():
        assert d_depth <= 0.02, f"P={P} dip depth mismatch {d_depth}"
        assert rel_time <= 0.15, f"P={P} dip time mismatch {rel_time:.3f} relative"
        assert d_peak <= 0.02, f"P={P} peak |Ly_norm| mismatch {d_peak}"
    assert feature[-10.0][1] <= feature[-3.0][1] <= feature[-1.0][1], \
        f"optimal-delay agreement should improve with |P|: {feature}"
    for P in (-3.0, -10.0):
        assert devs[P][0] <= 0.02 and devs[P][1] <= 0.02, (
            f"P={P}: max deviation {devs[P]} over [0, 0.15] T_rev. The curves "
            "agree to 0.003 at the anti-alignment dip and re-approach at late "
            "delays, but partial quantum recurrences (time scale ~T_rev/(2J+3), "
            "inside this window for kicked packets) separate them in between; "
            "the 0.02 bound holds only for tau up to ~2-4x the dip time. The "
            "engines cross-validate: K = 0 symtop dynamics reproduce the "
            "independently validated linear-rotor module to 1e-15 at P = -10")
    assert improving, f"agreement should improve with |P|: {devs}"


def test_criterion_09_sign_control():
    taus = np.array([0.01, 0.02, 0.03])
    base = dict(mol=benzene(), T_K=0.9, n_traj=20_000, seed=44,
                t_max=0.3, dt_out=0.01)
    plus = delay_scan(EnsembleConfig(
        pulses=(PulseSpec(P=-3.0, p=(0, 0, 1.0)),
                PulseSpec.along(-3.0, (1.0, 0.0, 1.0), t_apply="auto")), **base), taus)
    minus = delay_scan(EnsembleConfig(
        pulses=(PulseSpec(P=-3.0, p=(0, 0, 1.0)),
                PulseSpec.along(-3.0, (-1.0, 0.0, 1.0), t_apply="auto")), **base), taus)
    classical_exact = float(np.max(np.abs(plus.channels["dLy"]
                                          + minus.channels["dLy"])))
    sign_flip = bool(np.all(np.sign(plus.channels["Ly"])
                            == -np.sign(minus.channels["Ly"])))
    qp = quantum_symtop.delay_curve(benzene(), 0.9, -3.0, -3.0, math.pi / 4,
                                    taus, J_max=28)
    qmn = quantum_symtop.delay_curve(benzene(), 0.9, -3.0, -3.0, -math.pi / 4,
                                     taus, J_max=28)
    quantum_dev = float(np.max(np.abs(qp.channels["Ly"] + qmn.channels["Ly"])))
    ok = classical_exact <= 1e-12 and sign_flip and quantum_dev <= 1e-8
    report(9, ok, f"45 -> -45 deg flips <Ly>: classical transfer flip exact to "
                  f"{classical_exact:.1e}, sign flip {sign_flip}, quantum to "
                  f"{quantum_dev:.1e} (<= 1e-8)")
    assert classical_exact <= 1e-12
    assert sign_flip
    assert quantum_dev <= 1e-8


def test_criterion_10_property_suites():
    from scipy.special import sph_harm_y
    from oracles import gaunt_y2
    from propeller_sim.classical_symtop import SymTopEnsemble
    from propeller_sim.ensemble import orientation_from_uniforms, uniform_matrix

    checks = []

    # sampler moment
    u = uniform_matrix(0, 50_000, 2)
    th, _ = orientation_from_uniforms(u[:, 0], u[:, 1])
    c2 = np.cos(th) ** 2
    checks.append(("sampler <cos^2> = 1/3",
                   abs(c2.mean() - 1 / 3) < 3 * c2.std() / math.sqrt(len(c2))))

    # conservation over long propagation of the (r, L) state, stepped in
    # segments; a linear rotor is the L . r = 0 case, with v = L x r
    def propagate(r, L, steps):
        for _ in range(steps):
            r = SymTopEnsemble(r[None, :], L[None, :]).positions(0.11)[0]
        return r

    r = np.array([0.6, 0.0, 0.8])
    L0 = np.cross(r, np.cross(r, [0.0, 1.3, -0.7]))
    s = propagate(r, L0, 300)
    v0, v = np.cross(L0, r), np.cross(L0, s)
    checks.append(("linear |v|, L conserved to 1e-10",
                   abs(np.linalg.norm(v) - np.linalg.norm(v0)) < 1e-10
                   and bool(np.allclose(np.cross(s, v), L0, atol=1e-10))))

    def energy(r, L):                      # I_1/I_3 = 1/2, units hbar^2/I_1
        L3 = L @ r
        return 0.5 * (L @ L - L3 * L3) + 0.25 * L3 * L3

    r, L = np.array([0.0, 0.6, 0.8]), np.array([1.0, -0.4, 2.0])
    s = propagate(r, L, 300)
    checks.append(("symtop energy, L3 conserved to 1e-10",
                   abs(energy(s, L) - energy(r, L)) < 1e-10 and abs(s @ L - r @ L) < 1e-10))

    # matrix-element oracle (compact): random rank-2 elements vs quadrature
    x, w = np.polynomial.legendre.leggauss(48)
    theta = np.arccos(x)
    phi = np.arange(64) * 2 * math.pi / 64
    th_g, ph_g = np.meshgrid(theta, phi, indexing="ij")
    ok_elems = True
    for (lp, mp, q, l, m) in [(2, 0, 0, 0, 0), (4, 2, 2, 2, 0), (3, -1, 0, 1, -1)]:
        integrand = (np.conj(sph_harm_y(lp, mp, th_g, ph_g))
                     * sph_harm_y(2, q, th_g, ph_g) * sph_harm_y(l, m, th_g, ph_g))
        ref = float(np.real(np.einsum("i,ij->", w, integrand) * 2 * math.pi / 64))
        ok_elems &= abs(gaunt_y2(lp, mp, q, l, m) - ref) < 1e-8
    checks.append(("rank-2 matrix elements vs quadrature to 1e-8", ok_elems))

    # revival periodicity: the kicked T = 0 trace repeats after one T_rev
    c2 = quantum_linear.thermal_run(nitrogen(), 0.0, [PulseSpec(P=3.0, p=(0, 0, 1.0))],
                                    t_max=1.5, dt_out=0.05, l_max=20).channels["cos2theta"]
    drift = float(np.max(np.abs(c2[20:] - c2[:-20])))
    checks.append(("revival periodicity to 1e-8", drift < 1e-8))

    # truncation doubling (compact)
    p2 = [PulseSpec(P=2.0, p=(0, 0, 1.0))]
    a = quantum_linear.thermal_run(nitrogen(), 10.0, p2, t_max=0.1,
                                   dt_out=0.05, l_max=24)
    bb = quantum_linear.thermal_run(nitrogen(), 10.0, p2, t_max=0.1,
                                    dt_out=0.05, l_max=48)
    checks.append(("l_max doubling changes observables < 1e-6",
                   bool(np.max(np.abs(a.channels["cos2theta"]
                                      - bb.channels["cos2theta"])) < 1e-6)))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks)
    report(10, ok, detail)
    for name, flag in checks:
        assert flag, name
