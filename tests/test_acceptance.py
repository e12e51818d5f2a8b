"""Release gate: one test per acceptance criterion, one verdict line each.

Every test prints ``ACCEPTANCE NN <label>: PASS/FAIL (detail)`` before
asserting, so the gate's state is readable straight off the pytest log.
Each criterion is checked where its physics holds: the saturated regimes of
criteria 2 and 5 are limits, so their targets are asserted at pumps deep
enough by the closed forms' own scales, and the points where those limits
are not yet reached are pinned to the exact or semiclassical values there.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np
import scipy.optimize

from cavsr.analytic import beta_factors, pn_random_phase
from cavsr.atom import AtomState, prepare
from cavsr.dicke import (
    EnsembleSpec,
    brute_force_rate,
    decompose_product_state,
    dicke_rate,
    ensemble_rate,
)
from cavsr.experiments import RunConfig, fit_loglog_slope, sweep_atoms
from cavsr.hilbert import fidelity_to_coherent, mean_photon
from cavsr.interaction import KickParams, bunched_mean_n, jc_kick, lossless_sequence
from cavsr.steady import _balance_angle, steady_state_auto
from cavsr.trajectory import TrajectoryConfig, run_ensemble

HALF = math.pi / 2


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def test_01_random_phase_closed_form():
    # dephased atoms leave the density matrix diagonal, where the steady
    # state has an exact product form; the sparse solve must hit it to 1e-8
    points = [
        (0.25, 0.01, 1.0),
        (0.50, 0.01, 100.0),
        (1.00, 0.10, 1.0),
        (0.50, 0.10, 100.0),
        (1.00, 0.01, 100.0),
    ]
    t0 = time.monotonic()
    worst = 0.0
    for rho_ee, g_tau, n_c in points:
        q = steady_state_auto(n_c, AtomState(rho_ee, 0.0), KickParams(g_tau))
        pn = pn_random_phase(n_c, rho_ee, g_tau, q.n_max)
        worst = max(worst, float(np.abs(np.real(np.diag(q.q)) - pn).max()))
    dt = time.monotonic() - t0
    ok = worst <= 1e-8 and dt < 10.0
    _verdict(1, "random-phase closed form", ok, f"max entry diff {worst:.2e}, {dt:.2f}s")


def test_02_deep_pump_plateau():
    # rho_ee = 0.25 absorptive pumping. The small-angle mean
    # rho_ee p / (2 + (1 - 2 rho_ee) p), p = n_c (g tau)^2, reaches its
    # plateau rho_ee / (1 - 2 rho_ee) = 0.5 only for p >> 2 / (1 - 2 rho_ee)
    # = 4, and comes within 5% of it for p >= 76; p = 200 gives 0.4902.
    a = AtomState(0.25, 0.0)
    k = KickParams(0.01)
    mean = mean_photon(steady_state_auto(2e6, a, k))
    plateau_ok = abs(mean - 0.500) <= 0.05 * 0.500
    # p = 20 sits short of the plateau, at 5/12 in the small-angle form;
    # there the solve must hit the exact detailed-balance mean
    q = steady_state_auto(2e5, a, k)
    mean_20 = mean_photon(q)
    exact_20 = float(np.arange(q.dim) @ pn_random_phase(2e5, 0.25, 0.01, q.n_max))
    exact_ok = abs(mean_20 / exact_20 - 1.0) <= 1e-6
    ok = plateau_ok and exact_ok
    _verdict(2, "deep-pump plateau", ok,
             f"mean {mean:.4f} vs 0.500 +- 5% at p = 200; "
             f"mean {mean_20:.6f} vs exact {exact_20:.6f} at p = 20")


def test_03_coherent_state_buildup():
    q = steady_state_auto(100.0, prepare(HALF), KickParams(0.01))
    mean = mean_photon(q)
    fid = fidelity_to_coherent(q, -0.5j)
    ok = fid >= 0.99 and abs(mean - 0.25) <= 0.05 * 0.25
    _verdict(3, "coherent-state buildup", ok, f"fidelity {fid:.4f}, mean {mean:.4f} vs 0.25 +- 5%")


def test_04_collective_quadratic_growth():
    # uniform log grid in beam flux: the first 13 points cover n_c in [2, 100]
    # for the slope fit, the extension past n_c = 200 carries <n> through 1
    # so the curvature bound actually brackets the would-be threshold
    g, gamma_c = 2.9e6, 7.5e3
    tau = 0.01 / g
    cfg = RunConfig(g=g, gamma_c=gamma_c, tau=tau, theta=HALF, n_c=1.0)
    ratio = (100.0 / 2.0) ** (1.0 / 12.0)
    nc = 2.0 * ratio ** np.arange(17)
    res = sweep_atoms(cfg, nc * 0.5 * gamma_c * tau)
    slope, _ = fit_loglog_slope(res.axis, res.collective_part, (0, 13))
    curvature = float(np.abs(np.diff(np.log(res.mean_n), 2)).max())
    spans_one = res.mean_n[0] < 1.0 < res.mean_n[-1]
    ok = abs(slope - 2.00) <= 0.05 and curvature <= 0.1 and spans_one
    _verdict(4, "collective quadratic growth", ok,
             f"slope {slope:.3f} vs 2.00 +- 0.05, max |d2 log n| {curvature:.3f} vs 0.1")


def test_05_slope_transition_and_saturation():
    a = prepare(HALF)
    k = KickParams(0.05)

    nc_grid = np.geomspace(0.1, 10.0, 21)
    means = np.array([mean_photon(steady_state_auto(n, a, k)) for n in nc_grid])
    slopes = np.diff(np.log(means)) / np.diff(np.log(nc_grid))
    mids = np.sqrt(nc_grid[:-1] * nc_grid[1:])
    window = slopes[(mids >= 0.3) & (mids <= 3.0)]
    crossed = float(window.min()) < 1.5 < float(window.max())

    # saturation side. The semiclassical balance chi^2 = kappa sin chi,
    # kappa = n_c (g tau)^2, <n> = (chi / 2 g tau)^2, is derived without the
    # generator. 3 (g tau)^-2 is near kappa = pi, where the small-angle law
    # kappa^2 / 4 (g tau)^2 meets the Rabi ceiling (pi / 2 g tau)^2: a
    # crossing of two asymptotes, inside the crossover, not the point where
    # the slope has fallen to 0.3. The balance puts that onset at
    # kappa* ~ 14.1, so the bound is asserted over kappa 17 -> 19, and the
    # old pair past 3 (g tau)^-2 must match the balance's slope of 0.79.
    def balance_mean(n_c: float) -> float:
        return (0.5 * _balance_angle(n_c, a, k.g_tau) / k.g_tau) ** 2

    def slope(mean_of, lo: float, hi: float) -> float:
        return math.log(mean_of(hi) / mean_of(lo)) / math.log(hi / lo)

    def solved_mean(n_c: float) -> float:
        return mean_photon(steady_state_auto(n_c, a, k))

    def balance_local_slope(kappa: float) -> float:
        n_c = kappa / k.g_tau**2
        return slope(balance_mean, n_c * (1.0 - 1e-4), n_c * (1.0 + 1e-4))

    kappa_star = scipy.optimize.brentq(lambda x: balance_local_slope(x) - 0.3, math.pi, 50.0)
    sat_slope = slope(solved_mean, 6800.0, 7600.0)
    sat_ok = sat_slope < 0.3 and 6800.0 * k.g_tau**2 > kappa_star

    cross_slope = slope(solved_mean, 1300.0, 1550.0)
    cross_ref = slope(balance_mean, 1300.0, 1550.0)
    cross_ok = abs(cross_slope - cross_ref) <= 0.05

    ok = crossed and sat_ok and cross_ok
    _verdict(5, "slope transition and saturation", ok,
             f"transition window slopes {window.min():.2f}..{window.max():.2f} "
             f"cross 1.5: {crossed}; slope past 3/(g tau)^2 {cross_slope:.3f} vs balance "
             f"{cross_ref:.3f} +- 0.05; slope-0.3 onset at kappa* {kappa_star:.2f}; "
             f"slope over kappa 17 -> 19 {sat_slope:.3f} vs < 0.3")


def test_06_sequential_emission_increments():
    a = prepare(HALF)
    k = KickParams(0.005)
    trace = lossless_sequence([a] * 20, k)
    inc = np.diff(np.concatenate(([0.0], trace)))
    b_fit, a_fit = np.polyfit(np.arange(20, dtype=float), inc, 1)
    a_ref = a.rho_ee * k.g_tau**2
    b_ref = 2.0 * abs(a.rho_eg) ** 2 * k.g_tau**2
    fit_ok = abs(a_fit / a_ref - 1.0) <= 0.02 and abs(b_fit / b_ref - 1.0) <= 0.02

    worst = 0.0
    for n in range(2, 7):
        seq = lossless_sequence([a] * n, k)[-1]
        bun = bunched_mean_n(n, HALF, 0.0, k)
        worst = max(worst, abs(seq / bun - 1.0))
    ok = fit_ok and worst <= 0.01
    _verdict(6, "sequential emission increments", ok,
             f"intercept {a_fit:.4e} vs {a_ref:.4e}, slope {b_fit:.4e} vs {b_ref:.4e}, "
             f"bunched endpoint off by {worst:.1e}")


def test_07_collective_rate_oracles():
    rng = np.random.default_rng(20260822)
    t0 = time.monotonic()
    worst_brute = 0.0
    worst_ladder = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 11))
        th = float(rng.uniform(0.0, math.pi))
        ph = float(rng.uniform(0.0, 2.0 * math.pi))
        spec = EnsembleSpec(n, math.sin(th / 2), math.cos(th / 2) * cmath.exp(1j * ph))
        direct = ensemble_rate(n, spec.atom_state())
        worst_brute = max(worst_brute, abs(direct - brute_force_rate(spec)))
        amps = decompose_product_state(spec)
        ladder = sum(
            abs(amps[kk]) ** 2 * dicke_rate(n, 0.5 * n - kk) for kk in range(n + 1)
        )
        worst_ladder = max(worst_ladder, abs(direct - ladder))
    dt = time.monotonic() - t0
    ok = worst_brute <= 1e-9 and worst_ladder <= 1e-9 and dt < 30.0
    _verdict(7, "collective rate oracles", ok,
             f"brute diff {worst_brute:.1e}, ladder diff {worst_ladder:.1e}, {dt:.1f}s")


def test_08_trajectory_master_agreement():
    points = [(1.0, 0.2), (3.0, 0.1), (10.0, 0.05), (20.0, 0.02), (50.0, 0.01)]
    tau = 1e-6
    t0 = time.monotonic()
    worst = 0.0
    for i, (n_c, g_tau) in enumerate(points):
        cfg = TrajectoryConfig(
            r=n_c, gamma_c=1.0, g=g_tau / tau, tau=tau, theta=HALF,
            injection="poisson", n_max=14, t_end=10.0,
            seed=40 + i, n_trajectories=500,
        )
        ens = run_ensemble(cfg)
        ref = mean_photon(steady_state_auto(n_c, prepare(HALF), KickParams(g_tau)))
        worst = max(worst, abs(ens.steady_mean_n - ref) / ens.steady_stderr)
    dt = time.monotonic() - t0
    ok = worst <= 3.0 and dt < 300.0
    _verdict(8, "trajectory vs master", ok, f"worst deviation {worst:.2f} sigma, {dt:.0f}s")


def test_09_steady_vs_lossless_transient():
    a = prepare(HALF)
    k = KickParams(0.01)
    q = steady_state_auto(10.0, a, k)
    steady_mean = mean_photon(q)
    steady_inc = mean_photon(jc_kick(q, a, k)) - steady_mean
    trace = lossless_sequence([a] * 10, k)
    inc_rel = abs(steady_inc / (trace[9] - trace[8]) - 1.0)
    mean_rel = abs(steady_mean / trace[9] - 1.0)
    ok = inc_rel <= 0.2 and mean_rel <= 0.2
    _verdict(9, "steady vs lossless transient", ok,
             f"increment off by {inc_rel:.3f}, mean off by {mean_rel:.3f} (both vs 0.2)")


def test_10_phase_noise_degradation():
    # apparatus scale, beam flux set for 0.57 atoms in the cavity on average;
    # in the frame that turns with the pump phase, the phase walk diffuses the
    # field's phase at 2 pi linewidth / gamma_c, the master equation's oracle
    gamma_c = 2.0 * math.pi * 75e3
    tau = 101e-9
    rows = []
    devs = []
    for i, lw in enumerate((0.0, 50e3, 200e3, 800e3)):
        cfg = TrajectoryConfig(
            r=0.57 / tau, gamma_c=gamma_c, g=2.0 * math.pi * 290e3, tau=tau,
            theta=HALF, injection="poisson", linewidth=lw, n_max=20,
            t_end=8.0 / gamma_c, seed=101 + i, n_trajectories=600,
        )
        ens = run_ensemble(cfg)
        rows.append((ens.steady_mean_n, ens.steady_stderr))
        ref = mean_photon(steady_state_auto(
            cfg.n_c, prepare(HALF), KickParams(cfg.g_tau),
            dephasing=2.0 * math.pi * lw / gamma_c,
        ))
        devs.append((ens.steady_mean_n - ref) / ens.steady_stderr)
    sig = [
        (m1 - m2) / math.hypot(s1, s2)
        for (m1, s1), (m2, s2) in zip(rows, rows[1:])
    ]
    ok = min(sig) >= 3.0 and max(abs(d) for d in devs) <= 3.0
    means = ", ".join(f"{m:.3f}" for m, _ in rows)
    _verdict(10, "phase-noise degradation", ok,
             f"means {means} strictly falling, step significances "
             + ", ".join(f"{s:.1f}" for s in sig) + " sigma; against the dephased "
             "master equation " + ", ".join(f"{d:+.1f}" for d in devs) + " sigma")


def test_11_apparatus_scale_numbers():
    gamma_c = 2.0 * math.pi * 75e3
    tau = 101e-9
    g = 2.0 * math.pi * 290e3
    a = prepare(HALF)
    # beam flux that keeps one atom in the cavity on average
    nc_at_one = 1.0 / (gamma_c * tau)
    beta_aligned = beta_factors(nc_at_one, a, g * tau)[0]
    # the uniform-coupling beam geometry runs at half the peak antinode
    # coupling, a vacuum Rabi angle of 0.10 rad
    beta_uniform = beta_factors(nc_at_one, a, 0.10)[0]
    ok = (
        abs(nc_at_one - 21.0) <= 1.0
        and abs(beta_aligned / 0.034 - 1.0) <= 0.06
        and abs(beta_uniform / 0.011 - 1.0) <= 0.10
    )
    _verdict(11, "apparatus-scale numbers", ok,
             f"n_c at one atom {nc_at_one:.2f} vs 21 +- 1, "
             f"beta {beta_aligned:.4f} vs 0.034 +- 6%, {beta_uniform:.4f} vs 0.011 +- 10%")
