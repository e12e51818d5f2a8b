import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cavsr.analytic import pn_random_phase
from cavsr.atom import AtomState, dephase, prepare
from cavsr.errors import TAIL_TOL, ConvergenceError, ResourceError, TruncationError
from cavsr.hilbert import (
    FieldState,
    coherent,
    fidelity_to_coherent,
    mean_photon,
    photon_distribution,
    vacuum,
)
from cavsr import steady
from cavsr.interaction import KickParams, kick_sequence, kick_stencil
from cavsr.steady import (
    MasterParams,
    build_generator,
    evolve,
    steady_state,
    _balance_angle,
    steady_state_auto,
    suggest_n_max,
)

HALF_PULSE = math.pi / 2.0
HALF = prepare(HALF_PULSE)


def test_generator_reduces_to_decay_at_zero_flux():
    p = MasterParams(1e-12, KickParams(0.3), prepare(math.pi), 6)
    gen = build_generator(p)
    resid = gen @ vacuum(6).q.ravel()
    assert np.max(np.abs(resid)) <= 1e-12


def test_generator_gain_out_of_vacuum():
    g_tau = 0.22
    n_c = 7.0
    p = MasterParams(n_c, KickParams(g_tau), prepare(math.pi), 5)
    gen = build_generator(p)
    rate = (gen @ vacuum(5).q.ravel()).reshape(6, 6)
    assert rate[1, 1].real == pytest.approx(n_c * math.sin(g_tau) ** 2, rel=1e-12)


def test_generator_conserves_trace():
    rng = np.random.default_rng(13)
    p = MasterParams(4.0, KickParams(0.2), AtomState(0.6, 0.3j), 9)
    gen = build_generator(p)
    m = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    h = np.zeros((10, 10), dtype=complex)
    h[:7, :7] = m + m.conj().T
    h /= np.trace(h).real
    dket = (gen @ h.ravel()).reshape(10, 10)
    assert abs(np.trace(dket)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.floats(1e-3, 1e3),
    st.floats(0.0, 1.0),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 1.0),
    st.integers(1, 24),
)
def test_generator_annihilates_the_trace(n_c, g_tau, theta, phi, coherence, n_max):
    # vec(I) times L is d tr(Q)/dt per entry of Q: zero everywhere except at
    # (n_max, n_max), where the kick |e, n_max> -> |g, n_max + 1> leaves the basis
    a = dephase(prepare(theta, phi), coherence)
    gen = build_generator(MasterParams(n_c, KickParams(g_tau), a, n_max))
    row = (np.eye(n_max + 1).ravel() @ gen).reshape(n_max + 1, n_max + 1)
    tol = 1e-12 * (1.0 + n_c + 2.0 * n_max)
    leak = n_c * a.rho_ee * math.sin(g_tau * math.sqrt(n_max + 1.0)) ** 2
    assert abs(row[n_max, n_max] + leak) <= tol
    row[n_max, n_max] = 0.0
    assert np.max(np.abs(row)) <= tol


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 20),
    st.integers(1, 12),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, 1.0),
)
def test_window_generator_is_the_restricted_full_one(n_lo, width, theta, phi, coherence):
    # the window drops the levels below n_lo and keeps absolute-level
    # coefficients, so it must be the full generator's block on its levels
    n_max = n_lo + width
    a = dephase(prepare(theta, phi), coherence)
    k = KickParams(0.3)
    full = build_generator(MasterParams(40.0, k, a, n_max)).toarray()
    window = build_generator(MasterParams(40.0, k, a, n_max, n_lo)).toarray()
    levels = np.arange(n_lo, n_max + 1)
    idx = (levels[:, None] * (n_max + 1) + levels[None, :]).ravel()
    assert np.max(np.abs(window - full[np.ix_(idx, idx)])) <= 1e-15
    full_levels = np.arange(n_max + 1)
    full_kick = kick_stencil(a, k, full_levels[:, None], full_levels[None, :])
    for off, coef in kick_stencil(a, k, levels[:, None], levels[None, :]).items():
        assert np.max(np.abs(coef - full_kick[off][n_lo:, n_lo:])) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 30),
    st.integers(1, 12),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, 1.0),
    st.floats(0.0, 5.0),
)
def test_stencil_on_paired_levels_is_its_broadcast_evaluation(
    n_lo, width, theta, phi, coherence, rate
):
    # the fold evaluates the one description on paired 1-D level arrays, the
    # checks on a broadcast 2-D lattice: the same entries must come out
    a = dephase(prepare(theta, phi), coherence)
    p = MasterParams(40.0, KickParams(0.3), a, n_lo + width, n_lo, rate)
    levels = np.arange(n_lo, p.n_max + 1)
    lattice = steady._generator_stencil(p, levels[:, None], levels[None, :])
    upper_n, upper_m = np.triu_indices(p.width)
    paired = steady._generator_stencil(p, upper_n + n_lo, upper_m + n_lo)
    assert paired.keys() == lattice.keys()
    for off, coef in paired.items():
        assert np.array_equal(coef, lattice[off][upper_n, upper_m])


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, 1.0),
    st.integers(0, 20),
    st.integers(1, 12),
)
def test_folded_generator_is_the_gauged_full_one(theta, phi, coherence, n_lo, width):
    # the fold the long way round: gauge the assembled complex generator,
    # conj(u_row) L u_col, keep the rows n <= m and sum each column into its
    # unknown through red
    a = dephase(prepare(theta, phi), coherence)
    p = MasterParams(40.0, KickParams(0.3), a, n_lo + width, n_lo)
    g, fold = steady._folded_generator(p)
    dim, red = p.width, fold.red
    u = fold.gauge().ravel()
    gauged = u.conj()[:, None] * build_generator(p).toarray() * u[None, :]
    rows = np.flatnonzero(np.triu(np.ones((dim, dim), dtype=bool)))
    assert np.array_equal(red[rows], np.arange(rows.size))
    summed = np.zeros((dim * dim, rows.size))
    summed[np.arange(dim * dim), red] = 1.0
    ref = gauged[rows].real @ summed
    assert np.max(np.abs(g.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
    # folding a real symmetric R takes its entries n <= m; unfolding pads u * R / tr R
    r = np.add.outer(np.arange(dim), np.arange(dim)) + 1.0
    assert np.array_equal(fold.unknowns(r), r.ravel()[rows])
    q = fold.state(fold.unknowns(r)).q
    assert q.shape == (p.dim, p.dim) and not q[:n_lo].any() and not q[:, :n_lo].any()
    assert np.array_equal(q[n_lo:, n_lo:], r * fold.gauge() / np.trace(r))


def test_generator_size_guard(monkeypatch):
    # the solvers fold and apply the generator without assembling it; each
    # must refuse before allocating anything of the basis's size
    monkeypatch.setattr(steady, "DEFAULT_MAX_DIM", 20)
    p = MasterParams(1.0, KickParams(0.1), HALF, 30)
    with pytest.raises(ResourceError):
        build_generator(p)
    with pytest.raises(ResourceError):
        steady_state(p)
    with pytest.raises(ResourceError):
        evolve(p, vacuum(30), 1.0)


def test_weak_pump_mean():
    s = lu_at_the_recursion_cutoff(1000.0, AtomState(0.5, 0.0), KickParams(0.01))
    assert mean_photon(s) == pytest.approx(0.025, rel=0.02)


def test_strong_pump_plateau():
    # quarter-excited beam: the mean converges to rho/(1 - 2 rho) = 1/2 from
    # below as the pump parameter grows; p = 1000 sits within half a percent
    s = lu_at_the_recursion_cutoff(1e7, AtomState(0.25, 0.0), KickParams(0.01))
    assert mean_photon(s) == pytest.approx(0.5, rel=0.05)


def test_phased_beam_builds_coherent_state():
    s = steady_state_auto(100.0, HALF, KickParams(0.01))
    assert fidelity_to_coherent(s, -0.5j) >= 0.99
    assert mean_photon(s) == pytest.approx(0.25, rel=0.05)


def test_solution_is_generator_fixed_point():
    for n_c, g_tau, atom in ((10.0, 0.05, HALF), (40.0, 0.02, AtomState(0.8, 0.0))):
        s = steady_state_auto(n_c, atom, KickParams(g_tau))
        p = MasterParams(n_c, KickParams(g_tau), atom, s.n_max)
        gen = build_generator(p)
        flow = (gen @ s.q.ravel()).reshape(s.dim, s.dim)
        dn_dt = float(np.real(np.arange(s.dim) @ np.diag(flow)))
        assert abs(dn_dt) <= 1e-8


def _check_gauge_covariance(theta, phi, ref_theta, rotation):
    # the solve runs in a real gauge set by arg(rho_eg); the answer must
    # still satisfy the complex generator and rotate with the atom phase,
    # Q[n, m] -> exp(-i rotation (n - m)) Q[n, m], against the unrotated
    # atom of area ref_theta with the same rho_ee and |rho_eg|
    k = KickParams(0.05)
    atom = dephase(prepare(theta, phi), 0.8)
    n_max = suggest_n_max(30.0, atom, k.g_tau)
    p = MasterParams(30.0, k, atom, n_max)
    s = steady_state(p)
    assert np.max(np.abs(build_generator(p) @ s.q.ravel())) <= 1e-9
    ref = steady_state(MasterParams(30.0, k, dephase(prepare(ref_theta, 0.0), 0.8), n_max))
    n = np.arange(s.dim)
    rotated = np.exp(-1j * rotation * (n[:, None] - n[None, :])) * ref.q
    assert np.max(np.abs(s.q - rotated)) <= 1e-12
    assert abs(s.q[1, 0]) >= 1e-3


@pytest.mark.parametrize(
    "theta, phi, ref_theta, rotation",
    [
        (1.1, 0.7, 1.1, 0.7),
        # past pi, rho_eg < 0: the area 2 pi - theta rotated by pi
        (4.0, 0.0, 2.0 * math.pi - 4.0, math.pi),
    ],
)
def test_phased_solution_is_gauge_covariant(theta, phi, ref_theta, rotation):
    _check_gauge_covariance(theta, phi, ref_theta, rotation)


@settings(max_examples=15, deadline=None)
@given(
    theta=st.floats(0.3, 2.0 * math.pi - 0.3).filter(lambda t: abs(math.sin(t)) >= 0.3),
    phi=st.floats(-math.pi, math.pi),
)
def test_phased_solution_is_gauge_covariant_at_any_phase(theta, phi):
    # past pi the atom is the area 2 pi - theta rotated by an extra pi
    if theta > math.pi:
        _check_gauge_covariance(theta, phi, 2.0 * math.pi - theta, phi + math.pi)
    else:
        _check_gauge_covariance(theta, phi, theta, phi)


def test_phase_diffusion_is_the_generator_diagonal():
    # -(1/2) Gamma_phi (n - m)^2 on vec(Q), on the full basis and on a window
    a = dephase(prepare(1.1, 0.7), 0.8)
    for n_lo in (0, 3):
        p = MasterParams(20.0, KickParams(0.1), a, 9, n_lo)
        n = np.arange(n_lo, 10)
        term = -0.5 * 2.5 * ((n[:, None] - n[None, :]) ** 2).ravel()
        diff = build_generator(dataclasses.replace(p, dephasing=2.5)) - build_generator(p)
        assert np.max(np.abs(diff.toarray() - np.diag(term))) <= 1e-12


@pytest.mark.parametrize(
    "n_c, theta, coherence", [(10.0, HALF_PULSE, 1.0), (3.0, 1.1, 1.0), (10.0, 2.0, 0.5)]
)
def test_dephased_beam_matches_the_small_angle_closed_form(n_c, theta, coherence):
    # to lowest order in g_tau, <a> relaxes at 1 + Gamma_phi / 2 instead of 1,
    # so only the coherent part shrinks:
    # <n> = n_c g_tau^2 rho_ee / 2 + (n_c g_tau |rho_eg|)^2 / (1 + Gamma_phi / 2)
    a = dephase(prepare(theta), coherence)
    g_tau = 0.002
    for rate in (0.0, 0.5, 2.0, 10.0):
        s = steady_state_auto(n_c, a, KickParams(g_tau), dephasing=rate)
        coherent = (n_c * g_tau * abs(a.rho_eg)) ** 2 / (1.0 + 0.5 * rate)
        ref = 0.5 * n_c * g_tau**2 * a.rho_ee + coherent
        assert mean_photon(s) == pytest.approx(ref, rel=1e-4)


def lu_at_the_recursion_cutoff(n_c, a, k, dephasing=0.0):
    """steady_state's LU for a rho_eg = 0 atom, which steady_state_auto answers
    with the recursion itself, at the cutoff the recursion accepts."""
    n_max = steady_state_auto(n_c, a, k).n_max
    return steady_state(MasterParams(n_c, k, a, n_max, dephasing=dephasing))


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.1, 300.0),
    st.floats(0.0, 1.0),
    st.floats(0.005, 0.3),
    st.floats(0.0, 100.0),
)
def test_dephasing_leaves_the_random_phase_state_alone(n_c, rho_ee, g_tau, rate):
    # with rho_eg = 0 the steady state is diagonal, where (n - m)^2 vanishes
    a, k = AtomState(rho_ee, 0.0), KickParams(g_tau)
    s = lu_at_the_recursion_cutoff(n_c, a, k, rate)
    assert np.array_equal(s.q, steady_state(MasterParams(n_c, k, a, s.n_max)).q)


@pytest.mark.parametrize(
    "n_c, rho_ee, g_tau, n_max, rate",
    [
        # steady-large's random-phase point, at the cutoff its search once accepted
        (1500.0, 0.75, 0.05, 320, 0.0),
        # test_01's five points
        (1.0, 0.25, 0.01, 11, 0.0),
        (100.0, 0.5, 0.01, 11, 0.0),
        (1.0, 1.0, 0.1, 11, 0.0),
        (100.0, 0.5, 0.1, 16, 0.0),
        (100.0, 1.0, 0.01, 11, 0.0),
        # fig3's baselines at 0.224 and 2.5 excited atoms
        (9.396205193626102, 0.5, 0.1840344976472901, 13, 0.0),
        (105.05276771742268, 0.5, 0.1840344976472901, 42, 0.0),
        # phase noise leaves the diagonal state alone
        (100.0, 0.5, 0.1, 16, 1.0),
    ],
)
def test_lu_matches_the_random_phase_recursion(n_c, rho_ee, g_tau, n_max, rate):
    # steady_state_auto takes these states from the recursion itself, so
    # the LU is held to it here, on its own
    s = steady_state(MasterParams(n_c, KickParams(g_tau), AtomState(rho_ee, 0.0), n_max,
                                  dephasing=rate))
    ref = pn_random_phase(n_c, rho_ee, g_tau, n_max)
    assert np.max(np.abs(np.real(np.diag(s.q)) - ref)) <= 1e-8


@pytest.mark.parametrize(
    "n_c, rho_ee, g_tau",
    [
        # test_02's p = 20 point, where the recursion once stopped at 17 levels
        (2e5, 0.25, 0.01),
        # fig3's baseline at 2.04 excited atoms, where it once stopped at 20
        (85.90852218092107, 0.5, 0.1840344976472901),
    ],
)
def test_lu_accepts_the_cutoff_the_recursion_accepts(n_c, rho_ee, g_tau):
    # both paths refuse a cutoff by the same two upper-edge rules, so the LU
    # takes steady_state_auto's cutoff as it stands
    a, k = AtomState(rho_ee, 0.0), KickParams(g_tau)
    n_max = steady_state_auto(n_c, a, k).n_max
    s = steady_state(MasterParams(n_c, k, a, n_max))
    ref = pn_random_phase(n_c, rho_ee, g_tau, n_max)
    assert np.max(np.abs(photon_distribution(s) - ref)) <= 1e-8


def test_auto_takes_a_phase_averaged_atom_from_the_recursion(monkeypatch):
    splu = scipy.sparse.linalg.splu
    factored = []

    def counting_splu(*args, **kwargs):
        factored.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    for n_max, rate in ((None, 0.0), (40, 1.0)):
        s = steady_state_auto(1500.0, AtomState(0.75, 0.0), KickParams(0.05), n_max, rate)
        assert np.array_equal(s.q, np.diag(np.diag(s.q)))
        assert mean_photon(s) == pytest.approx(16.019248887, rel=1e-9)
    assert factored == []


def test_a_random_phase_search_asks_the_estimate_once(monkeypatch):
    # a diagonal state's window top does not depend on the dephasing, and
    # its lower edge would be thrown away: the dephased search starts at
    # suggest_n_max, one undephased estimate, and never places a window
    spread = steady._photon_spread
    calls = []

    def counting_spread(*args):
        calls.append(args)
        return spread(*args)

    def no_window(*args):
        raise AssertionError("a random-phase search placed a window")

    monkeypatch.setattr(steady, "_photon_spread", counting_spread)
    monkeypatch.setattr(steady, "_window_edges", no_window)
    a, k = AtomState(0.75, 0.0), KickParams(0.05)
    dephased = steady_state_auto(1500.0, a, k, dephasing=1.0)
    assert len(calls) == 1
    assert np.array_equal(dephased.q, steady_state_auto(1500.0, a, k).q)


def test_solution_matches_recursion_exactly():
    s = lu_at_the_recursion_cutoff(10.0, AtomState(1.0, 0.0), KickParams(0.05))
    p_rec = pn_random_phase(10.0, 1.0, 0.05, s.n_max)
    assert np.max(np.abs(photon_distribution(s) - p_rec)) <= 1e-8


def test_mean_monotone_in_flux_for_inverted_beam():
    a = AtomState(1.0, 0.0)
    k = KickParams(0.05)
    means = [mean_photon(lu_at_the_recursion_cutoff(float(n_c), a, k)) for n_c in range(1, 129)]
    assert np.all(np.diff(means) >= -1e-12)


def test_purity_in_dipole_dominant_regime():
    s = steady_state_auto(100.0, HALF, KickParams(0.01))
    purity = float(np.trace(s.q @ s.q).real)
    assert purity >= 0.98


def test_truncation_reported_not_hidden():
    with pytest.raises(TruncationError):
        steady_state(MasterParams(50.0, KickParams(0.1), AtomState(1.0, 0.0), 3))


def test_auto_growth_from_tight_start():
    # at the random-phase point, 4 levels pass the recursion's own tail
    # estimate (8.6e-9) but keep 3.5e-7 on the top level
    for n_c, atom, k in ((50.0, HALF, KickParams(0.05)),
                         (1000.0, AtomState(0.5, 0.0), KickParams(0.01))):
        s = steady_state_auto(n_c, atom, k, n_max=4)
        assert s.n_max > 4
        assert float(np.real(s.q[-1, -1])) <= 1e-8


def test_auto_stops_doubling_at_ceiling(monkeypatch):
    monkeypatch.setattr(steady, "DEFAULT_MAX_DIM", 9)
    # the random-phase atom takes the recursion, not the LU, through the same guard
    for atom, k in ((HALF, KickParams(0.05)), (AtomState(1.0, 0.0), KickParams(0.1))):
        with pytest.raises(TruncationError):
            steady_state_auto(50.0, atom, k, n_max=4)
        with pytest.raises(ResourceError):
            steady_state_auto(50.0, atom, k, n_max=20)


def test_auto_clips_a_predicted_start_to_the_ceiling():
    # just below the lasing threshold the noncollective mean's denominator is
    # 7e-4, so the window estimate reads 1509 photons, past the guard; the
    # recursion holds the state on the guard's largest cutoff, and <n> = 10.3
    # agrees with a search that starts at n_max 40 and stops at 161 levels
    a, k = AtomState(0.9876708696600728, 0.0), KickParams(0.1275543820714748)
    s = steady_state_auto(125.94795947678931, a, k)
    assert s.n_max == steady.DEFAULT_MAX_DIM - 1
    low = steady_state_auto(125.94795947678931, a, k, n_max=40)
    assert mean_photon(s) == pytest.approx(mean_photon(low), rel=1e-9)


def test_auto_clips_growth_to_ceiling(monkeypatch):
    # n_max 16 is the first cutoff that passes here; doubling 10 overshoots
    # the guard's largest cutoff 16, so growth must stop there, not give up
    with pytest.raises(TruncationError):
        steady_state(MasterParams(50.0, KickParams(0.05), HALF, 15))
    monkeypatch.setattr(steady, "DEFAULT_MAX_DIM", 17)
    s = steady_state_auto(50.0, HALF, KickParams(0.05), n_max=10)
    assert s.n_max == 16
    assert float(np.real(s.q[-1, -1])) <= 1e-8


def test_upper_tail_is_caught_and_the_search_doubles_past_it(monkeypatch):
    # at n_c 0.01, g_tau 0.3 the 3-level basis solves to a residual within
    # tolerance, trace row included, but keeps 4.7e-8 on its top level
    k = KickParams(0.3)
    with pytest.raises(TruncationError, match=r"keeps 4\.706e-08 population at n_max=2"):
        steady_state(MasterParams(0.01, k, HALF, 2))
    tried = []

    def record(p):
        tried.append(p.n_max)
        return steady_state(p)

    monkeypatch.setattr(steady, "steady_state", record)
    s = steady_state_auto(0.01, HALF, k, n_max=2)
    assert tried == [2, 4]
    assert float(np.real(s.q[-1, -1])) < 1e-14


def test_an_attempt_factors_once_and_solves_once(monkeypatch):
    # at n_c 1e7 the quarter-excited beam keeps only 1.6e-9 on level 18, but
    # the pump lifts that level out at a rate above the residual rule: a
    # trace leak, found from the first and only solve
    splu = scipy.sparse.linalg.splu
    calls = []

    class CountingLU:
        def __init__(self, *args, **kwargs):
            calls.append("factor")
            self.lu = splu(*args, **kwargs)

        def solve(self, b):
            calls.append("solve")
            return self.lu.solve(b)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", CountingLU)
    p = MasterParams(1e7, KickParams(0.01), AtomState(0.25, 0.0), 18)
    with pytest.raises(
        TruncationError, match=r"^trace leaks out of levels 0\.\.18 at rate 5\.055e-06; "
    ):
        steady_state(p)
    assert calls == ["factor", "solve"]


def _box_unknowns(width, box):
    """Triu indices of the unknowns R[n, m], n <= m, with n0 <= n <= n1 and m0 <= m <= m1."""
    n0, n1, m0, m1 = box
    n, m = np.triu_indices(width)
    return np.flatnonzero((n0 <= n) & (n <= n1) & (m0 <= m) & (m <= m1))


@pytest.mark.parametrize("width", [1, 2, 3, 17, 200])
def test_dissection_orders_each_half_before_its_separator(width):
    size = width * (width + 1) // 2
    rank = steady._dissection_rank(width)
    assert np.array_equal(np.sort(rank), np.arange(size))
    assert rank[0] == size - 1
    # stencil neighbours are the couplings of the folded generator, both
    # ways, at a point where every band of the stencil is nonzero
    if width > 1:
        p = MasterParams(5.0, KickParams(0.1), AtomState(0.6, 0.3j), width - 1, dephasing=1.0)
        g = steady._folded_generator(p)[0]
        coupled = (abs(g) + abs(g.T)).tocsr()
    boxes = [(0, width - 1, 0, width - 1)]
    while boxes:
        box = boxes.pop()
        inside = _box_unknowns(width, box)
        ranks = np.sort(rank[inside[inside != 0]])
        assert ranks.size == 0 or ranks[-1] - ranks[0] == ranks.size - 1
        split = steady._halves(box)
        if split is None:
            assert inside.size <= steady._DISSECTION_LEAF
            continue
        first, second, sep = (_box_unknowns(width, b) for b in split)
        assert np.array_equal(np.sort(np.concatenate((first, second, sep))), inside)
        side = np.zeros(size, dtype=np.int64)
        side[second] = 1
        assert not np.any(side[coupled[first].indices])
        first, second, sep = (rank[part[part != 0]] for part in (first, second, sep))
        assert first.max(initial=-1) < second.min(initial=size)
        assert max(first.max(initial=-1), second.max(initial=-1)) < sep.min()
        boxes += split[:2]


def _captured_lu(monkeypatch, p):
    """steady_state(p)'s system a, right side b, factor lu and solution x; splu is restored."""
    splu = scipy.sparse.linalg.splu
    seen = {}

    class CapturingLU:
        def __init__(self, a, **kwargs):
            seen["a"] = a
            self.lu = seen["lu"] = splu(a, **kwargs)

        def solve(self, b):
            seen["b"], seen["x"] = b, self.lu.solve(b)
            return seen["x"]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", CapturingLU)
    steady_state(p)
    monkeypatch.undo()
    return seen


def _assert_same_solution(seen, reference):
    x = reference.solve(seen["b"])
    assert np.max(np.abs(seen["x"] - x)) <= 1e-12 * np.max(np.abs(x))


def test_dissection_order_fills_less_than_minimum_degree(monkeypatch):
    # SuperLU's MMD_ATA on the very matrix steady_state factors is the
    # reference: 0.53x its fill was measured at this point (129 levels)
    seen = _captured_lu(monkeypatch, MasterParams(300.0, KickParams(0.05), HALF, 128))
    reference = scipy.sparse.linalg.splu(seen["a"], permc_spec="MMD_ATA")
    assert seen["lu"].nnz <= 0.8 * reference.nnz
    _assert_same_solution(seen, reference)


@pytest.mark.parametrize(
    "p",
    [
        MasterParams(300.0, KickParams(0.05), HALF, 128),  # the transient's steady solve
        MasterParams(1000.0, KickParams(0.05), HALF, 419, n_lo=82),  # steady-large's window
        MasterParams(120.0, KickParams(0.1), prepare(1.2, 0.7), 69, dephasing=0.5),
    ],
    ids=["full-basis", "window", "dephased-complex"],
)
def test_threshold_pivoting_keeps_the_dissection_diagonal(monkeypatch, p):
    # default partial pivoting moves rows off the dissection order's diagonal
    # (705 of 8385 at 129 levels, 3 under the threshold) and stores 1.05x to
    # 1.21x the threshold factor's entries at these points; the state must not move
    seen = _captured_lu(monkeypatch, p)
    reference = scipy.sparse.linalg.splu(seen["a"], permc_spec="NATURAL")
    assert seen["lu"].nnz < reference.nnz
    _assert_same_solution(seen, reference)


def test_a_wrong_gauge_shows_as_a_residual(monkeypatch):
    # the fold keeps its own gauge angle, so only the unfolded state the
    # ungauged check reads is wrong, and that shows off the trace row
    gauge = steady._Fold.gauge
    monkeypatch.setattr(steady._Fold, "gauge", lambda fold: gauge(fold).conj())
    with pytest.raises(ConvergenceError, match=r"^steady-state residual 3\.647e-01 above 1e-09$"):
        steady_state(MasterParams(20.0, KickParams(0.05), prepare(math.pi / 2, 1.0), 40))


def test_window_edge_flux_is_caught():
    # at n_lo = 140 the trace row leaks only 1.6e-11 and the edge holds
    # 3.8e-14, yet the coherences Q[140, m] flow out of the window through
    # loss and absorption: the zero-padded state misses the full generator
    # by 2.9e-7, which only the residual one level wider sees
    k = KickParams(0.05)
    with pytest.raises(TruncationError, match="n_lo=140"):
        steady_state(MasterParams(1000.0, k, HALF, 419, n_lo=140))
    s = steady_state(MasterParams(1000.0, k, HALF, 419, n_lo=82))
    assert not np.any(s.q[:82])


@pytest.mark.parametrize(
    "n_c, pinned",
    # 249.891350914484 is the benchmark's steady-large coherent oracle
    [(1000.0, 249.891350914484), (1300.0, None), (1550.0, None)],
)
def test_window_matches_full_basis(n_c, pinned):
    k = KickParams(0.05)
    n_lo = steady._window_edges(n_c, HALF, k.g_tau, 0.0)[0]
    s = steady_state_auto(n_c, HALF, k)
    assert n_lo > 0
    assert not np.any(s.q[:n_lo]) and not np.any(s.q[:, :n_lo])
    p = MasterParams(n_c, k, HALF, s.n_max)
    assert mean_photon(s) == pytest.approx(mean_photon(steady_state(p)), rel=1e-10)
    assert np.max(np.abs(build_generator(p) @ s.q.ravel())) <= 1e-9
    if pinned is not None:
        assert mean_photon(s) == pytest.approx(pinned, rel=1e-8)


def test_auto_falls_back_to_full_basis_when_a_window_fails(monkeypatch):
    # a window forced to [40, 60] around a mean near 49 fails its edges; the
    # retry on the full basis at 60 truncates too, so the cutoff doubles
    k = KickParams(0.1)
    monkeypatch.setattr(steady, "_window_edges", lambda *args: (40, 60))
    s = steady_state_auto(200.0, HALF, k)
    assert s.n_max == 120
    ref = steady_state(MasterParams(200.0, k, HALF, 120))
    assert np.max(np.abs(s.q - ref.q)) == 0.0


def _solves(monkeypatch) -> list:
    """The (n_lo, n_max) of every steady_state call from now on."""
    calls = []
    inner = steady.steady_state

    def counted(p):
        calls.append((p.n_lo, p.n_max))
        return inner(p)

    monkeypatch.setattr(steady, "steady_state", counted)
    return calls


def _random_points(seed: int, count: int) -> list:
    """(n_c, g_tau, theta, dephasing) with n_c in 1-2000 and g_tau in 0.01-0.2, both log-uniform."""
    rng = np.random.default_rng(seed)
    return [
        (10.0 ** rng.uniform(0.0, math.log10(2000.0)), 10.0 ** rng.uniform(-2.0, math.log10(0.2)),
         rng.uniform(0.05, math.pi - 0.05), float(rng.choice([0.0, 0.1, 1.0])))
        for _ in range(count)
    ]


# fig2's pump: n_mean 1 at (g, gamma_c) = 2 pi (290, 75) kHz, tau 101 ns
FIG2_NC, FIG2_GTAU = 1.0 / (2.0 * math.pi * 75e3 * 101e-9), 2.0 * math.pi * 290e3 * 101e-9


@pytest.mark.parametrize(
    "n_c, g_tau, theta",
    [(1000.0, 0.05, HALF_PULSE), (300.0, 0.05, HALF_PULSE)]
    # fig2's grid near rho_ee = 1, where the field is super-Poissonian
    + [(FIG2_NC, FIG2_GTAU, j * 1.25 * math.pi / 50) for j in (36, 37, 38, 39, 41, 42, 43, 44)],
)
def test_first_window_holds(monkeypatch, n_c, g_tau, theta):
    calls = _solves(monkeypatch)
    steady_state_auto(n_c, prepare(theta), KickParams(g_tau))
    assert len(calls) == 1


def test_first_window_holds_on_a_random_grid(monkeypatch):
    # under a fixed margin of ten sqrt(<n>) and ten levels, points 2, 7, 50
    # and 79, all near rho_ee = 1, needed a second solve
    calls = _solves(monkeypatch)
    for i, (n_c, g_tau, theta, dephasing) in enumerate(_random_points(0, 80)):
        calls.clear()
        steady_state_auto(n_c, prepare(theta), KickParams(g_tau), dephasing=dephasing)
        assert len(calls) == 1, (i, calls)


def _full_basis_mean(n_c: float, g_tau: float, n_max: int) -> float:
    return mean_photon(steady_state(MasterParams(n_c, KickParams(g_tau), HALF, n_max)))


def test_suggested_cutoff_in_coherent_regime():
    # <n> 0.25 is nearly Poissonian: seven of its standard deviations and ten levels
    n = suggest_n_max(100.0, HALF, 0.01)
    assert n == 14
    s = steady_state_auto(100.0, HALF, KickParams(0.01))
    assert s.n_max == n
    assert mean_photon(s) == pytest.approx(_full_basis_mean(100.0, 0.01, 2 * n), rel=1e-10)


def test_dephased_beam_above_threshold_has_a_balance_root():
    # kappa (2 rho_ee - 1) = 3 > 2: the gain beats the loss at small angles,
    # so the balance has a root and the cutoff covers the lasing field
    a = AtomState(1.0, 0.0)
    assert _balance_angle(300.0, a, 0.1) > 0.0
    assert suggest_n_max(300.0, a, 0.1) >= 116


def test_suggested_cutoff_tracks_saturated_field():
    # semiclassical balance puts the mean near 297 at this flux, with a
    # Poisson field's spread, sigma 17.2: the window is [149, 429], ten
    # levels past eight sigma below the mean and seven above it
    k = KickParams(0.05)
    n = suggest_n_max(1200.0, HALF, k.g_tau)
    assert n == 429
    s = steady_state_auto(1200.0, HALF, k)
    assert s.n_max == n
    assert mean_photon(s) == pytest.approx(_full_basis_mean(1200.0, k.g_tau, n + 30), rel=1e-10)


@settings(max_examples=15, deadline=None)
@given(
    st.floats(1.0, 30.0),
    st.floats(0.02, 0.15),
    st.floats(0.3, 3.0),
    st.floats(-math.pi, math.pi),
)
def test_held_cutoff_is_the_least_level_both_edge_rules_hold_from(n_c, g_tau, theta, phi):
    # at and above the cutoff every level keeps at most TAIL_TOL population
    # and leaks the trace no faster than _RESIDUAL_TOL, at the rate that
    # test_generator_annihilates_the_trace pins; searched for by brute force
    a, k = prepare(theta, phi), KickParams(g_tau)
    s = steady_state_auto(n_c, a, k)
    pn = photon_distribution(s)
    leak = n_c * a.rho_ee * np.sin(g_tau * np.sqrt(np.arange(s.dim) + 1.0)) ** 2 * pn
    ok = (pn <= TAIL_TOL) & (leak <= steady._RESIDUAL_TOL)
    least = next((n for n in range(s.dim) if ok[n:].all()), s.n_max)
    assert steady._held_cutoff(MasterParams(n_c, k, a, s.n_max), s) == least


def test_held_cutoff_reads_every_level_above_it():
    # a bump two levels under the top refuses every cutoff below it
    pn = np.full(21, 1e-12)
    pn[0], pn[18] = 1.0, 1e-7
    s = FieldState(np.diag(pn / pn.sum()))
    assert steady._held_cutoff(MasterParams(1.0, KickParams(0.05), HALF, 20), s) == 19


def test_held_cutoff_leak_is_the_generator_trace_row(monkeypatch):
    # minus build_generator's vec(I) row at (n, n) times p_n is the rate at
    # which a cutoff n leaks the trace. At the transient benchmark's point the
    # leak rate decides the held cutoff n, so a rate bound a hair above that
    # rate keeps n, and one a hair below it moves the cutoff up one level
    a, k = HALF, KickParams(0.05)
    s = steady_state_auto(300.0, a, k)
    p = MasterParams(300.0, k, a, s.n_max)
    n = steady._held_cutoff(p, s)
    row = np.eye(n + 1).ravel() @ build_generator(dataclasses.replace(p, n_max=n))
    leak = -row[n * (n + 2)] * photon_distribution(s)[n]
    assert n < s.n_max
    for scale, held in ((1.0 + 1e-12, n), (1.0 - 1e-12, n + 1)):
        monkeypatch.setattr(steady, "_RESIDUAL_TOL", leak * scale)
        assert steady._held_cutoff(p, s) == held


def test_evolve_zero_duration():
    p = MasterParams(5.0, KickParams(0.05), HALF, 8)
    q0 = vacuum(8)
    times, states = evolve(p, q0, 0.0)
    assert len(times) == 1
    assert np.allclose(states[0].q, q0.q)


def test_evolve_reaches_steady_state():
    s = steady_state_auto(20.0, HALF, KickParams(0.05))
    p = MasterParams(20.0, KickParams(0.05), HALF, s.n_max)
    _, states = evolve(p, vacuum(s.n_max), 10.0)
    assert mean_photon(states[-1]) == pytest.approx(mean_photon(s), abs=1e-3)
    for state in states[:: len(states) // 4]:
        state.validate()


def test_evolve_reports_a_transient_past_the_cutoff():
    # the field heads for <n> = 47.9: 31 levels would put 0.045 on the top
    # one and renormalize the rest into <n> = 17, 91 still 6.8e-8, 121 none
    p = MasterParams(300.0, KickParams(0.05), HALF, 30)
    for n_max in (30, 90):
        with pytest.raises(TruncationError, match=f"n_max={n_max}"):
            evolve(dataclasses.replace(p, n_max=n_max), vacuum(n_max), 8.0)
    _, states = evolve(dataclasses.replace(p, n_max=120), vacuum(120), 8.0)
    assert mean_photon(states[-1]) == pytest.approx(47.888, rel=1e-3)


def test_a_basis_failing_top_and_leak_reports_the_top(monkeypatch):
    # levels 0..30 of a field heading for <n> = 47.9 keep 1.8e-2 on the top
    # level and leak trace at 0.2: _check_edges reads the top first
    p = MasterParams(300.0, KickParams(0.05), HALF, 30)
    with pytest.raises(
        TruncationError, match=r"^steady state keeps 1\.757e-02 population at n_max=30 or past"
    ):
        steady_state(p)
    monkeypatch.setattr(steady, "check_tail", lambda *args: None)
    with pytest.raises(
        TruncationError, match=r"^trace leaks out of levels 0\.\.30 at rate 1\.990e-01; "
    ):
        steady_state(p)


def _auto(n_c, a, g_tau):
    return lambda: steady_state_auto(n_c, a, KickParams(g_tau))


# (n_c, dephasing) within MasterParams' bound whose first transient run overflows
_OVERFLOWING_TRIALS = [(1e150, 0.0), (1e200, 0.0), (1e300, 0.0), (1.0, 1e150), (1.0, 1e300)]


@pytest.mark.parametrize(
    "call, error, match, guard",
    [
        # both window edges round to one float
        (_auto(1e300, HALF, 1e-30), ResourceError, "past float resolution", None),
        # n_c g_tau^2 overflows, for the LU and for the recursion
        (_auto(1.0, HALF, 1e300), ValueError, r"^n_c \* g_tau\*\*2 must be finite", None),
        (_auto(1.0, AtomState(0.5, 0.0), 1e300), ValueError,
         r"^n_c \* g_tau\*\*2 must be finite", None),
        # the predicted field is too strong for the balance's difference quotient
        (_auto(1e-300, AtomState(0.5, 0.0), 1e300), ResourceError, "past float resolution", None),
        (_auto(1e-300, HALF, 1e300), ResourceError, "solver guard", None),
        # n_c g_tau^2 is finite, but the balance's scan would overflow; under a
        # 60-level guard the last once reached SuperLU, which found it singular
        (_auto(1.0, AtomState(0.0, 0.0), 1e154), ValueError,
         r"^n_c \* g_tau\*\*2 must lie in \[0, 1e\+300\]", None),
        (_auto(1.7e308, AtomState(1.0, 0.0), 1.0), ValueError, r"^n_c \* g_tau\*\*2 must lie in",
         None),
        (_auto(1.7e308, prepare(2.0), 1.0), ValueError, r"^n_c \* g_tau\*\*2 must lie in", 60),
        # a given basis skips the balance: the generator's diagonal overflowed on the way
        # into SuperLU, which found the factor singular (50 levels) or let a residual of
        # 1e293 through (20 levels); a dephasing of 1e308 warned its way to a residual
        (lambda: steady_state(MasterParams(1e308, KickParams(1.0), prepare(2.0), 50)),
         ValueError, r"^n_c must lie in \[0, 1e\+300\], got 1e\+308$", None),
        (lambda: steady_state(MasterParams(1e308, KickParams(1.0), prepare(2.0), 20)),
         ValueError, r"^n_c must lie in \[0, 1e\+300\]", None),
        (lambda: steady_state(MasterParams(1.0, KickParams(1.0), prepare(2.0), 50, dephasing=1e308)),
         ValueError, r"^dephasing must lie in \[0, 1e\+300\], got 1e\+308$", None),
        (lambda: evolve(MasterParams(1e308, KickParams(1.0), prepare(2.0), 50), vacuum(50), 1.0),
         ValueError, r"^n_c must lie in \[0, 1e\+300\]", None),
        (lambda: evolve(MasterParams(1.0, KickParams(1.0), prepare(2.0), 50, dephasing=1e308),
                        vacuum(50), 1.0),
         ValueError, r"^dephasing must lie in \[0, 1e\+300\]", None),
        # within the bound the first Krylov run overflows: its error estimate is
        # nan, and no warning comes first
        *[(lambda n_c=n_c, rate=rate: evolve(
              MasterParams(n_c, KickParams(1.0), prepare(2.0), 50, dephasing=rate), vacuum(50), 1.0),
           ConvergenceError, r"^transient integration failed: error estimate nan at t=0\.0$", None)
          for n_c, rate in _OVERFLOWING_TRIALS],
        # within the bound a ground-state beam still leaves SuperLU a zero pivot
        (lambda: steady_state(MasterParams(1e200, KickParams(math.pi), AtomState(0.0, 0.0), 20)),
         ConvergenceError, r"^steady-state factorization failed: Factor is exactly singular$",
         None),
    ],
    ids=["one-float-window", "kappa-overflow", "kappa-overflow-random-phase",
         "strong-field-random-phase", "strong-field", "balance-overflow-ground",
         "balance-overflow-inverted", "balance-overflow-singular-factor",
         "given-basis-n_c-overflow", "given-basis-n_c-overflow-small", "given-basis-dephasing",
         "evolve-n_c-overflow", "evolve-dephasing-overflow",
         *[f"evolve-overflowing-trial-{n_c:g}-{rate:g}" for n_c, rate in _OVERFLOWING_TRIALS],
         "singular-factor"],
)
def test_absurd_inputs_are_refused_by_type(call, error, match, guard, monkeypatch):
    # the suite turns a warning on the way into an error
    if guard is not None:
        monkeypatch.setattr(steady, "DEFAULT_MAX_DIM", guard)
    with pytest.raises(error, match=match):
        call()


def test_evolve_holds_its_samples_folded():
    # the 81 samples stay 81 dim(dim+1)/2 reals until read: the whole call
    # peaks below what they alone take as dense complex matrices, 81 dim^2
    # 16 bytes (28.2 MiB here); measured 13.5 MiB, and 38.1 MiB when evolve
    # built every sample's FieldState
    dim = 151
    p = MasterParams(300.0, KickParams(0.05), HALF, dim - 1)
    tracemalloc.start()
    try:
        _, states = evolve(p, vacuum(dim - 1), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 81 * dim**2 * 16
    # read, a sample is the FieldState of its time, one at a time
    assert len(states) == 81 and len(states[::2]) == 41 and len(states[-3:]) == 3
    assert np.array_equal(states[-1].q, states[80].q)
    assert np.array_equal(states[::2][-1].q, states[80].q)
    assert [s.dim for s in states] == [dim] * 81
    with pytest.raises(IndexError):
        states[81]


def test_populations_are_each_samples_photon_distribution():
    # read off the diagonal unknowns, without unfolding a sample
    p = MasterParams(30.0, KickParams(0.1), dephase(prepare(1.1, 0.7), 0.8), 40, dephasing=0.5)
    _, states = evolve(p, vacuum(40), 2.0)
    pops = states.populations()
    assert pops.shape == (81, 41)
    want = np.array([photon_distribution(s) for s in states])
    assert np.max(np.abs(pops - want)) <= 1e-15
    assert np.array_equal(states[10:20].populations(), pops[10:20])


def test_evolve_refuses_a_basis_that_leaks_trace():
    # on levels 0..95 the top level keeps 4.6e-9, within the tail rule, but it
    # leaks trace at 1.5e-7, past the 1e-9 rate steady_state allows
    p = MasterParams(300.0, KickParams(0.05), HALF, 95)
    with pytest.raises(TruncationError, match=r"trace leaks out of levels 0\.\.95 at rate 1\.5"):
        evolve(p, vacuum(95), 8.0)


@pytest.mark.parametrize(
    "atom",
    [
        dephase(prepare(1.1, 0.7), 0.8),
        dephase(prepare(4.0), 0.8),
        dephase(prepare(math.pi / 2.0, 2.5), 0.8),
    ],
)
def test_evolve_matches_matrix_exponential(atom):
    # the ODE runs on the folded real state; the exponential of the complex
    # generator on the full vec(Q) is an independent reference
    p = MasterParams(30.0, KickParams(0.1), atom, 40)
    times, states = evolve(p, vacuum(40), 3.0)
    ref = scipy.sparse.linalg.expm_multiply(
        build_generator(p), vacuum(40).q.ravel(), start=0.0, stop=3.0, num=81, endpoint=True
    )
    assert np.allclose(times, np.linspace(0.0, 3.0, 81))
    got = np.array([s.q.ravel() for s in states])
    assert np.max(np.abs(got - ref)) <= 1e-6
    assert mean_photon(states[-1]) >= 0.1


@pytest.mark.parametrize(
    "n_c, g_tau, atom, n_max, t_end",
    [(100.0, 0.05, HALF, 30, 2.0), (30.0, 0.1, dephase(prepare(1.1, 0.7), 0.8), 40, 3.0)],
)
def test_evolve_mean_matches_matrix_exponential(n_c, g_tau, atom, n_max, t_end):
    # <n>(t) at every sample, against the exponential of the complex generator;
    # measured 2.8e-12 and 3.9e-12
    p = MasterParams(n_c, KickParams(g_tau), atom, n_max)
    _, states = evolve(p, vacuum(n_max), t_end)
    ref = scipy.sparse.linalg.expm_multiply(
        build_generator(p), vacuum(n_max).q.ravel(), start=0.0, stop=t_end, num=81, endpoint=True
    )
    want = np.array([mean_photon(FieldState(q.reshape(n_max + 1, n_max + 1))) for q in ref])
    got = np.array([mean_photon(s) for s in states])
    assert got[0] == want[0] == 0.0
    assert np.max(np.abs(got[1:] / want[1:] - 1.0)) <= 1e-9


def _folded(p: MasterParams):
    """The folded generator of p as CSR, and its vacuum's unknowns."""
    g, fold = steady._folded_generator(p)
    return g.tocsr(), fold.unknowns(vacuum(p.n_max).q.real)


def test_krylov_matches_the_exponential_below_the_basis_cap():
    # 21 unknowns, fewer than the basis holds: the folded generator of the
    # ledger's small transient against scipy's exponential of the same matrix;
    # measured 2.9e-13 and 3.7e-13 of the largest unknown
    times = np.linspace(0.0, 6.0, 81)
    for dephasing in (0.0, 10.0):
        g, y = _folded(MasterParams(3.0, KickParams(0.1), HALF, 5, dephasing=dephasing))
        assert y.size == 21 < steady._KRYLOV_BASIS
        got, work = steady._krylov(g, y, times)
        want = scipy.sparse.linalg.expm_multiply(
            g.tocsc(), y, start=0.0, stop=6.0, num=81, endpoint=True
        )
        assert np.array_equal(got[0], y)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
        assert work["krylov_runs"] >= 80


def test_dephased_mean_matches_matrix_exponential():
    # phase diffusion sets the spectrum here; <n>(t) at every nonzero sample
    # against the exponential of the complex generator, each sample taken to
    # unit trace as evolve's are; measured 2.6e-13
    p = MasterParams(60.0, KickParams(0.05), HALF, 24, dephasing=math.pi)
    _, states = evolve(p, vacuum(24), 4.0)
    ref = scipy.sparse.linalg.expm_multiply(
        build_generator(p), vacuum(24).q.ravel(), start=0.0, stop=4.0, num=81, endpoint=True
    )
    pops = np.einsum("kii->ki", ref.reshape(81, 25, 25)).real
    want = pops / pops.sum(axis=1, keepdims=True) @ np.arange(25)
    got = states.populations() @ np.arange(25)
    assert np.max(np.abs(got[1:] / want[1:] - 1.0)) <= 1e-12


def test_krylov_counts_every_matvec_and_run():
    class Counted:
        def __init__(self, g):
            self.g, self.calls = g, 0

        def __matmul__(self, x):
            self.calls += 1
            return self.g @ x

    g, y = _folded(MasterParams(60.0, KickParams(0.05), HALF, 30))
    counted = Counted(g)
    _, work = steady._krylov(counted, y, np.linspace(0.0, 8.0, 81))
    assert sorted(work) == ["krylov_runs", "matvecs"]
    assert counted.calls == work["matvecs"] > work["krylov_runs"] >= 80


def test_a_stiff_spectrum_halves_the_substep():
    # a spectrum 1e4 wide over an interval of 50: 40 vectors are far from
    # enough, so each interval takes several runs on halved substeps. The
    # first vector's exp(tau H_1) = exp(-2.5e5) underflows to 0, and the
    # estimate's integral term keeps that run from passing with a zero state;
    # measured 2.2e-11, what 14 squarings of a Pade step leave of its rounding
    g = scipy.sparse.csr_matrix(scipy.sparse.diags(-np.linspace(0.0, 1e4, 100)))
    times = np.linspace(0.0, 100.0, 3)
    got, work = steady._krylov(g, np.ones(100), times)
    want = np.exp(np.outer(times, g.diagonal()))
    assert np.max(np.abs(got - want)) <= 1e-10
    assert work["krylov_runs"] > 2 and work["matvecs"] > 40 * 2


def test_expm_matches_scipys_on_krylov_sized_matrices():
    # upper Hessenberg, as a Krylov run's, with a spectrum in the left half
    # plane up to 600 wide; measured up to 5.8e-13 of the largest entry,
    # where exp's own condition number is about 600 eps
    rng = np.random.default_rng(5)
    for m in (1, 2, 17, 41):
        for scale in (1e-3, 1.0, 30.0, 300.0):
            a = scale * (np.triu(rng.standard_normal((m, m)), -1) / math.sqrt(m) - 2.0 * np.eye(m))
            want = scipy.linalg.expm(a)
            assert np.max(np.abs(steady._expm(a) - want)) <= 2e-12 * np.max(np.abs(want))
    # past 2^52 squarings no digit is left: nan, as for a non-finite matrix
    for bad in (1e17, math.inf, math.nan):
        assert np.isnan(steady._expm(np.array([[-bad, 1.0], [0.0, 0.0]]))).all()


def test_krylov_fails_typed_on_a_non_finite_estimate_or_a_substep_underflow(monkeypatch):
    times = np.linspace(0.0, 100.0, 3)
    nan = scipy.sparse.csr_matrix(np.full((3, 3), math.nan))
    with pytest.raises(ConvergenceError, match="error estimate nan at t=0.0$"):
        steady._krylov(nan, np.ones(3), times)
    # a substep floor of 10 (ten spacings of 1) leaves halving no room: a full
    # basis on an interval of 50 halves to 25 and 12.5, then falls below it
    monkeypatch.setattr(np, "nextafter", lambda t, _to: t + 1.0)
    g = scipy.sparse.csr_matrix(scipy.sparse.diags(-np.linspace(0.0, 1e4, 100)))
    with pytest.raises(ConvergenceError, match="substep 6.250e[+]00 below 1.000e[+]01 at t=0.0$"):
        steady._krylov(g, np.ones(100), times)


def test_ground_state_atoms_leave_the_vacuum_alone():
    # theta = 0 pumps nothing: g y = 0, so every Krylov run breaks down at its
    # first vector and is exact, and every sample is the vacuum itself
    p = MasterParams(30.0, KickParams(0.1), prepare(0.0), 10)
    times, states = evolve(p, vacuum(10), 5.0)
    assert times.size == 81
    for s in states:
        assert np.array_equal(s.q, vacuum(10).q)


def test_coarse_ode_needs_a_gauge_symmetric_start():
    # HALF has arg(rho_eg) = 0, so the gauge phase is -pi/2: a coherent state
    # along the real axis is off it, while Fock mixtures are on every gauge
    p = MasterParams(20.0, KickParams(0.05), HALF, 30)
    off_gauge = coherent(1.0, 30)
    with pytest.raises(ValueError, match="gauge"):
        evolve(p, off_gauge, 0.5)
    fock = np.zeros((31, 31), dtype=complex)
    fock[3, 3] = 1.0
    for q0 in (vacuum(30), FieldState(fock), coherent(-1.0j, 30)):
        assert evolve(p, q0, 0.5)[1][-1].dim == 31
    s = steady_state(p)
    assert mean_photon(evolve(p, s, 0.5)[1][-1]) == pytest.approx(mean_photon(s), rel=1e-6)
    # the kick loop of a regular beam takes any state: 10 atoms in 0.5 at n_c = 20
    assert len(kick_sequence(off_gauge, [HALF] * 10, p.k, gap=0.05)) == 10


def test_evolve_input_validation():
    p = MasterParams(5.0, KickParams(0.05), HALF, 8)
    with pytest.raises(ValueError):
        evolve(p, vacuum(5), 1.0)
    with pytest.raises(ValueError):
        evolve(p, vacuum(8), -1.0)
    # a NaN duration takes the same check; it is left out here because an
    # unchecked one would keep the integrator from ever returning
    with pytest.raises(ValueError, match="finite"):
        evolve(p, vacuum(8), math.inf)
    with pytest.raises(ValueError, match="full basis"):
        evolve(MasterParams(5.0, KickParams(0.05), HALF, 8, n_lo=2), vacuum(8), 1.0)


def test_master_params_validation():
    with pytest.raises(ValueError):
        MasterParams(0.0, KickParams(0.1), HALF, 5)
    with pytest.raises(ValueError):
        MasterParams(1.0, KickParams(0.1), HALF, 0)
    for n_lo in (-1, 5):
        with pytest.raises(ValueError):
            MasterParams(1.0, KickParams(0.1), HALF, 5, n_lo=n_lo)
    with pytest.raises(ValueError, match="dephasing"):
        MasterParams(1.0, KickParams(0.1), HALF, 5, dephasing=-1.0)
