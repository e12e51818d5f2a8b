import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cavsr.analytic import pn_random_phase
from cavsr.atom import AtomState, dephase, prepare
from cavsr.errors import ResourceError, TruncationError
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
    full_kick = kick_stencil(n_max + 1, a, k)
    for off, coef in kick_stencil(width + 1, a, k, n_lo).items():
        assert np.max(np.abs(coef - full_kick[off][n_lo:, n_lo:])) <= 1e-15


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
    g, red = steady._folded_generator(p)
    dim = p.width
    u = steady._gauge(p).ravel()
    gauged = u.conj()[:, None] * build_generator(p).toarray() * u[None, :]
    rows = np.flatnonzero(np.triu(np.ones((dim, dim), dtype=bool)))
    assert np.array_equal(red[rows], np.arange(rows.size))
    fold = np.zeros((dim * dim, rows.size))
    fold[np.arange(dim * dim), red] = 1.0
    ref = gauged[rows].real @ fold
    assert np.max(np.abs(g.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))


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
    s = steady_state_auto(1000.0, AtomState(0.5, 0.0), KickParams(0.01))
    assert mean_photon(s) == pytest.approx(0.025, rel=0.02)


def test_strong_pump_plateau():
    # quarter-excited beam: the mean converges to rho/(1 - 2 rho) = 1/2 from
    # below as the pump parameter grows; p = 1000 sits within half a percent
    s = steady_state_auto(1e7, AtomState(0.25, 0.0), KickParams(0.01))
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
    s = steady_state_auto(n_c, a, k, dephasing=rate)
    assert np.array_equal(s.q, steady_state_auto(n_c, a, k).q)


def test_solution_matches_recursion_exactly():
    s = steady_state_auto(10.0, AtomState(1.0, 0.0), KickParams(0.05))
    p_rec = pn_random_phase(10.0, 1.0, 0.05, s.n_max)
    assert np.max(np.abs(photon_distribution(s) - p_rec)) <= 1e-8


def test_mean_monotone_in_flux_for_inverted_beam():
    a = AtomState(1.0, 0.0)
    k = KickParams(0.05)
    means = [mean_photon(steady_state_auto(float(n_c), a, k)) for n_c in range(1, 129)]
    assert np.all(np.diff(means) >= -1e-12)


def test_purity_in_dipole_dominant_regime():
    s = steady_state_auto(100.0, HALF, KickParams(0.01))
    purity = float(np.trace(s.q @ s.q).real)
    assert purity >= 0.98


def test_truncation_reported_not_hidden():
    with pytest.raises(TruncationError):
        steady_state(MasterParams(50.0, KickParams(0.1), AtomState(1.0, 0.0), 3))


def test_auto_growth_from_tight_start():
    s = steady_state_auto(50.0, HALF, KickParams(0.05), n_max=4)
    assert s.n_max > 4
    assert float(np.real(s.q[-1, -1])) <= 1e-8


def test_auto_stops_doubling_at_ceiling(monkeypatch):
    monkeypatch.setattr(steady, "DEFAULT_MAX_DIM", 9)
    with pytest.raises(TruncationError):
        steady_state_auto(50.0, HALF, KickParams(0.05), n_max=4)
    with pytest.raises(ResourceError):
        steady_state_auto(50.0, HALF, KickParams(0.05), n_max=20)


def test_auto_clips_growth_to_ceiling(monkeypatch):
    # n_max 16 is the first cutoff that passes here; doubling 10 overshoots
    # the guard's largest cutoff 16, so growth must stop there, not give up
    with pytest.raises(TruncationError):
        steady_state(MasterParams(50.0, KickParams(0.05), HALF, 15))
    monkeypatch.setattr(steady, "DEFAULT_MAX_DIM", 17)
    s = steady_state_auto(50.0, HALF, KickParams(0.05), n_max=10)
    assert s.n_max == 16
    assert float(np.real(s.q[-1, -1])) <= 1e-8


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
    n_lo = steady._window_edges(steady._predicted_mean(n_c, HALF, k.g_tau))[0]
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
    monkeypatch.setattr(steady, "_window_edges", lambda est: (40, 60))
    s = steady_state_auto(200.0, HALF, k)
    assert s.n_max == 120
    ref = steady_state(MasterParams(200.0, k, HALF, 120))
    assert np.max(np.abs(s.q - ref.q)) == 0.0


def test_suggested_cutoff_in_coherent_regime():
    n = suggest_n_max(100.0, HALF, 0.01)
    assert 14 <= n <= 18


def test_dephased_beam_above_threshold_has_a_balance_root():
    # kappa (2 rho_ee - 1) = 3 > 2: the gain beats the loss at small angles,
    # so the balance has a root and the cutoff covers the lasing field
    a = AtomState(1.0, 0.0)
    assert _balance_angle(300.0, a, 0.1) > 0.0
    assert suggest_n_max(300.0, a, 0.1) >= 116


def test_suggested_cutoff_tracks_saturated_field():
    # semiclassical balance puts the mean near 296 at this flux
    n = suggest_n_max(1200.0, HALF, 0.05)
    assert 450 <= n <= 520


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
