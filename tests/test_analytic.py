import math

import numpy as np
import pytest

from cavsr.analytic import (
    beta_factors,
    coherent_alpha,
    dominance_threshold,
    emission_rate_per_atom,
    mean_n_noncollective,
    mean_n_total,
    n_eff,
    pn_random_phase,
    saturation_nc,
)
from cavsr.atom import AtomState, prepare
from cavsr.errors import DivergenceError, TruncationError
from cavsr.hilbert import photon_distribution
from cavsr.interaction import KickParams
from cavsr.steady import MasterParams, steady_state, steady_state_auto


def test_pn_ground_atoms_leave_vacuum():
    p = pn_random_phase(5.0, 0.0, 0.1, 10)
    assert p[0] == pytest.approx(1.0)
    assert np.all(p[1:] == 0.0)


def test_pn_weak_pump_mean():
    p = pn_random_phase(1000.0, 0.5, 0.01, 40)
    mean = float(np.arange(p.size) @ p)
    # quarter of the pump parameter n_c (g tau)^2
    assert mean == pytest.approx(0.025, rel=1e-3)


def test_pn_matches_master_solver():
    rng = np.random.default_rng(17)
    for _ in range(3):
        n_c = rng.uniform(1.0, 60.0)
        rho_ee = rng.uniform(0.2, 1.0)
        g_tau = rng.uniform(0.02, 0.12)
        a, k = AtomState(rho_ee, 0.0), KickParams(g_tau)
        # steady_state_auto answers rho_eg = 0 with the recursion itself, so
        # the LU solves the cutoff the recursion accepts
        n_max = steady_state_auto(n_c, a, k).n_max
        s = steady_state(MasterParams(n_c, k, a, n_max))
        recursion = pn_random_phase(n_c, rho_ee, g_tau, s.n_max)
        assert np.max(np.abs(photon_distribution(s) - recursion)) <= 1e-8


def test_pn_reports_unconfined_growth():
    # far above inversion threshold the ratio stays >= 1 and no stationary
    # distribution fits any finite basis
    with pytest.raises(TruncationError):
        pn_random_phase(1e7, 1.0, 0.001, 50)


def test_pn_reports_a_tail_just_past_the_tolerance():
    # one more step of the recursion puts 1.09e-8 above 5 levels
    with pytest.raises(TruncationError, match=r"1\.090e-08 population at n_max=5 "):
        pn_random_phase(20.0, 0.5, 0.1, 5)
    assert pn_random_phase(20.0, 0.5, 0.1, 6).shape == (7,)


def test_noncollective_closed_form():
    assert mean_n_noncollective(1.0, 0.5) == pytest.approx(0.25)
    assert mean_n_noncollective(1e7, 0.25) == pytest.approx(0.5, rel=1e-5)
    assert mean_n_noncollective(1.0, 1.0) == pytest.approx(1.0)


def test_noncollective_divergence():
    with pytest.raises(DivergenceError):
        mean_n_noncollective(10.0, 1.0)


def test_coherent_alpha_values():
    assert coherent_alpha(5.0, 0.0, 0.1) == 0.0
    alpha = coherent_alpha(100.0, 0.5, 0.01)
    assert alpha == pytest.approx(-0.5j)
    assert abs(alpha) ** 2 == pytest.approx(0.25)
    z = coherent_alpha(3.0, 0.2 + 0.1j, 0.05)
    assert np.angle(z) == pytest.approx(np.angle(0.2 + 0.1j) - math.pi / 2.0)


def test_total_mean_splits_into_two_terms():
    a = AtomState(0.5, 0.0)
    assert mean_n_total(30.0, a, 0.02) == pytest.approx(
        mean_n_noncollective(30.0 * 0.02**2, 0.5)
    )
    full = mean_n_total(22.0, prepare(math.pi / 2.0), 0.18)
    assert full == pytest.approx(0.1782 + 3.9204, rel=1e-6)


def test_total_mean_tracks_master_equation():
    a = prepare(math.pi / 2.0)
    for n_c in (5.0, 20.0, 80.0):
        from cavsr.hilbert import mean_photon

        solved = mean_photon(steady_state_auto(n_c, a, KickParams(0.01)))
        assert mean_n_total(n_c, a, 0.01) == pytest.approx(solved, rel=0.10)


def test_n_eff_conventions():
    assert n_eff("poisson", 22.0) == 22.0
    assert n_eff("regular", 1.0) == pytest.approx(1.0 / (math.e - 1.0))
    assert n_eff("regular", 10.0) == pytest.approx(9.5083, abs=1e-3)
    assert n_eff("regular", 1e6) == pytest.approx(1e6, rel=1e-5)
    with pytest.raises(ValueError):
        n_eff("burst", 5.0)
    with pytest.raises(ValueError):
        n_eff("poisson", 0.0)


def test_n_eff_of_a_sparse_regular_beam():
    # 1/expm1(1/n_c) overflows for n_c below about 1/710
    assert n_eff("regular", 1e-3) == 0.0
    for n_c in np.geomspace(0.5, 1e4, 101):
        assert n_eff("regular", n_c) == pytest.approx(1.0 / math.expm1(1.0 / n_c), rel=1e-15)


def test_emission_rate_per_atom():
    a = prepare(math.pi / 2.0)
    assert emission_rate_per_atom(0.0, a, 2.0, 0.25) == pytest.approx(0.5 * 4.0 * 0.25)
    assert emission_rate_per_atom(10.0, a, 1.0, 1.0) == pytest.approx(5.5)


def test_emission_rate_reproduces_total_mean_structure():
    # r * (rate * tau) / (2 gamma_c) with n_eff = n_c rebuilds the two-term total
    a = prepare(math.pi / 2.0)
    n_c, g_tau = 40.0, 0.01
    rate = emission_rate_per_atom(n_c, a, g_tau, 1.0)
    balance = n_c * rate / 2.0
    noncoll = 0.5 * a.rho_ee * n_c * g_tau**2
    coll = abs(coherent_alpha(n_c, a.rho_eg, g_tau)) ** 2
    assert balance == pytest.approx(noncoll + coll, rel=1e-12)


def test_dominance_threshold_values():
    assert dominance_threshold(prepare(math.pi / 2.0)) == pytest.approx(1.0)
    assert dominance_threshold(prepare(0.3 * math.pi)) == pytest.approx(0.6299, abs=1e-3)
    assert dominance_threshold(AtomState(0.5, 0.0)) == math.inf


def test_saturation_scale():
    assert saturation_nc(0.01, 1e-9) == pytest.approx(1e4)
    assert saturation_nc(0.01, math.pi / 2.0) == pytest.approx(1e4 * math.pi / 2.0)
    assert saturation_nc(0.1, math.pi / 2.0) == pytest.approx(157.08, abs=0.01)
    with pytest.raises(ValueError):
        saturation_nc(0.1, math.pi)


def test_beta_factors():
    beta, _ = beta_factors(1.0, prepare(math.pi / 2.0), 0.18)
    assert beta == pytest.approx(0.0324)
    beta, _ = beta_factors(1.0, prepare(math.pi / 2.0), 0.10)
    assert beta == pytest.approx(0.010)
    # at the saturation flux the collective mode fraction reaches order unity
    theta = math.pi / 2.0
    g_tau = 0.01
    _, beta_coll = beta_factors(saturation_nc(g_tau, theta), prepare(theta), g_tau)
    assert beta_coll == pytest.approx(math.pi / 2.0, rel=1e-9)
    with pytest.raises(ValueError):
        beta_factors(1.0, AtomState(0.0, 0.0), 0.1)
