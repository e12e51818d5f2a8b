import math

import numpy as np
import pytest

from cavsr.atom import dephase, prepare
from cavsr.errors import TruncationError
from cavsr.hilbert import apply_decay, mean_photon, vacuum
from cavsr.interaction import KickParams, jc_kick
from cavsr.steady import steady_state_auto
from cavsr.trajectory import TrajectoryConfig, run_ensemble, run_trajectory

HALF_PULSE = math.pi / 2


def cavity_cfg(**kw):
    base = dict(r=1.0, gamma_c=1.0, g=0.5e6, tau=1e-6, theta=HALF_PULSE)
    base.update(kw)
    return TrajectoryConfig(**base)


def discrete_fixed_point(atom, k, delta, n_max, iters=200):
    s = vacuum(n_max)
    for _ in range(iters):
        s = jc_kick(apply_decay(s, 1.0, delta), atom, k)
    return s


def grid_decay_factor(times, window, delta, gamma_c):
    """Average of exp(-2 gamma_c s) over the sampled sawtooth offsets.

    s is the time since the last kick; samples landing exactly on a kick
    time are taken before the kick, hence s = delta there.
    """
    fac = []
    for t in times[window]:
        s = t % delta
        if s < 1e-9 * delta:
            s = delta
        fac.append(math.exp(-2.0 * gamma_c * s))
    return float(np.mean(fac))


def test_ground_state_pump_leaves_vacuum():
    cfg = cavity_cfg(r=3.0, theta=0.0, t_end=2.0, n_max=5)
    res = run_trajectory(cfg, seed=5)
    assert res.n_atoms > 0
    assert np.all(res.mean_n == 0.0)
    assert res.jump_times.size == 0


def test_no_atoms_no_photons():
    cfg = cavity_cfg(r=0.0, theta=math.pi, t_end=1.0, n_max=3)
    res = run_trajectory(cfg, seed=0)
    assert res.n_atoms == 0
    assert np.all(res.mean_n == 0.0)


def test_single_kick_born_statistics():
    # lossless cavity, one fully inverted atom, quarter-period coupling:
    # the photon lands with probability sin^2(pi/4) = 1/2
    cfg = TrajectoryConfig(
        r=1.0 / 0.6, gamma_c=0.0, g=0.25e6 * math.pi, tau=1e-6,
        theta=math.pi, injection="regular", n_max=4, t_end=1.0,
    )
    n_seeds = 800
    hits = 0
    for seed in range(n_seeds):
        res = run_trajectory(cfg, seed, n_samples=5)
        assert res.n_atoms == 1
        n_fin = res.final.mean_photon()
        assert n_fin == pytest.approx(0.0, abs=1e-12) or n_fin == pytest.approx(1.0, abs=1e-12)
        hits += round(n_fin)
    sigma = math.sqrt(0.25 / n_seeds)
    assert hits / n_seeds == pytest.approx(0.5, abs=3.0 * sigma)


def test_deterministic_in_config_and_seed():
    cfg = cavity_cfg(r=2.0, t_end=3.0, n_max=10)
    a = run_trajectory(cfg, seed=11)
    b = run_trajectory(cfg, seed=11)
    assert np.array_equal(a.mean_n, b.mean_n)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert a.n_atoms == b.n_atoms
    c = run_trajectory(cfg, seed=12)
    assert not np.array_equal(a.mean_n, c.mean_n)
    assert abs(np.linalg.norm(a.final.amp) - 1.0) <= 1e-10


def test_ensemble_deterministic_in_seed():
    cfg = cavity_cfg(r=2.0, t_end=3.0, n_max=10, seed=4, n_trajectories=8)
    a = run_ensemble(cfg, n_samples=41)
    b = run_ensemble(cfg, n_samples=41)
    assert a.steady_mean_n == b.steady_mean_n
    assert np.array_equal(a.mean_n, b.mean_n)
    assert a.times[0] == 0.0
    assert a.times[-1] == pytest.approx(3.0)
    assert a.times.shape == (41,)


@pytest.fixture(scope="module")
def poisson_ensemble():
    return run_ensemble(cavity_cfg(t_end=20.0, n_max=14, seed=7, n_trajectories=1500))


@pytest.fixture(scope="module")
def regular_ensemble():
    return run_ensemble(
        cavity_cfg(injection="regular", t_end=20.0, n_max=14, seed=7, n_trajectories=1500)
    )


def test_poisson_ensemble_matches_master_equation(poisson_ensemble):
    ens = poisson_ensemble
    target = mean_photon(steady_state_auto(1.0, prepare(HALF_PULSE), KickParams(0.5)))
    assert ens.steady_mean_n == pytest.approx(target, abs=3.0 * ens.steady_stderr)
    # photons leave at twice the amplitude decay rate times the population
    assert ens.jump_rate == pytest.approx(2.0 * target, abs=3.0 * ens.jump_rate_stderr)


def test_regular_ensemble_matches_discrete_map(regular_ensemble):
    ens = regular_ensemble
    window = ens.times >= 15.0
    fac = grid_decay_factor(ens.times, window, 1.0, 1.0)
    post_kick = mean_photon(
        discrete_fixed_point(prepare(HALF_PULSE), KickParams(0.5), 1.0, 14)
    )
    assert ens.steady_mean_n == pytest.approx(post_kick * fac, abs=3.0 * ens.steady_stderr)


def test_regular_beam_suppresses_collective_gain(poisson_ensemble, regular_ensemble):
    # same flux, same kick: evenly spaced atoms share less phase information
    # than a poisson stream, so the coherent part of the field shrinks
    ens_p = poisson_ensemble
    ens_r = regular_ensemble
    k = KickParams(0.5)
    deph = dephase(prepare(HALF_PULSE), 0.0)
    base_p = mean_photon(steady_state_auto(1.0, deph, k))
    window = ens_r.times >= 15.0
    fac = grid_decay_factor(ens_r.times, window, 1.0, 1.0)
    base_r = fac * mean_photon(discrete_fixed_point(deph, k, 1.0, 14))
    coll_p = ens_p.steady_mean_n - base_p
    coll_r = ens_r.steady_mean_n - base_r
    gap_sigma = math.hypot(ens_p.steady_stderr, ens_r.steady_stderr)
    assert coll_p - coll_r > 3.0 * gap_sigma


def test_collective_suppression_factor_from_exact_maps():
    # weak-kick limit: the regular-to-poisson ratio of the coherent part
    # approaches 1 / (e^(1/n_c) - 1) per injected atom; n_c = 1 gives 0.582
    k = KickParams(0.2)
    full = prepare(HALF_PULSE)
    deph = dephase(full, 0.0)
    f_cont = (1.0 - math.exp(-2.0)) / 2.0
    coll_reg = f_cont * (
        mean_photon(discrete_fixed_point(full, k, 1.0, 14))
        - mean_photon(discrete_fixed_point(deph, k, 1.0, 14))
    )
    coll_poi = mean_photon(steady_state_auto(1.0, full, k)) - mean_photon(
        steady_state_auto(1.0, deph, k)
    )
    assert coll_reg / coll_poi == pytest.approx(1.0 / math.expm1(1.0), rel=0.05)


def test_fast_phase_diffusion_reduces_to_random_phase_pump():
    cfg = cavity_cfg(r=3.0, g=0.3e6, linewidth=1e12, t_end=12.0, n_max=10,
                     seed=3, n_trajectories=200)
    ens = run_ensemble(cfg)
    deph = dephase(prepare(HALF_PULSE), 0.0)
    target = mean_photon(steady_state_auto(3.0, deph, KickParams(0.3)))
    assert ens.steady_mean_n == pytest.approx(target, abs=3.0 * ens.steady_stderr)


def test_full_transit_scramble_reduces_to_random_phase_pump():
    cfg = cavity_cfg(r=3.0, g=0.3e6, transit_dephase=0.0, t_end=12.0,
                     n_max=10, seed=3, n_trajectories=200)
    ens = run_ensemble(cfg)
    deph = dephase(prepare(HALF_PULSE), 0.0)
    target = mean_photon(steady_state_auto(3.0, deph, KickParams(0.3)))
    assert ens.steady_mean_n == pytest.approx(target, abs=3.0 * ens.steady_stderr)


def test_cutoff_overflow_is_reported():
    cfg = TrajectoryConfig(r=5.0, gamma_c=1e-3, g=0.5e6 * math.pi, tau=1e-6,
                           theta=math.pi, n_max=1, t_end=2.0)
    with pytest.raises(TruncationError):
        run_trajectory(cfg, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        cavity_cfg(r=-1.0)
    with pytest.raises(ValueError):
        cavity_cfg(injection="burst")
    with pytest.raises(ValueError):
        cavity_cfg(transit_dephase=1.5)
    with pytest.raises(ValueError):
        cavity_cfg(n_max=0)
    with pytest.raises(ValueError):
        cavity_cfg(n_trajectories=0)
    with pytest.raises(ValueError):
        run_ensemble(cavity_cfg(t_end=1.0, n_trajectories=1))


def test_metadata_flags_overlapping_transits():
    cfg = cavity_cfg(r=2e6, gamma_c=7.5e5)
    md = cfg.metadata()
    assert md["n_in_cavity"] == pytest.approx(2.0)
    assert md["annotations"]
    quiet = cavity_cfg(r=3.0).metadata()
    assert quiet["annotations"] == []
    assert cavity_cfg(gamma_c=0.0).n_c is None


# one fixed seed per config; the values come from the engine before its
# per-trajectory tables were hoisted, and any change to the order of the
# random draws moves them by far more than rounding
STREAM_PINS = {
    # the benchmark's kick-heavy point: n_c = 20
    "kicks": (
        dict(r=20.0, gamma_c=1.0, g=0.02 / 1e-6, tau=1e-6, theta=HALF_PULSE, n_max=14, t_end=10.0),
        204, 1, (0.032291146272213876, 0.037240592603344225, 0.02976138518801042),
    ),
    # the benchmark's jump-heavy point: apparatus scale, 200 kHz pump linewidth
    "jumps": (
        dict(r=0.57 / 101e-9, gamma_c=2.0 * math.pi * 75e3, g=2.0 * math.pi * 290e3,
             tau=101e-9, theta=HALF_PULSE, linewidth=200e3, n_max=20,
             t_end=8.0 / (2.0 * math.pi * 75e3)),
        95, 7, (0.09453135421987505, 0.6972635523516355, 1.1458000663338803),
    ),
    "regular": (
        dict(r=3.0, gamma_c=1.0, g=0.3e6, tau=1e-6, theta=HALF_PULSE, injection="regular",
             transit_dephase=0.0, n_max=10, t_end=12.0),
        35, 5, (0.015016999411528089, 0.09644765352576598, 7.820850529532382e-05),
    ),
}


@pytest.mark.parametrize("label", sorted(STREAM_PINS))
def test_random_stream_is_pinned(label):
    kw, n_atoms, n_jumps, samples = STREAM_PINS[label]
    res = run_trajectory(TrajectoryConfig(**kw), seed=2025)
    assert res.n_atoms == n_atoms
    assert len(res.jump_times) == n_jumps
    assert [res.mean_n[i] for i in (50, 100, 200)] == pytest.approx(samples, rel=1e-12, abs=0.0)


def test_ensemble_counters_sum_the_trajectories():
    cfg = cavity_cfg(r=3.0, g=0.4e6, t_end=6.0, n_max=12, seed=9, n_trajectories=6)
    ens = run_ensemble(cfg, n_samples=31)
    runs = [run_trajectory(cfg, cfg.seed + i, n_samples=31) for i in range(6)]
    md = ens.metadata
    assert md["atoms"] == sum(r.n_atoms for r in runs) > 0
    assert md["jumps"] == sum(r.jump_times.size for r in runs) > 0
    assert md["max_top_population"] == max(r.max_top_population for r in runs)
    assert 0.0 < md["max_top_population"] < 1e-6
