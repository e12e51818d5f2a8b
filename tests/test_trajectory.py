import json
import math

import numpy as np
import pytest

from cavsr.atom import dephase, prepare
from cavsr.errors import TruncationError
from cavsr.experiments import RunConfig, trajectory_ensemble, write_sweep
from cavsr.hilbert import apply_decay, mean_photon, vacuum
from cavsr.interaction import KickParams, jc_kick
from cavsr.steady import MasterParams, evolve, steady_state_auto
from cavsr import trajectory
from cavsr.trajectory import N_SAMPLES, TrajectoryConfig, run_ensemble, run_trajectory

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
    res = run_trajectory(cfg, [5])
    assert res.n_atoms > 0
    assert np.all(res.mean_n == 0.0)
    assert res.jump_times.size == 0


def test_no_atoms_no_photons():
    cfg = cavity_cfg(r=0.0, theta=math.pi, t_end=1.0, n_max=3)
    res = run_trajectory(cfg, [0])
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
    res = run_trajectory(cfg, range(n_seeds))
    assert np.all(res.atoms == 1)
    n_fin = np.abs(res.final) ** 2 @ np.arange(cfg.n_max + 1)
    assert np.all((np.abs(n_fin) <= 1e-12) | (np.abs(n_fin - 1.0) <= 1e-12))
    hits = int(np.sum(np.round(n_fin)))
    sigma = math.sqrt(0.25 / n_seeds)
    assert hits / n_seeds == pytest.approx(0.5, abs=3.0 * sigma)


def test_deterministic_in_config_and_seed():
    cfg = cavity_cfg(r=2.0, t_end=3.0, n_max=10)
    a = run_trajectory(cfg, [11])
    b = run_trajectory(cfg, [11])
    assert np.array_equal(a.mean_n, b.mean_n)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert a.n_atoms == b.n_atoms
    c = run_trajectory(cfg, [12])
    assert not np.array_equal(a.mean_n, c.mean_n)
    assert abs(np.linalg.norm(a.final) - 1.0) <= 1e-10


def test_sample_on_an_arrival_reads_the_state_before_the_kick(monkeypatch):
    # every third arrival of a 3/s regular beam lands on a grid point at t = k;
    # six of the ten summed arrival times fall a few ulps short of it
    cfg = cavity_cfg(r=3.0, g=0.3e6, injection="regular", t_end=10.0, n_max=12)
    after_kick = []
    measure = trajectory.measure_atom

    def recording_measure(e, g, u):
        out = measure(e, g, u)
        after_kick.append(np.abs(out[1][0]) ** 2)
        return out

    monkeypatch.setattr(trajectory, "measure_atom", recording_measure)
    res = run_trajectory(cfg, [3])
    arrivals = np.cumsum(np.full(res.n_atoms, 1.0 / 3.0))
    n = np.arange(cfg.n_max + 1)
    checked = 0
    for k in range(1, 11):
        i = 3 * k - 1  # the atom arriving at t = k
        t_prev, t_k = arrivals[i - 1], arrivals[i]
        assert abs(res.times[20 * k] - t_k) <= 1e-14 * k
        if np.any((res.jump_times > t_prev) & (res.jump_times <= t_k)):
            continue  # the previous event is a jump, not the previous kick
        pre = after_kick[i - 1] * np.exp(-2.0 * cfg.gamma_c * n * (res.times[20 * k] - t_prev))
        post = after_kick[i] @ n / after_kick[i].sum()
        assert res.mean_n[0, 20 * k] == pytest.approx(pre @ n / pre.sum(), rel=1e-12)
        assert abs(res.mean_n[0, 20 * k] - post) > 1e-6
        checked += 1
    assert checked >= 5


def test_ensemble_deterministic_in_seed():
    cfg = cavity_cfg(r=2.0, t_end=3.0, n_max=10, seed=4, n_trajectories=8)
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    assert a.steady_mean_n == b.steady_mean_n
    assert np.array_equal(a.mean_n, b.mean_n)
    assert a.times[0] == 0.0
    assert a.times[-1] == pytest.approx(3.0)
    assert a.times.shape == (N_SAMPLES,) == (201,)


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
    with pytest.raises(TruncationError, match=r"n_max=1 \(top-level population \d"):
        run_trajectory(cfg, [0])


def test_config_validation():
    with pytest.raises(ValueError):
        cavity_cfg(r=-1.0)
    # constructed only: run, an unchecked NaN duration never returns
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^t_end must be finite"):
            cavity_cfg(t_end=value)
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


def test_metadata_flags_overlapping_transits(tmp_path):
    # r tau = 2 atoms in the cavity at once, then 0.2; g_tau = 0.01 keeps the field small
    notes = {}
    for n_mean in (2.0, 0.2):
        cfg = RunConfig(g=0.1, gamma_c=1.0, tau=0.1, theta=HALF_PULSE, n_mean=n_mean,
                        n_max=6, t_end=1.0, n_trajectories=2)
        res, _ = trajectory_ensemble(cfg)
        _, meta_path = write_sweep(res, str(tmp_path), f"trajectory_{n_mean:g}")
        with open(meta_path, encoding="utf-8") as fh:
            notes[n_mean] = json.load(fh)["annotations"]
    assert notes[2.0] == ["mean intracavity atom number 2 exceeds 1"]
    assert notes[0.2] == []
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
    res = run_trajectory(TrajectoryConfig(**kw), [2025])
    assert res.n_atoms == n_atoms
    assert len(res.jump_times) == n_jumps
    assert [res.mean_n[0, i] for i in (50, 100, 200)] == pytest.approx(samples, rel=1e-12, abs=0.0)


def test_ensemble_counters_sum_the_trajectories():
    cfg = cavity_cfg(r=3.0, g=0.4e6, t_end=6.0, n_max=12, seed=9, n_trajectories=6)
    ens = run_ensemble(cfg)
    runs = [run_trajectory(cfg, [cfg.seed + i]) for i in range(6)]
    md = ens.metadata
    assert md["atoms"] == sum(r.n_atoms for r in runs) > 0
    assert md["jumps"] == sum(r.jump_times.size for r in runs) > 0
    assert md["max_top_population"] == max(r.max_top_population[0] for r in runs)
    assert 0.0 < md["max_top_population"] < 1e-6


# each config in a batch of six seeds, which take different numbers of steps;
# with few events, the last fold fills more samples than one chunk holds
BATCH_CONFIGS = {
    "poisson": dict(r=3.0, g=0.4e6, t_end=6.0, n_max=12),
    "sparse": dict(r=0.3, g=0.4e6, t_end=6.0, n_max=12),
    "regular": dict(r=3.0, g=0.4e6, injection="regular", t_end=6.0, n_max=12),
    "no-atoms": dict(r=0.0, theta=math.pi, t_end=2.0, n_max=3),
    "scrambled": dict(r=3.0, g=0.4e6, transit_dephase=0.4, t_end=6.0, n_max=12),
    "phase-walk": dict(r=3.0, g=0.4e6, linewidth=0.05, t_end=6.0, n_max=12),
}


@pytest.mark.parametrize("label", sorted(BATCH_CONFIGS))
def test_each_row_of_a_batch_is_its_seed_run_alone(label):
    cfg = cavity_cfg(**BATCH_CONFIGS[label])
    seeds = [3, 17, 4, 250, 9, 31]
    batch = run_trajectory(cfg, seeds)
    assert batch.mean_n.shape == (len(seeds), N_SAMPLES)
    assert batch.n_atoms == int(batch.atoms.sum()) and type(batch.n_atoms) is int
    row_jumps = np.split(batch.jump_times, np.cumsum(batch.jumps)[:-1])
    for i, seed in enumerate(seeds):
        lone = run_trajectory(cfg, [seed])
        assert batch.atoms[i] == lone.n_atoms
        assert batch.jumps[i] == lone.jump_times.size
        assert np.array_equal(row_jumps[i], lone.jump_times)
        np.testing.assert_allclose(batch.mean_n[i], lone.mean_n[0], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(batch.final[i], lone.final[0], rtol=0.0, atol=1e-13)
        assert batch.max_top_population[i] == lone.max_top_population[0]
    if cfg.r > 0.0:
        assert np.unique(batch.atoms + batch.jumps).size > 1  # the rows end at different steps


def test_a_row_past_the_cutoff_fails_the_batch():
    # alone, seeds 0, 1, 3, 4 and 5 keep the top level of n_max = 7 below 1e-6;
    # seed 2 passes it after a kick
    cfg = cavity_cfg(r=20.0, g=0.05e6, t_end=4.0, n_max=7)
    assert run_trajectory(cfg, [0, 1, 3, 4, 5]).n_atoms > 0
    with pytest.raises(TruncationError, match=r"n_max=7 \(top-level population \d"):
        run_trajectory(cfg, [2])
    with pytest.raises(TruncationError, match=r"n_max=7 \(top-level population \d"):
        run_trajectory(cfg, [0, 1, 2, 3, 4, 5])


def test_ensemble_stderr_per_sample_is_the_spread_of_lone_runs():
    cfg = cavity_cfg(r=3.0, g=0.4e6, t_end=6.0, n_max=12, seed=9, n_trajectories=6)
    ens = run_ensemble(cfg)
    lone = np.array([run_trajectory(cfg, [cfg.seed + i]).mean_n[0] for i in range(6)])
    np.testing.assert_allclose(ens.mean_n, lone.mean(axis=0), rtol=1e-13, atol=0.0)
    want = np.std(lone, axis=0, ddof=1) / math.sqrt(6)
    np.testing.assert_allclose(ens.mean_n_stderr, want, rtol=1e-12, atol=1e-16)
    assert ens.mean_n_stderr[0] == 0.0  # every trajectory starts in the vacuum
    assert ens.mean_n_stderr[-1] > 0.0


@pytest.mark.parametrize(
    "i, n_c, g_tau, dephasing", [(0, 1.0, 0.2, 0.0), (1, 3.0, 0.1, 0.0), (2, 3.0, 0.1, 1.0)]
)
def test_ensemble_follows_the_master_equation_transient(i, n_c, g_tau, dephasing):
    # the ensemble average of a trajectory's <n> is the master equation's <n>
    # at every time, not only in the steady window (test_08). The grids share
    # every 5th trajectory sample and every 2nd evolve sample; the 40 nonzero
    # ones are correlated, so each is held to 4 standard errors, a bound fixed
    # before the first run. test_08's points and seeds 40 + i; the largest
    # |deviation| measured was 2.4, 1.9 and 3.9 standard errors
    tau = 1e-6
    ens = run_ensemble(TrajectoryConfig(
        r=n_c, gamma_c=1.0, g=g_tau / tau, tau=tau, theta=HALF_PULSE, injection="poisson",
        linewidth=dephasing / (2.0 * math.pi), n_max=14, t_end=10.0, seed=40 + i,
        n_trajectories=500,
    ))
    p = MasterParams(n_c, KickParams(g_tau), prepare(HALF_PULSE), 14, dephasing=dephasing)
    times, states = evolve(p, vacuum(14), 10.0)
    np.testing.assert_allclose(ens.times[5::5], times[2::2], rtol=1e-15, atol=0.0)
    ref = np.array([mean_photon(s) for s in states[2::2]])
    dev = np.abs(ens.mean_n[5::5] - ref)
    assert dev.size == 40
    assert np.all(dev <= 4.0 * ens.mean_n_stderr[5::5]), np.max(dev / ens.mean_n_stderr[5::5])
