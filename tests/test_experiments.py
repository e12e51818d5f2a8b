import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cavsr.experiments import (
    RunConfig,
    SweepResult,
    config_dict,
    fit_loglog_slope,
    load_config,
    lossless_emission,
    predicted_alpha,
    preset,
    read_sweep,
    sweep_atoms,
    sweep_pump,
    trajectory_ensemble,
    transient_buildup,
    write_sweep,
)
from cavsr import experiments, steady
from cavsr.errors import ResourceError
from cavsr.analytic import pn_random_phase
from cavsr.atom import prepare
from cavsr.hilbert import mean_photon, vacuum
from cavsr.steady import MasterParams, evolve, steady_state_auto, suggest_n_max

HALF = 0.5 * math.pi


def small_cavity(**kw):
    # g_tau = 0.1, n_c = 5 unless overridden
    base = dict(g=1e5, gamma_c=1.0, tau=1e-6, theta=HALF, n_c=5.0)
    base.update(kw)
    return RunConfig(**base)


def scaling_cavity(**kw):
    # g_tau = 0.01 with gamma_c * tau small enough for n_mean near 1
    base = dict(g=2.9e6, gamma_c=7.5e3, tau=0.01 / 2.9e6, theta=HALF, n_c=1.0)
    base.update(kw)
    return RunConfig(**base)


def test_flux_must_be_given_exactly_once():
    with pytest.raises(ValueError):
        RunConfig(g=1e5, gamma_c=1.0, tau=1e-6, theta=HALF)
    with pytest.raises(ValueError):
        RunConfig(g=1e5, gamma_c=1.0, tau=1e-6, theta=HALF, n_c=1.0, r=1.0)
    with pytest.raises(ValueError):
        RunConfig(g=1e5, gamma_c=1.0, tau=1e-6, theta=HALF, n_c=-2.0)


def test_config_rejects_bad_scales():
    with pytest.raises(ValueError):
        small_cavity(g=0.0)
    with pytest.raises(ValueError):
        small_cavity(tau=-1e-6)
    with pytest.raises(ValueError):
        small_cavity(theta=-0.1)
    # a --t-end flag replaces the field after the file is read; a NaN duration
    # must stop here, since the transient integrator would never return on it
    with pytest.raises(ValueError, match="^t_end must be finite"):
        dataclasses.replace(small_cavity(), t_end=math.nan)


def test_derived_flux_quantities_are_consistent():
    by_nc = small_cavity(n_c=12.0)
    assert by_nc.derived_r == pytest.approx(12.0)
    assert by_nc.derived_n_mean == pytest.approx(12e-6)
    by_r = small_cavity(n_c=None, r=by_nc.derived_r)
    by_nm = small_cavity(n_c=None, n_mean=by_nc.derived_n_mean)
    assert by_r.derived_n_c == pytest.approx(12.0)
    assert by_nm.derived_n_c == pytest.approx(12.0)
    assert by_nc.g_tau == pytest.approx(0.1)


def test_atom_preparation_honours_dephasing():
    cfg = small_cavity(transit_dephase=0.4, phi=0.3)
    a = cfg.atom()
    assert a.rho_ee == pytest.approx(0.5)
    assert abs(a.rho_eg) == pytest.approx(0.2)
    assert cfg.kick().g_tau == pytest.approx(0.1)


def test_config_file_round_trip(tmp_path):
    cfg = small_cavity(seed=9, injection="regular", linewidth=2e4)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config_dict(cfg)), encoding="utf-8")
    assert load_config(str(path)) == cfg


def test_config_file_rejects_unknown_and_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"g": 1e5, "gamma": 1.0}', encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(str(path))
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError, match="JSON object"):
        load_config(str(path))
    cfg = config_dict(small_cavity())
    del cfg["theta"]
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(ValueError, match="^bad config .*'theta'"):
        load_config(str(path))


def test_sweep_result_validation():
    with pytest.raises(ValueError):
        SweepResult(np.array([1.0, 2.0]), np.zeros(3), np.zeros(2), {})
    with pytest.raises(ValueError):
        SweepResult(np.array([2.0, 1.0]), np.zeros(2), np.zeros(2), {})
    with pytest.raises(ValueError):
        SweepResult(np.array([]), np.array([]), np.array([]), {})


def test_loglog_fit_recovers_power_laws():
    x = np.geomspace(1.0, 100.0, 9)
    slope, err = fit_loglog_slope(x, x**2, slice(None))
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)
    slope, _ = fit_loglog_slope(x, 3.0 * x, (0, 9))
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_loglog_fit_window_selects_local_slope():
    x = np.geomspace(0.1, 1000.0, 17)
    y = x + 0.05 * x**2  # crosses over from slope 1 to slope 2
    lo, _ = fit_loglog_slope(x, y, (0, 4))
    hi, _ = fit_loglog_slope(x, y, (13, 17))
    assert lo == pytest.approx(1.0, abs=0.05)
    assert hi == pytest.approx(2.0, abs=0.05)


def test_loglog_fit_input_validation():
    x = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_loglog_slope(x, x, (0, 2))
    with pytest.raises(ValueError):
        fit_loglog_slope(x, np.array([1.0, -1.0, 2.0]), slice(None))
    with pytest.raises(ValueError):
        fit_loglog_slope(np.ones(3), np.ones(3), slice(None))


def test_pump_sweep_endpoints():
    res = sweep_pump(small_cavity(), np.array([0.0, HALF, math.pi]))
    assert res.mean_n[0] == pytest.approx(0.0, abs=1e-9)
    # fully inverted atoms carry no dipole: nothing beyond the baseline
    assert res.collective_part[2] == pytest.approx(0.0, abs=1e-6)
    assert res.collective_part[1] > 0.01
    assert np.all(res.baseline[1:] > 0.0)
    assert res.metadata["axis"].startswith("pump pulse area")


def test_pump_sweep_annotates_overlapping_transits():
    cfg = RunConfig(g=1e5, gamma_c=1.0, tau=0.1, theta=HALF, n_mean=2.0)
    res = sweep_pump(cfg, np.array([HALF]))
    assert any("exceeds 1" in a for a in res.metadata["annotations"])


def test_atom_sweep_slopes():
    cfg = scaling_cavity()
    factor = cfg.gamma_c * cfg.tau  # excited atoms per unit n_c is factor/2
    grid = 0.5 * factor * np.geomspace(2.0, 1000.0, 13)
    res = sweep_atoms(cfg, grid)
    coll, coll_err = fit_loglog_slope(res.axis, res.collective_part, slice(None))
    base, base_err = fit_loglog_slope(res.axis, res.baseline, slice(None))
    assert coll == pytest.approx(2.0, abs=0.05)
    assert base == pytest.approx(1.0, abs=0.02)
    assert coll_err < 0.02 and base_err < 0.01


def test_atom_sweep_dephased_beam_grows_linearly():
    cfg = scaling_cavity(transit_dephase=0.0)
    factor = cfg.gamma_c * cfg.tau
    grid = 0.5 * factor * np.geomspace(2.0, 1000.0, 9)
    res = sweep_atoms(cfg, grid)
    assert np.max(np.abs(res.collective_part)) <= 1e-10
    slope, _ = fit_loglog_slope(res.axis, res.mean_n, slice(None))
    assert slope == pytest.approx(1.0, abs=0.02)


def test_atom_sweep_partial_inversion_keeps_quadratic_growth():
    cfg = scaling_cavity(theta=0.3 * math.pi)
    factor = cfg.gamma_c * cfg.tau
    rho_ee = cfg.atom().rho_ee
    grid = rho_ee * factor * np.geomspace(5.0, 500.0, 7)
    res = sweep_atoms(cfg, grid)
    slope, _ = fit_loglog_slope(res.axis, res.collective_part, slice(None))
    assert slope > 1.7


def test_atom_sweep_input_validation():
    cfg = scaling_cavity()
    with pytest.raises(ValueError):
        sweep_atoms(cfg, np.array([]))
    with pytest.raises(ValueError):
        sweep_atoms(cfg, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        sweep_atoms(scaling_cavity(theta=0.0), np.array([0.1]))


def test_sweep_files_round_trip_and_reruns_identically(tmp_path):
    res = sweep_pump(small_cavity(), np.array([0.3, 0.8, 1.3]))
    csv_path, meta_path = write_sweep(res, str(tmp_path), "probe")
    text = Path(csv_path).read_text(encoding="utf-8")
    assert text.splitlines()[0] == "axis,mean_n,collective_part,baseline"
    again = sweep_pump(small_cavity(), np.array([0.3, 0.8, 1.3]))
    write_sweep(again, str(tmp_path), "probe")
    assert Path(csv_path).read_text(encoding="utf-8") == text
    meta_text = Path(meta_path).read_text(encoding="utf-8")
    assert "timestamp" not in meta_text

    back = read_sweep(csv_path)
    assert np.array_equal(back.axis, res.axis)
    assert np.array_equal(back.mean_n, res.mean_n)
    assert np.array_equal(back.collective_part, res.collective_part)
    assert back.metadata["config"] == config_dict(small_cavity())


def test_read_sweep_without_metadata(tmp_path):
    res = sweep_pump(small_cavity(), np.array([0.3, 0.8]))
    csv_path, meta_path = write_sweep(res, str(tmp_path), "bare")
    import os

    os.remove(meta_path)
    back = read_sweep(csv_path)
    assert back.metadata == {}
    assert back.axis.shape == (2,)


def test_trajectory_translation(monkeypatch):
    # the ensemble runs in seconds, on the cutoff the floor's search accepted
    handed = []

    class Handed(Exception):
        pass

    def capture(tc):
        handed.append(tc)
        raise Handed

    monkeypatch.setattr(experiments, "run_ensemble", capture)
    cfg = small_cavity(gamma_c=2.0, t_end=5.0, seed=3, n_trajectories=7,
                       injection="regular", linewidth=1e3, n_max=4)
    for c in (cfg, dataclasses.replace(cfg, linewidth=0.0)):
        with pytest.raises(Handed):
            trajectory_ensemble(c)
    tc, tc0 = handed
    assert tc.r == pytest.approx(10.0)
    assert tc.t_end == pytest.approx(2.5)
    assert tc.linewidth == 1e3
    assert tc.injection == "regular"
    assert tc.seed == 3 and tc.n_trajectories == 7
    floor = steady_state_auto(5.0, cfg.atom(), cfg.kick(), n_max=4, dephasing=cfg.dephasing)
    assert tc.n_max == floor.n_max > 4
    assert tc0.linewidth == 0.0


def test_predicted_amplitude():
    cfg = small_cavity(n_c=100.0, g=1e4)  # g_tau = 0.01
    assert predicted_alpha(cfg) == pytest.approx(-0.5j)


def test_preset_rejects_unknown_name_and_override(tmp_path):
    with pytest.raises(ValueError):
        preset("figure-eight", out_dir=str(tmp_path))
    # an override is a config field or one the named preset reads, never dropped
    for name, key in (("fig2", "wavelength"), ("fig2", "atoms"), ("figS6", "points")):
        with pytest.raises(ValueError, match=repr(key)):
            preset(name, {key: 3}, out_dir=str(tmp_path))
    assert not list(tmp_path.iterdir())


def test_preset_pump_angle_curve(tmp_path):
    out = preset("fig2", {"points": 9}, out_dir=str(tmp_path))
    assert (tmp_path / "fig2.csv").exists()
    assert 0.4 * math.pi <= out["theta_peak"] <= 0.8 * math.pi
    assert out["theta_peak_baseline"] > out["theta_peak"]
    res = read_sweep(str(tmp_path / "fig2.csv"))
    assert res.axis.shape == (9,)
    assert any("stray-pump" in a or "deviate" in a for a in res.metadata["annotations"])


def test_preset_atom_scaling_curve(tmp_path):
    out = preset("fig3", {"points": 7}, out_dir=str(tmp_path))
    assert 1.5 <= out["collective_slope"] <= 2.2
    assert out["slope_stderr"] >= 0.0
    assert (tmp_path / "fig3.csv").exists()


def test_fig3_matches_the_benchmark_slope_oracle(tmp_path):
    # sweep-small's oracle holds collective_slope to 1e-9 relative; each
    # random-phase baseline is held to the recursion on 400 levels
    out = preset("fig3", out_dir=str(tmp_path))
    assert out["collective_slope"] == pytest.approx(1.7946121688624455, rel=1e-9, abs=0.0)
    res = read_sweep(str(tmp_path / "fig3.csv"))
    cfg, g_tau = res.metadata["config"], res.metadata["derived"]["g_tau"]
    rho_ee = math.sin(0.5 * cfg["theta"]) ** 2
    n_c = res.axis / rho_ee / (cfg["gamma_c"] * cfg["tau"])
    ref = [np.arange(400) @ pn_random_phase(nc, rho_ee, g_tau, 399) for nc in n_c]
    assert np.max(np.abs(res.baseline - ref)) <= 1e-12


def test_preset_sequential_emission(tmp_path):
    out = preset("figS1", {"atoms": 12}, out_dir=str(tmp_path))
    res = read_sweep(str(tmp_path / "figS1.csv"))
    assert res.axis.shape == (12,)
    assert np.all(np.diff(res.mean_n) > 0.0)
    # phased emission accelerates: the last step beats the running average
    assert 1.5 < out["last_increment_over_average"] < 2.0
    assert out["final_mean_n"] > out["final_bunched"] * 0.9


def test_last_increment_of_one_atom_and_of_no_emission():
    # one atom's increment is the average; ground-state atoms emit nothing
    _, summary = lossless_emission(small_cavity(), atoms=1)
    assert summary["last_increment_over_average"] == 1.0
    _, summary = lossless_emission(small_cavity(theta=0.0), atoms=3)
    assert math.isnan(summary["last_increment_over_average"])


def test_preset_phase_noise_robustness(tmp_path):
    out = preset("figS3", {"grid_max": 200e3}, out_dir=str(tmp_path))
    res = read_sweep(str(tmp_path / "figS3.csv"))
    assert res.axis.shape == (5,)
    assert out["mean_n"] == res.mean_n.tolist()
    # each mean is the master equation at the linewidth's phase-diffusion rate
    cfg = RunConfig(**res.metadata["config"])
    a, k = cfg.atom(), cfg.kick()
    for lw, mean in zip(res.axis, res.mean_n):
        rate = 2.0 * math.pi * lw / cfg.gamma_c
        assert mean == mean_photon(steady_state_auto(cfg.derived_n_c, a, k, dephasing=rate))
    assert np.all(np.diff(res.mean_n) < 0.0)
    # the random-phase pump has no phase to diffuse
    assert np.all(res.baseline == res.baseline[0])
    assert np.all(res.mean_n > res.baseline)


def test_preset_phase_noise_notes_overlapping_transits_once(tmp_path):
    # the linewidth leaves the flux alone, so the curve carries one note
    preset("figS3", {"n_mean": 2.0, "points": 2}, out_dir=str(tmp_path))
    res = read_sweep(str(tmp_path / "figS3.csv"))
    assert res.metadata["annotations"] == ["mean intracavity atom number 2 exceeds 1"]


@pytest.mark.parametrize(
    "name, key, value, kind",
    [("fig3", "points", "7", "int"), ("fig2", "points", "7", "int"),
     ("figS1", "atoms", "7", "int"), ("figS3", "points", "7", "int"),
     ("figS5", "points", "7", "int"), ("figS3", "grid_max", "abc", "float"),
     ("figS5", "grid_min", "7", "float"), ("figS5", "grid_max", True, "float")],
)
def test_a_preset_read_is_refused_by_the_kind_its_pipeline_uses(tmp_path, name, key, value, kind):
    # each read is checked once, where it is used: a count as a count
    with pytest.raises(ValueError, match=f"^'{key}' must be {kind}, got {value!r}$"):
        preset(name, {key: value}, out_dir=str(tmp_path))
    assert not list(tmp_path.iterdir())


def test_preset_phase_noise_rejects_a_point_count_below_one(tmp_path):
    for points in (0, -2):
        with pytest.raises(ValueError, match="^points must be at least 1, got "):
            preset("figS3", {"points": points}, out_dir=str(tmp_path))
    assert not list(tmp_path.iterdir())


def test_preset_saturation_curves(tmp_path):
    out = preset("figS5", {"points": 3, "grid_max": 50.0}, out_dir=str(tmp_path))
    assert len(out["files"]) == 6
    for g_tau_label in ("0p01", "0p03", "0p1"):
        res = read_sweep(str(tmp_path / f"figS5_gtau_{g_tau_label}.csv"))
        assert res.axis[-1] == pytest.approx(50.0)
        assert np.all(np.isfinite(res.mean_n))
        # the requested range fits the solver, so no range-shortening note
        assert not any("solver guard" in a for a in res.metadata["annotations"])
    assert out["curves"]["0.01"]["nc_max"] == pytest.approx(50.0)


def test_preset_saturation_curves_stop_at_the_solver_guard(tmp_path, monkeypatch):
    # a guard of 60 levels caps every curve well short of its 3.3/(g_tau)^2
    # target; each stops where the suggested cutoff first fits 30 levels
    monkeypatch.setattr(steady, "DEFAULT_MAX_DIM", 60)
    out = preset("figS5", {"points": 3}, out_dir=str(tmp_path))
    for g_tau, label in ((0.01, "0p01"), (0.03, "0p03"), (0.1, "0p1")):
        nc_max = out["curves"][f"{g_tau:g}"]["nc_max"]
        assert nc_max < 3.3 / g_tau**2
        assert suggest_n_max(nc_max, prepare(HALF), g_tau) <= steady.DEFAULT_MAX_DIM - 30
        # within the bisection's 2% of the largest n_c that fits
        assert suggest_n_max(1.02 * nc_max, prepare(HALF), g_tau) > steady.DEFAULT_MAX_DIM - 30
        res = read_sweep(str(tmp_path / f"figS5_gtau_{label}.csv"))
        assert res.axis[-1] == pytest.approx(nc_max)
        assert np.all(np.isfinite(res.mean_n)) and np.all(np.isfinite(res.baseline))
        assert max(res.metadata["n_max_used"]) <= steady.DEFAULT_MAX_DIM - 30
        assert any(
            a.startswith(f"curve stops at n_c={nc_max:.4g}, short of the requested")
            and a.endswith("exceed the direct-solver guard")
            for a in res.metadata["annotations"]
        )


def test_lossless_refuses_too_many_atoms_before_the_queue_runs(monkeypatch):
    queued = []
    monkeypatch.setattr(experiments, "lossless_sequence", lambda *args: queued.append(args))
    with pytest.raises(ResourceError):
        lossless_emission(small_cavity(), atoms=65)
    assert queued == []


def test_preset_buildup_transient(tmp_path):
    out = preset("figS6", {"n_c": 5.0, "t_end": 3.0}, out_dir=str(tmp_path))
    res = read_sweep(str(tmp_path / "figS6.csv"))
    assert res.axis[0] == 0.0
    assert res.axis[-1] == pytest.approx(3.0)
    assert res.axis.shape == (16,)
    assert res.mean_n[0] == 0.0
    assert out["steady_mean_n"] > 0.0
    assert np.isfinite(out["lossless_at_nc_atoms"])


def test_preset_buildup_shorter_than_n_c_atoms(tmp_path):
    # 0.5 decay times send 5 of the n_c = 10 atoms, so no point sits at n_c atoms
    out = preset("figS6", {"t_end": 0.5}, out_dir=str(tmp_path))
    assert read_sweep(str(tmp_path / "figS6.csv")).axis.shape == (6,)
    assert math.isnan(out["lossless_at_nc_atoms"])


def test_discrete_transient_steps_land_on_injection_grid():
    # g_tau = 0.01 and n_c = 10 on levels 0..6: 30 atoms in 3 decay times
    cfg = small_cavity(g=1e4, n_c=10.0, t_end=3.0, n_max=6, injection="regular")
    res, summary = transient_buildup(cfg)
    assert res.axis.shape == (31,)
    assert np.allclose(np.diff(res.axis), 0.1)
    assert res.mean_n[-1] == pytest.approx(2.75e-3, rel=0.2)
    assert summary["final_mean_n"] == res.mean_n[-1]


def test_coarse_transient_relaxes_to_the_dephased_steady_state():
    # a linewidth of 0.5 Hz diffuses the field's phase at pi gamma_c, which
    # also speeds the coherence's relaxation
    _, summary = transient_buildup(small_cavity(linewidth=0.5, t_end=8.0))
    assert summary["final_mean_n"] == pytest.approx(summary["steady_mean_n"], rel=1e-4)


def test_coarse_transient_integrates_on_the_levels_its_steady_state_holds():
    # g_tau = 0.1, theta = 2, n_c = 50: 34 of the steady cutoff's 42 levels
    # hold the steady state, and <n>(t) on them is the full cutoff's to the
    # integrator's rtol
    cfg = small_cavity(n_c=50.0, theta=2.0, t_end=4.0)
    res, _ = transient_buildup(cfg)
    s = steady_state_auto(50.0, cfg.atom(), cfg.kick())
    assert res.metadata["n_max_used"] < s.n_max
    _, states = evolve(MasterParams(50.0, cfg.kick(), cfg.atom(), s.n_max), vacuum(s.n_max), 4.0)
    assert res.mean_n == pytest.approx([mean_photon(q) for q in states], rel=1e-8)


def test_regular_transient_refuses_a_baseline_past_the_guard_before_solving(monkeypatch):
    # 30 atoms need a 32-level lossless baseline, past a guard of 20 levels
    monkeypatch.setattr(steady, "DEFAULT_MAX_DIM", 20)
    called = []
    for name in ("kick_sequence", "lossless_sequence", "steady_state_auto"):
        monkeypatch.setattr(experiments, name, lambda *a, name=name, **kw: called.append(name))
    with pytest.raises(ResourceError, match="solver guard"):
        transient_buildup(small_cavity(g=1e4, n_c=10.0, t_end=3.0, injection="regular"))
    assert called == []
