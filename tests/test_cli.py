import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavsr import experiments, steady
from cavsr.atom import prepare
from cavsr.cli import main
from cavsr.dicke import MAX_BRUTE_FORCE_ATOMS
from cavsr.errors import TruncationError
from cavsr.hilbert import mean_photon
from cavsr.interaction import KickParams


@pytest.fixture
def coherent_config(tmp_path):
    path = tmp_path / "coherent.json"
    path.write_text(
        json.dumps(
            {"g": 1e4, "gamma_c": 1.0, "tau": 1e-6, "theta": 0.5 * math.pi, "n_c": 100.0}
        ),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(
        json.dumps(
            {"g": 1e5, "gamma_c": 1.0, "tau": 1e-6, "theta": 0.5 * math.pi, "n_c": 3.0}
        ),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def scaling_config(tmp_path):
    path = tmp_path / "scaling.json"
    path.write_text(
        json.dumps(
            {"g": 2.0 * math.pi * 290e3, "gamma_c": 2.0 * math.pi * 75e3,
             "tau": 101e-9, "theta": 0.5 * math.pi, "n_c": 1.0}
        ),
        encoding="utf-8",
    )
    return str(path)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    err = json.loads(captured.err) if captured.err else None
    return rc, payload, err


def test_steady_reports_coherent_field(capsys, tmp_path, coherent_config):
    rc, out, _ = run_cli(
        capsys, "steady", "--config", coherent_config, "--out", str(tmp_path)
    )
    assert rc == 0
    assert out["mean_n"] == pytest.approx(0.2525, rel=0.01)
    assert out["purity"] >= 0.98
    assert out["predicted_alpha"] == pytest.approx([0.0, -0.5])
    assert out["fidelity_to_predicted_alpha"] >= 0.99
    assert (tmp_path / "steady_pn.csv").exists()
    dist = np.loadtxt(tmp_path / "steady_pn.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.sum(dist[:, 1]) == pytest.approx(1.0, abs=1e-9)


def test_steady_reports_an_unreachable_coherent_target(capsys, tmp_path):
    # at n_c 300 the linear prediction |alpha| = 15 needs ~225 photons, but
    # the field saturates at <n> = 74 on a 146-level basis: the fidelity has
    # no value there, and the command says why instead of failing
    path = tmp_path / "saturated.json"
    path.write_text(
        json.dumps({"g": 1e5, "gamma_c": 1.0, "tau": 1e-6, "theta": 0.5 * math.pi, "n_c": 300}),
        encoding="utf-8",
    )
    rc, out, _ = run_cli(capsys, "steady", "--config", str(path), "--out", str(tmp_path))
    assert rc == 0
    assert out["predicted_alpha"] == pytest.approx([0.0, -15.0])
    assert out["n_max_used"] == 146
    assert out["mean_n"] == pytest.approx(74.02, rel=1e-3)
    # the basis holds the state a full basis 40 levels wider gives
    ref = steady.steady_state(
        steady.MasterParams(300.0, KickParams(0.1), prepare(0.5 * math.pi), 186)
    )
    assert out["mean_n"] == pytest.approx(mean_photon(ref), rel=1e-10)
    assert out["fidelity_to_predicted_alpha"] is None
    assert out["fidelity_note"].startswith("TruncationError: coherent target |alpha|=15")
    assert (tmp_path / "steady_pn.csv").exists()


def test_steady_honours_cutoff_override(capsys, tmp_path, coherent_config):
    rc, out, _ = run_cli(
        capsys, "steady", "--config", coherent_config, "--out", str(tmp_path),
        "--n-max", "12",
    )
    assert rc == 0
    assert out["n_max_used"] == 12


def test_analytic_closed_forms(capsys, coherent_config):
    rc, out, _ = run_cli(capsys, "analytic", "--config", coherent_config)
    assert rc == 0
    assert out["n_c"] == 100.0
    assert out["g_tau"] == pytest.approx(0.01)
    assert out["n_eff"] == pytest.approx(100.0)
    assert out["mean_n_total"] == pytest.approx(0.2525, rel=1e-6)
    assert out["mean_n_noncollective"] == pytest.approx(0.0025, rel=1e-6)
    assert out["beta_factors"] == pytest.approx([1e-4, 1e-2])
    assert out["dominance_threshold"] == pytest.approx(1.0)
    assert out["saturation_nc"] == pytest.approx(1e4 * 0.5 * math.pi)


def test_analytic_reports_divergence_as_text(capsys, tmp_path):
    # pump parameter deep in the lasing regime: the noncollective closed form
    # has no finite value and the CLI should say so rather than crash
    path = tmp_path / "lasing.json"
    path.write_text(
        json.dumps({"g": 1e6, "gamma_c": 1.0, "tau": 1e-6, "theta": math.pi, "n_c": 10.0}),
        encoding="utf-8",
    )
    rc, out, _ = run_cli(capsys, "analytic", "--config", str(path))
    assert rc == 0
    assert isinstance(out["mean_n_noncollective"], str)
    assert "DivergenceError" in out["mean_n_noncollective"]


def test_sweep_pump_finds_peak(capsys, tmp_path, small_config):
    rc, out, _ = run_cli(
        capsys, "sweep-pump", "--config", small_config, "--out", str(tmp_path),
        "--points", "7", "--theta-max", str(1.25 * math.pi),
    )
    assert rc == 0
    assert out["points"] == 7
    assert 0.0 < out["theta_peak"] < math.pi
    assert (tmp_path / "sweep_pump.csv").exists()


def test_sweep_atoms_runs_log_grid(capsys, tmp_path, scaling_config):
    rc, out, _ = run_cli(
        capsys, "sweep-atoms", "--config", scaling_config, "--out", str(tmp_path),
        "--points", "4", "--grid-min", "0.05", "--grid-max", "1.0",
    )
    assert rc == 0
    assert out["points"] == 4
    assert out["collective_final"] > 0.0
    data = np.loadtxt(tmp_path / "sweep_atoms.csv", delimiter=",", skiprows=1, ndmin=2)
    assert data.shape == (4, 4)
    assert data[0, 0] == pytest.approx(0.05)


def test_sweep_atoms_runs_linear_grid(capsys, tmp_path, scaling_config):
    rc, out, _ = run_cli(
        capsys, "sweep-atoms", "--config", scaling_config, "--out", str(tmp_path),
        "--points", "4", "--grid-min", "0.1", "--grid-max", "1.0", "--linear",
    )
    assert rc == 0
    assert out["points"] == 4
    data = np.loadtxt(tmp_path / "sweep_atoms.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.allclose(data[:, 0], [0.1, 0.4, 0.7, 1.0], rtol=1e-12, atol=0.0)


def test_lossless_counts_atoms(capsys, tmp_path, small_config):
    rc, out, _ = run_cli(
        capsys, "lossless", "--config", small_config, "--out", str(tmp_path),
        "--atoms", "6",
    )
    assert rc == 0
    assert out["atoms"] == 6
    assert out["final_mean_n"] > 0.0
    assert out["final_bunched"] > 0.0
    data = np.loadtxt(tmp_path / "lossless.csv", delimiter=",", skiprows=1, ndmin=2)
    assert data.shape[0] == 6


def test_transient_approaches_steady_state(capsys, tmp_path, small_config):
    rc, out, _ = run_cli(
        capsys, "transient", "--config", small_config, "--out", str(tmp_path),
        "--t-end", "6.0",
    )
    assert rc == 0
    assert out["mode"] == "coarse-ode"
    assert out["final_mean_n"] == pytest.approx(out["steady_mean_n"], rel=0.01)


def test_transient_discrete_mode_walks_the_atom_grid(capsys, tmp_path, small_config):
    rc, out, _ = run_cli(
        capsys, "transient", "--config", small_config, "--out", str(tmp_path),
        "--t-end", "2.0", "--mode", "discrete-regular",
    )
    assert rc == 0
    data = np.loadtxt(tmp_path / "transient.csv", delimiter=",", skiprows=1, ndmin=2)
    assert data.shape[0] == 7  # 6 atoms in 2 decay times at n_c = 3, plus t = 0
    assert np.allclose(np.diff(data[:, 0]), 1.0 / 3.0)
    # the map runs on the Poisson beam's steady cutoff
    meta = json.loads((tmp_path / "transient.meta.json").read_text(encoding="utf-8"))
    steady_cutoff = steady.steady_state_auto(3.0, prepare(0.5 * math.pi), KickParams(0.1)).n_max
    assert meta["n_max_used"] == steady_cutoff


def test_transient_retries_once_on_the_steady_cutoff(capsys, tmp_path, small_config, monkeypatch):
    # a held cutoff of 2 levels cannot carry the buildup: evolve refuses it
    # and the transient runs again on the steady cutoff
    used, works = [], []

    def recording_evolve(p, q0, t_end):
        used.append(p.n_max)
        times, states = steady.evolve(p, q0, t_end)
        works.append(states.work)
        return times, states

    monkeypatch.setattr(steady, "_held_cutoff", lambda p, s: 2)
    monkeypatch.setattr(experiments, "evolve", recording_evolve)
    rc, out, _ = run_cli(
        capsys, "transient", "--config", small_config, "--out", str(tmp_path), "--t-end", "6.0",
    )
    assert rc == 0
    meta = json.loads((tmp_path / "transient.meta.json").read_text(encoding="utf-8"))
    steady_cutoff = steady.steady_state_auto(3.0, prepare(0.5 * math.pi), KickParams(0.1)).n_max
    assert used == [2, steady_cutoff]
    assert meta["n_max_used"] == steady_cutoff
    # the refused run had no output; the counts are the steady cutoff's run's
    assert len(works) == 1 and meta["evolve_work"] == works[0]
    assert out["final_mean_n"] == pytest.approx(out["steady_mean_n"], rel=0.01)


def test_transient_sidecar_records_the_integration_work(capsys, tmp_path):
    # the transient benchmark's point: 106 held levels, 2744 matvecs over 81
    # Krylov runs, one interval taking two. The count is a band, not an
    # equality, since any reordering of the floating-point work can move a
    # run's dimension by a vector
    config = tmp_path / "transient.json"
    config.write_text(json.dumps({"g": 0.05 / 1e-6, "gamma_c": 1.0, "tau": 1e-6,
                                  "theta": 0.5 * math.pi, "n_c": 300.0}), encoding="utf-8")
    rc, _, _ = run_cli(capsys, "transient", "--config", str(config), "--out", str(tmp_path))
    assert rc == 0
    meta = json.loads((tmp_path / "transient.meta.json").read_text(encoding="utf-8"))
    work = meta["evolve_work"]
    assert sorted(work) == ["krylov_runs", "matvecs"]
    assert meta["n_max_used"] == 105
    assert abs(work["matvecs"] - 2744) <= 0.02 * 2744
    assert work["krylov_runs"] >= 80


def test_transient_reraises_when_the_steady_cutoff_fails_too(
    capsys, tmp_path, small_config, monkeypatch
):
    # evolve refuses every basis: the held cutoff, then the steady cutoff,
    # whose refusal is the command's error
    used = []

    def refusing_evolve(p, q0, t_end):
        used.append(p.n_max)
        raise TruncationError(f"refused {p.n_max} levels")

    monkeypatch.setattr(experiments, "evolve", refusing_evolve)
    rc, out, err = run_cli(
        capsys, "transient", "--config", small_config, "--out", str(tmp_path / "out"),
        "--t-end", "6.0",
    )
    assert rc == 1
    assert out is None
    a, k = prepare(0.5 * math.pi), KickParams(0.1)
    s = steady.steady_state_auto(3.0, a, k)
    held = steady._held_cutoff(steady.MasterParams(3.0, k, a, s.n_max), s)
    assert held < s.n_max
    assert used == [held, s.n_max]
    assert err["error"] == {"type": "TruncationError", "message": f"refused {s.n_max} levels"}
    assert not (tmp_path / "out").exists()


@pytest.fixture
def regular_config(tmp_path, small_config):
    # small_config's beam with regular injection
    cfg = json.loads(Path(small_config).read_text(encoding="utf-8"))
    path = tmp_path / "regular.json"
    path.write_text(json.dumps({**cfg, "injection": "regular"}), encoding="utf-8")
    return str(path)


def test_transient_of_a_regular_config_runs_the_map(
    capsys, tmp_path, small_config, regular_config
):
    runs = {}
    for label, argv in (
        ("config", ["--config", regular_config]),
        ("flag", ["--config", small_config, "--mode", "discrete-regular"]),
    ):
        rc, out, _ = run_cli(
            capsys, "transient", *argv, "--out", str(tmp_path / label), "--t-end", "2.0"
        )
        assert rc == 0
        runs[label] = out, (tmp_path / label / "transient.csv").read_text(encoding="utf-8")
    out, text = runs["config"]
    assert out["mode"] == "discrete-regular"
    assert "steady_mean_n" not in out
    assert text == runs["flag"][1]


def test_mode_flag_overrides_the_config_injection(capsys, tmp_path, regular_config):
    rc, out, _ = run_cli(
        capsys, "transient", "--config", regular_config, "--out", str(tmp_path),
        "--t-end", "2.0", "--mode", "coarse-ode",
    )
    assert rc == 0
    assert out["mode"] == "coarse-ode"
    assert out["steady_mean_n"] > 0.0
    meta = json.loads((tmp_path / "transient.meta.json").read_text(encoding="utf-8"))
    assert meta["config"]["injection"] == "poisson"

@pytest.fixture
def noisy_config(tmp_path, small_config):
    # small_config with a pump linewidth of 0.5 Hz: phase diffusion at pi gamma_c
    cfg = json.loads(Path(small_config).read_text(encoding="utf-8"))
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps({**cfg, "linewidth": 0.5}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command, key", [("steady", "mean_n"), ("transient", "steady_mean_n")])
def test_pump_linewidth_lowers_the_steady_field(
    capsys, tmp_path, small_config, noisy_config, command, key
):
    means = []
    for config in (small_config, noisy_config):
        rc, out, _ = run_cli(capsys, command, "--config", config, "--out", str(tmp_path))
        assert rc == 0
        means.append(out[key])
    assert means[1] < means[0]


def test_discrete_transient_rejects_a_pump_linewidth(capsys, tmp_path, noisy_config):
    # the exact regular-beam map has no pump phase noise
    rc, out, err = run_cli(
        capsys, "transient", "--config", noisy_config, "--out", str(tmp_path / "out"),
        "--mode", "discrete-regular",
    )
    assert rc == 1
    assert out is None
    assert err["error"]["type"] == "ValueError"
    assert "linewidth" in err["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_trajectory_ensemble_summary(capsys, tmp_path, small_config):
    rc, out, _ = run_cli(
        capsys, "trajectory", "--config", small_config, "--out", str(tmp_path),
        "--t-end", "4.0", "--trajectories", "10", "--seed", "2",
    )
    assert rc == 0
    assert out["n_trajectories"] == 10
    assert out["steady_stderr"] > 0.0
    assert out["jump_rate"] >= 0.0
    assert out["master_steady_mean_n"] > 0.0
    data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    assert data[-1, 0] == pytest.approx(4.0)  # axis in units of 1/gamma_c
    counters = json.loads((tmp_path / "trajectory.meta.json").read_text())["trajectory"]
    assert counters["atoms"] > 0 and counters["jumps"] >= 0
    assert 0.0 <= counters["max_top_population"] < 1e-6


def test_trajectory_runs_on_the_cutoff_its_floor_accepted(capsys, tmp_path, small_config):
    # --n-max starts the floor's cutoff search, as in every command that
    # solves; 4 levels overflow a trajectory, the search settles on 8
    rc, out, err = run_cli(
        capsys, "trajectory", "--config", small_config, "--out", str(tmp_path),
        "--n-max", "4", "--t-end", "4.0", "--trajectories", "10",
    )
    assert rc == 0, err
    meta = json.loads((tmp_path / "trajectory.meta.json").read_text())
    assert meta["n_max_used"] == 8
    assert out["master_steady_mean_n"] > 0.0


def test_dicke_rates_and_weights(capsys, small_config):
    rc, out, _ = run_cli(capsys, "dicke", "--config", small_config, "--atoms", "4")
    assert rc == 0
    assert out["ensemble_rate"] == pytest.approx(5.0)
    assert out["independent_rate"] == pytest.approx(2.0)
    assert out["brute_force_rate"] == pytest.approx(5.0)
    assert np.sum(out["weights"]) == pytest.approx(1.0)


def test_dicke_half_integer_ladder(capsys, small_config):
    rc, out, _ = run_cli(
        capsys, "dicke", "--config", small_config, "--atoms", "3", "--m", "0.5"
    )
    assert rc == 0
    assert out["dicke_rate"] == pytest.approx(4.0)


def test_dicke_skips_brute_force_for_large_ensembles(capsys, small_config):
    atoms = str(MAX_BRUTE_FORCE_ATOMS + 1)
    rc, out, _ = run_cli(capsys, "dicke", "--config", small_config, "--atoms", atoms)
    assert rc == 0
    assert out["brute_force_rate"] is None
    assert out["note"] == f"direct 2^N check skipped above {MAX_BRUTE_FORCE_ATOMS} atoms"


def test_preset_via_cli(capsys, tmp_path):
    ov = tmp_path / "ov.json"
    ov.write_text('{"points": 7}', encoding="utf-8")
    rc, out, _ = run_cli(
        capsys, "preset", "fig2", "--config", str(ov), "--out", str(tmp_path)
    )
    assert rc == 0
    assert (tmp_path / "fig2.csv").exists()
    assert "theta_peak" in out


def test_preset_overrides_that_are_not_an_object_are_a_clean_error(capsys, tmp_path):
    ov = tmp_path / "ov.json"
    ov.write_text("[7]", encoding="utf-8")
    rc, out, err = run_cli(
        capsys, "preset", "fig2", "--config", str(ov), "--out", str(tmp_path / "out")
    )
    assert rc == 1
    assert out is None
    assert err["error"]["type"] == "ValueError"
    assert "JSON object" in err["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_missing_config_is_a_clean_error(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "steady", "--out", str(tmp_path))
    assert rc == 1
    assert out is None
    assert err["error"]["type"] == "ValueError"

    rc, _, err = run_cli(
        capsys, "steady", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)
    )
    assert rc == 1
    assert err["error"]["type"] == "FileNotFoundError"


def test_bad_config_key_is_a_clean_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"g": 1e4, "flux": 2}', encoding="utf-8")
    rc, _, err = run_cli(capsys, "steady", "--config", str(path))
    assert rc == 1
    assert err["error"]["type"] == "ValueError"
    assert "flux" in err["error"]["message"]


def test_config_missing_a_required_field_is_a_clean_error(capsys, tmp_path, coherent_config):
    cfg = json.loads(Path(coherent_config).read_text(encoding="utf-8"))
    del cfg["theta"]
    path = tmp_path / "no_theta.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc, out, err = run_cli(capsys, "steady", "--config", str(path), "--out", str(tmp_path / "out"))
    assert rc == 1
    assert out is None
    assert err["error"]["type"] == "ValueError"
    assert err["error"]["message"].startswith("bad config")
    assert "theta" in err["error"]["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("points", None), ("g", "abc")])
def test_preset_override_of_the_wrong_type_is_a_clean_error(capsys, tmp_path, key, value):
    ov = tmp_path / "ov.json"
    ov.write_text(json.dumps({key: value}), encoding="utf-8")
    rc, out, err = run_cli(
        capsys, "preset", "fig3", "--config", str(ov), "--out", str(tmp_path / "out")
    )
    assert rc == 1
    assert out is None
    assert err["error"]["type"] == "ValueError"
    assert repr(key) in err["error"]["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [("steady", "n_max", "abc"), ("steady", "n_max", 30.0), ("analytic", "phi", None),
     ("trajectory", "seed", 1.0)],
)
def test_config_field_of_the_wrong_type_is_a_clean_error(
    capsys, tmp_path, coherent_config, command, key, value
):
    cfg = json.loads(Path(coherent_config).read_text(encoding="utf-8"))
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({**cfg, key: value}), encoding="utf-8")
    rc, out, err = run_cli(capsys, command, "--config", str(path), "--out", str(tmp_path / "out"))
    assert rc == 1
    assert out is None
    assert err["error"]["type"] == "ValueError"
    assert repr(key) in err["error"]["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("injection", "regularr"), ("linewidth", -5.0), ("t_end", -1.0), ("n_max", 0),
     ("n_trajectories", 0), ("n_trajectories", 1), ("seed", -1), ("transit_dephase", 1.5),
     # JSON reads NaN and Infinity as floats
     ("n_c", math.nan), ("g", math.nan), ("t_end", math.nan), ("tau", math.inf),
     ("phi", -math.inf)],
)
def test_config_field_out_of_range_is_a_clean_error(capsys, tmp_path, coherent_config, key, value):
    # the range is checked when the config is read, not only by the commands that use it
    cfg = json.loads(Path(coherent_config).read_text(encoding="utf-8"))
    path = tmp_path / "ranged.json"
    path.write_text(json.dumps({**cfg, key: value}), encoding="utf-8")
    rc, out, err = run_cli(capsys, "steady", "--config", str(path), "--out", str(tmp_path / "out"))
    assert rc == 1
    assert out is None
    assert err["error"]["type"] == "ValueError"
    assert err["error"]["message"].startswith(key)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, key",
    [(["sweep-atoms", "--grid-min", "nan"], "grid_min"),
     (["sweep-atoms", "--grid-max", "inf"], "grid_max"),
     (["sweep-pump", "--theta-max", "nan"], "theta_max")],
)
def test_non_finite_flag_is_a_clean_error(capsys, tmp_path, small_config, argv, key):
    # refused while the run is set up, before any solve starts
    rc, out, err = run_cli(capsys, *argv, "--config", small_config, "--out", str(tmp_path / "out"))
    assert rc == 1
    assert out is None
    assert err["error"]["type"] == "ValueError"
    assert err["error"]["message"].startswith(key)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, key", [("fig3", "grid_min"), ("figS3", "grid_max")])
def test_non_finite_preset_grid_is_a_clean_error(capsys, tmp_path, name, key):
    ov = tmp_path / "ov.json"
    ov.write_text(json.dumps({key: math.nan}), encoding="utf-8")
    rc, out, err = run_cli(
        capsys, "preset", name, "--config", str(ov), "--out", str(tmp_path / "out")
    )
    assert rc == 1
    assert out is None
    assert err["error"]["message"].startswith(key)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, overrides, key",
    [("fig3", {"points": 2.7}, "points"), ("figS1", {"atoms": 2.7}, "atoms"),
     ("figS3", {"points": 2.0}, "points"), ("figS5", {"points": 3.5, "grid_max": 5.0}, "points")],
    ids=["fig3", "figS1", "figS3", "figS5"],
)
def test_preset_count_override_must_be_an_integer(capsys, tmp_path, name, overrides, key):
    ov = tmp_path / "ov.json"
    ov.write_text(json.dumps(overrides), encoding="utf-8")
    rc, out, err = run_cli(
        capsys, "preset", name, "--config", str(ov), "--out", str(tmp_path / "out")
    )
    assert rc == 1
    assert out is None
    assert err["error"]["type"] == "ValueError"
    assert err["error"]["message"].startswith(f"{key!r} must be int")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, overrides, key",
    [(["sweep-atoms", "--grid-min", "-1"], None, "grid_min"),
     (["sweep-atoms", "--grid-max", "0"], None, "grid_max"),
     (["preset", "fig3"], {"grid_min": -1}, "grid_min"),
     (["preset", "figS5"], {"grid_min": -1}, "grid_min"),
     (["preset", "figS5"], {"grid_max": -1}, "grid_max")],
    ids=["sweep-atoms-min", "sweep-atoms-max", "fig3-min", "figS5-min", "figS5-max"],
)
def test_non_positive_geometric_grid_is_a_clean_error(
    capsys, tmp_path, scaling_config, argv, overrides, key
):
    # refused before np.geomspace sees it, so no logarithm warns on the way
    config = scaling_config
    if overrides is not None:
        config = tmp_path / "ov.json"
        config.write_text(json.dumps(overrides), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(
            capsys, *argv, "--config", str(config), "--out", str(tmp_path / "out")
        )
    assert rc == 1
    assert out is None
    assert err["error"]["type"] == "ValueError"
    assert err["error"]["message"].startswith(f"{key} must be positive")
    assert not (tmp_path / "out").exists()


def preset_config(capsys, tmp_path, name):
    """Run a preset at its defaults: its sidecar's config as a CLI config file, its summary."""
    out = tmp_path / name
    rc, summary, _ = run_cli(capsys, "preset", name, "--out", str(out))
    assert rc == 0
    meta = json.loads((out / f"{name}.meta.json").read_text(encoding="utf-8"))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(meta["config"]), encoding="utf-8")
    return str(path), summary


def test_discrete_transient_runs_the_figs6_pipeline(capsys, tmp_path):
    config, _ = preset_config(capsys, tmp_path, "figS6")
    rows = (tmp_path / "figS6" / "figS6.csv").read_text(encoding="utf-8")
    assert json.loads(Path(config).read_text(encoding="utf-8"))["n_c"] == 10.0
    rc, out, _ = run_cli(
        capsys, "transient", "--config", config, "--out", str(tmp_path),
        "--mode", "discrete-regular",
    )
    assert rc == 0
    assert out["t_end"] == 6.0
    text = (tmp_path / "transient.csv").read_text(encoding="utf-8")
    assert text == rows
    assert len(text.splitlines()) == 62  # header and t = 0, 1/10, ..., 6


def test_zero_duration_from_config_or_flag(capsys, tmp_path, small_config):
    cfg = json.loads(Path(small_config).read_text(encoding="utf-8"))
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({**cfg, "t_end": 0}), encoding="utf-8")
    runs = {}
    for label, argv in (
        ("config", ["--config", str(path)]),
        ("flag", ["--config", small_config, "--t-end", "0"]),
    ):
        out_dir = tmp_path / label
        rc, out, _ = run_cli(capsys, "transient", *argv, "--out", str(out_dir))
        assert rc == 0
        del out["files"]
        # the sidecar records the duration run, whether it came from the file or the flag
        meta = json.loads((out_dir / "transient.meta.json").read_text(encoding="utf-8"))
        runs[label] = out, (out_dir / "transient.csv").read_text(encoding="utf-8"), meta
    assert runs["config"] == runs["flag"]
    out, text, _ = runs["config"]
    assert out["t_end"] == 0
    rows = text.splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("0,0,")  # the vacuum at t = 0


@pytest.mark.parametrize(
    "name, command, stem",
    [("fig2", "sweep-pump", "sweep_pump"), ("fig3", "sweep-atoms", "sweep_atoms"),
     ("figS1", "lossless", "lossless")],
)
def test_sweep_commands_run_the_figure_pipelines(capsys, tmp_path, name, command, stem):
    # at the preset's configuration and both defaults, command and preset are one
    # curve, one sidecar and one summary
    config, summary = preset_config(capsys, tmp_path, name)
    rc, out, _ = run_cli(capsys, command, "--config", config, "--out", str(tmp_path))
    assert rc == 0
    assert {**out, "files": None} == {**summary, "files": None}
    for suffix in (".csv", ".meta.json"):
        ours = (tmp_path / f"{stem}{suffix}").read_text(encoding="utf-8")
        assert ours == (tmp_path / name / f"{name}{suffix}").read_text(encoding="utf-8")
