import json
import math
from pathlib import Path

import numpy as np
import pytest

from cavsr.cli import main
from cavsr.dicke import MAX_BRUTE_FORCE_ATOMS


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
     ("n_trajectories", 0), ("seed", -1)],
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


def preset_config(capsys, tmp_path, name):
    """Run a preset at its defaults; its sidecar's config as a CLI config file."""
    out = tmp_path / name
    rc, _, _ = run_cli(capsys, "preset", name, "--out", str(out))
    assert rc == 0
    meta = json.loads((out / f"{name}.meta.json").read_text(encoding="utf-8"))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(meta["config"]), encoding="utf-8")
    return str(path), (out / f"{name}.csv").read_text(encoding="utf-8")


def test_lossless_runs_the_figs1_pipeline(capsys, tmp_path):
    config, rows = preset_config(capsys, tmp_path, "figS1")
    rc, out, _ = run_cli(capsys, "lossless", "--config", config, "--out", str(tmp_path))
    assert rc == 0
    assert out["atoms"] == 20
    assert (tmp_path / "lossless.csv").read_text(encoding="utf-8") == rows


def test_discrete_transient_runs_the_figs6_pipeline(capsys, tmp_path):
    config, rows = preset_config(capsys, tmp_path, "figS6")
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
    [("fig2", "sweep-pump", "sweep_pump"), ("fig3", "sweep-atoms", "sweep_atoms")],
)
def test_sweep_commands_run_the_figure_pipelines(capsys, tmp_path, name, command, stem):
    # at the preset's configuration and both defaults, command and preset are one curve
    config, rows = preset_config(capsys, tmp_path, name)
    rc, _, _ = run_cli(capsys, command, "--config", config, "--out", str(tmp_path))
    assert rc == 0
    assert (tmp_path / f"{stem}.csv").read_text(encoding="utf-8") == rows
