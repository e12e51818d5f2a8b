import ast
import contextlib
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import cavsr
from cavsr import (
    _roots,
    analytic,
    atom,
    cli,
    dicke,
    errors,
    experiments,
    hilbert,
    interaction,
    steady,
    trajectory,
)
from cavsr.atom import dephase, prepare
from cavsr.errors import ConvergenceError

MODULES = (analytic, atom, dicke, errors, experiments, hilbert, interaction, steady, trajectory)


def test_package_exports_exactly_the_module_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed)), "a public name is listed by two modules"
    assert set(cavsr.__all__) == {"__version__", *listed}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(cavsr, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_cli_imports_only_the_pipelines():
    # the CLI parses and prints; perfbench's traced run wraps the two steady names in cli
    tree = ast.parse(inspect.getsource(cli))
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert {module for module, _ in imported} == {None, "errors", "experiments", "steady"}
    assert {name for module, name in imported if module is None} == {"__version__"}
    assert {name for module, name in imported if module == "steady"} == {
        "evolve", "steady_state_auto",
    }
    absolute = [ast.dump(node) for node in ast.walk(tree) if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.level == 0]
    assert not any("cavsr" in line for line in absolute)


def test_benchmark_finds_every_name_it_traces(monkeypatch):
    # the benchmark's traced run wraps each layer at the module attribute its
    # caller looks up; a renamed one fails here instead of in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    with contextlib.ExitStack() as stack:
        workloads.install_tracing(spans.Tracer(), stack)
        assert trajectory.jc_kick_pure is not interaction.jc_kick_pure
    assert trajectory.jc_kick_pure is interaction.jc_kick_pure


def test_every_bench_record_has_the_shared_layout():
    # each committed BENCH_<n>.json backs a speed claim in one layout, and
    # each of its paired studies ran a workload that BENCHMARK.json declares
    root = Path(__file__).resolve().parents[1]
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {workload["name"] for workload in benchmark["workloads"]}
    records = sorted(root.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        layout = {"change", "parent_commit", "host", "layer_moved", "runs", "paired_studies"}
        assert layout <= record.keys(), path.name
        studies = record["paired_studies"]["studies"]
        assert studies, path.name
        for study in studies:
            assert study["workload"] in declared, f"{path.name}: {study['workload']}"


# scipy modules whose import costs more than cavsr uses of them
UNLOADED = ("scipy.optimize", "scipy.integrate", "scipy.special")


@pytest.mark.parametrize("module", ["cavsr", "cavsr.cli"])
def test_import_leaves_the_costly_scipy_modules_unloaded(module):
    # a fresh interpreter, since this one has loaded them for the tests
    code = f"import sys, {module}; print(sorted(m for m in {UNLOADED!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(cavsr.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "[]"


def _compared_root_finds(monkeypatch, module):
    """Patch module._brentq to record each root it finds next to scipy's on the same bracket."""
    found = []

    def compared(f, a, b, args=(), xtol=_roots._XTOL):
        got = _roots._brentq(f, a, b, args=args, xtol=xtol)
        found.append((got, scipy.optimize.brentq(f, a, b, args=args, xtol=xtol)))
        return got

    monkeypatch.setattr(module, "_brentq", compared)
    return found


def test_brentq_finds_scipys_root_on_balance_brackets(monkeypatch):
    found = _compared_root_finds(monkeypatch, steady)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a = dephase(prepare(rng.uniform(0.05, math.pi)), rng.uniform(0.0, 1.0))
        steady._balance_angle(10.0 ** rng.uniform(0.0, 4.0), a, rng.uniform(0.005, 0.3))
    assert len(found) > 900
    assert all(got == want for got, want in found)


def test_brentq_finds_scipys_root_on_survival_brackets(monkeypatch):
    found = _compared_root_finds(monkeypatch, trajectory)
    rng = np.random.default_rng(6)
    for _ in range(350):
        n = np.arange(rng.integers(2, 60), dtype=float)
        amp = rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size)
        amp /= np.linalg.norm(amp)
        span = rng.uniform(0.01, 5.0)
        # one row decays until its draw no longer brings a jump before the span ends
        while span > 0.0:
            jump, s_jump = trajectory._decay(
                amp[None], np.array([span]), np.array([rng.random()]), -n, np.sqrt(n))
            if not jump[0]:
                break
            span -= s_jump[0]
    assert len(found) > 3000
    assert all(got == want for got, want in found)


def test_brentq_fails_typed():
    with pytest.raises(ConvergenceError, match="do not differ in sign"):
        _roots._brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ConvergenceError, match="NaN"):
        _roots._brentq(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0)
    # a step function leaves only bisection, which needs ~2000 halvings here
    with pytest.raises(ConvergenceError, match="did not converge in 100 iterations"):
        _roots._brentq(lambda x: -1.0 if x < 0.3 else 1.0, -1e300, 1e300)
