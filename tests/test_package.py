import ast
import contextlib
import importlib
import inspect
import json
from pathlib import Path

import cavsr
from cavsr import (
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
