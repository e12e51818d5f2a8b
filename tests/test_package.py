import ast
import contextlib
import importlib
import inspect
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
