"""One rule for every scalar input: it is a number of the right kind, finite and in range, or a
ValueError names it. A bool, None or a string is no number, and a count must be an integer."""

import ast
import inspect
import math

import pytest
import scipy.sparse.linalg

from cavsr import (
    analytic, atom, cli, dicke, errors, experiments, hilbert, interaction, steady, trajectory,
)
from cavsr.analytic import mean_n_noncollective, n_eff, pn_random_phase
from cavsr.atom import AtomState, prepare
from cavsr.dicke import EnsembleSpec, ensemble_rate
from cavsr.experiments import RunConfig, atom_scaling, lossless_emission, pump_response
from cavsr.hilbert import apply_decay, coherent, coherent_amplitudes, fidelity_to_coherent, vacuum
from cavsr.interaction import KickParams, bunched_mean_n, jc_kick, lossless_sequence
from cavsr.steady import MasterParams, evolve, steady_state, steady_state_auto, suggest_n_max
from cavsr.trajectory import TrajectoryConfig

HALF = prepare(0.5 * math.pi)
K = KickParams(0.05)

RUN = dict(g=1e5, gamma_c=1.0, tau=1e-6, theta=0.5 * math.pi, n_c=3.0)
TRAJ = dict(r=5.0, gamma_c=1.0, g=1e5, tau=1e-6, theta=0.5 * math.pi, t_end=1.0)

# (entry, parameter, call with the value v)
CASES = [
    ("MasterParams", "n_c", lambda v: MasterParams(v, K, HALF, 5)),
    ("MasterParams", "dephasing", lambda v: MasterParams(1.0, K, HALF, 5, dephasing=v)),
    ("KickParams", "g_tau", KickParams),
    ("AtomState", "rho_ee", lambda v: AtomState(v, 0.0)),
    ("AtomState", "rho_eg", lambda v: AtomState(0.5, v)),
    ("EnsembleSpec.from_pulse", "theta", lambda v: EnsembleSpec.from_pulse(2, v)),
    ("steady_state_auto", "n_c", lambda v: steady_state_auto(v, HALF, K)),
    ("steady_state_auto", "n_max", lambda v: steady_state_auto(1.0, HALF, K, n_max=v)),
    # read by the window estimate before MasterParams sees it
    ("steady_state_auto", "dephasing", lambda v: steady_state_auto(1.0, HALF, K, dephasing=v)),
    ("suggest_n_max", "n_c", lambda v: suggest_n_max(v, HALF, 0.05)),
    ("steady_state", "n_c", lambda v: steady_state(MasterParams(v, K, HALF, 5))),
    ("steady_state", "dephasing",
     lambda v: steady_state(MasterParams(1.0, K, HALF, 5, dephasing=v))),
    ("evolve", "dephasing",
     lambda v: evolve(MasterParams(1.0, K, HALF, 5, dephasing=v), vacuum(5), 1.0)),
    ("pn_random_phase", "n_c", lambda v: pn_random_phase(v, 0.5, 0.05, 10)),
    ("apply_decay", "gamma_c", lambda v: apply_decay(vacuum(3), v, 1.0)),
    ("jc_kick", "g_tau", lambda v: jc_kick(vacuum(3), HALF, KickParams(v))),
    ("lossless_sequence", "g_tau", lambda v: lossless_sequence([HALF] * 3, KickParams(v))),
    ("bunched_mean_n", "theta", lambda v: bunched_mean_n(3, v, 0.0, K)),
    ("coherent", "alpha", lambda v: coherent(v, 10)),
    ("coherent_amplitudes", "alpha", lambda v: coherent_amplitudes(v, 5)),
    ("fidelity_to_coherent", "alpha", lambda v: fidelity_to_coherent(vacuum(5), v)),
    ("mean_n_noncollective", "p", lambda v: mean_n_noncollective(v, 0.5)),
    ("n_eff", "n_c", lambda v: n_eff("poisson", v)),
]
CASES += [
    ("RunConfig", name, lambda v, name=name: RunConfig(**{**RUN, name: v}))
    for name in ("g", "gamma_c", "tau", "theta", "phi", "transit_dephase", "n_c", "linewidth",
                 "n_max", "t_end", "seed", "n_trajectories")
]
CASES += [
    ("RunConfig", name, lambda v, name=name: RunConfig(**{**RUN, "n_c": None, name: v}))
    for name in ("r", "n_mean")
]
CASES += [
    ("TrajectoryConfig", name, lambda v, name=name: TrajectoryConfig(**{**TRAJ, name: v}))
    for name in ("r", "gamma_c", "g", "tau", "theta", "linewidth", "transit_dephase", "n_max",
                 "t_end", "n_trajectories")
]


@pytest.fixture
def no_solver(monkeypatch):
    """Fail the test if a factorization, an integration or a balance scan starts."""

    def reached(*_args, **_kw):
        raise AssertionError("a non-finite input reached the solver")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", reached)
    monkeypatch.setattr(steady, "_dop853", reached)
    monkeypatch.setattr(steady, "_balance_angle", reached)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "entry, name, call", CASES, ids=[f"{entry}-{name}" for entry, name, _ in CASES]
)
def test_non_finite_input_is_refused_by_name(no_solver, entry, name, call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must be finite, got ")


def test_apply_decay_takes_an_infinite_interval():
    s = apply_decay(coherent(1.0, 30), 1.0, math.inf)
    assert s.q[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert abs(s.q).sum() == pytest.approx(1.0, abs=1e-12)
    # no loss at all for as long as one likes
    s = vacuum(3)
    assert apply_decay(s, 0.0, math.inf) is s
    with pytest.raises(ValueError, match="^dt must be finite"):
        apply_decay(s, 1.0, math.nan)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: KickParams(-1.0), "g_tau must be non-negative, got -1.0"),
     (lambda: MasterParams(0.0, K, HALF, 5), "n_c must be positive, got 0.0"),
     (lambda: MasterParams(1.0, K, HALF, 5, n_lo=5), "n_lo must lie in [0, 4], got 5"),
     (lambda: vacuum(0), "n_max must be at least 1, got 0"),
     (lambda: AtomState(1.5, 0.0), "rho_ee must lie in [0, 1], got 1.5"),
     (lambda: steady_state_auto(-5.0, HALF, K), "n_c must be non-negative, got -5.0"),
     # refused, not replaced by the smallest cutoff searched, for either kind of atom
     (lambda: steady_state_auto(0.01, HALF, KickParams(0.1), n_max=-5),
      "n_max must be at least 1, got -5"),
     (lambda: steady_state_auto(0.01, AtomState(0.5, 0.0), K, n_max=-2),
      "n_max must be at least 1, got -2"),
     (lambda: suggest_n_max(-5.0, HALF, 0.05), "n_c must be non-negative, got -5.0"),
     # refused before the log of a negative ratio warns (every warning fails the suite)
     (lambda: pn_random_phase(-1.0, 0.5, 0.05, 10), "n_c must be non-negative, got -1.0"),
     (lambda: coherent_amplitudes(0.5, -1), "n_max must be non-negative, got -1"),
     # an ensemble's standard error needs two trajectories, as RunConfig asks
     (lambda: TrajectoryConfig(**TRAJ, n_trajectories=1),
      "n_trajectories must be at least 2, got 1")],
)
def test_out_of_range_message_names_the_parameter_and_the_range(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# the counts CASES lacks
COUNTS = [
    ("vacuum", "n_max", vacuum),
    ("coherent_amplitudes", "n_max", lambda v: coherent_amplitudes(0.5, v)),
    ("pn_random_phase", "n_max", lambda v: pn_random_phase(1.0, 0.5, 0.05, v)),
    ("MasterParams", "n_max", lambda v: MasterParams(1.0, K, HALF, v)),
    ("MasterParams", "n_lo", lambda v: MasterParams(1.0, K, HALF, 5, n_lo=v)),
    ("EnsembleSpec", "n_atoms", lambda v: EnsembleSpec(v, 1.0, 0.0)),
    ("ensemble_rate", "n_atoms", lambda v: ensemble_rate(v, HALF)),
    ("pump_response", "points", lambda v: pump_response(RunConfig(**RUN), points=v)),
    ("atom_scaling", "points", lambda v: atom_scaling(RunConfig(**RUN), points=v)),
    ("lossless_emission", "atoms", lambda v: lossless_emission(RunConfig(**RUN), atoms=v)),
]
_IS_COUNT = {("steady_state_auto", "n_max"), ("RunConfig", "n_max"), ("RunConfig", "seed"),
             ("RunConfig", "n_trajectories"), ("TrajectoryConfig", "n_max"),
             ("TrajectoryConfig", "n_trajectories")} | {(e, n) for e, n, _ in COUNTS}
# where None leaves the input unset
_MAY_BE_NONE = {("steady_state_auto", "n_max"), ("RunConfig", "n_max"), ("RunConfig", "t_end"),
                ("RunConfig", "r"), ("RunConfig", "n_mean"), ("RunConfig", "n_c")}
KINDS = [
    (entry, name, call, value)
    for entry, name, call in CASES + COUNTS
    for value in ([] if (entry, name) in _MAY_BE_NONE else [None]) + ["1", True]
    + ([2.5] if (entry, name) in _IS_COUNT else [])
]


@pytest.mark.parametrize(
    "entry, name, call, value", KINDS,
    ids=[f"{entry}-{name}-{value!r}" for entry, name, _, value in KINDS],
)
def test_wrongly_typed_input_is_refused_by_name(no_solver, entry, name, call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(f"{name!r} must be ")


def _passes_nan(test: ast.expr, negated: bool = False) -> list[ast.Compare]:
    """The ordering comparisons in an if-test that a NaN operand makes false while it raises."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _passes_nan(test.operand, not negated)
    if isinstance(test, ast.BoolOp):
        return [c for value in test.values for c in _passes_nan(value, negated)]
    if isinstance(test, ast.Call):  # np.any(x <= 0.0)
        return [c for arg in test.args for c in _passes_nan(arg, negated)]
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    if isinstance(test, ast.Compare) and not negated:
        return [test] if any(isinstance(op, ordering) for op in test.ops) else []
    return []


def test_every_check_states_what_it_accepts():
    # `if x < lo: raise` lets NaN through; `if not x >= lo: raise` refuses it
    found = []
    for module in (analytic, atom, cli, dicke, errors, experiments, hilbert, interaction,
                   steady, trajectory):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
                found += [f"{module.__name__}:{node.lineno}: {ast.unparse(c)}"
                          for c in _passes_nan(node.test)]
    assert not found
