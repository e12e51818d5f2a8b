"""The four benchmark workloads, their oracles and the traced layer boundaries.

Each workload runs in passes. One pass is a fixed piece of work built from
the seed; the child process repeats passes for the run's length and times
each one. Oracles run after each pass, outside the timed section, and once
more at the end of the run for checks that need the whole run's samples.
README.md says why each workload is here and which metric it should move.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import io
import json
import math
import os
import time
import traceback

import numpy as np
import scipy.integrate
import scipy.optimize
import scipy.sparse.linalg

import cavsr.cli
import cavsr.experiments
import cavsr.steady
import cavsr.trajectory
from cavsr.analytic import pn_random_phase
from cavsr.atom import AtomState, prepare
from cavsr.hilbert import mean_photon
from cavsr.interaction import KickParams
from cavsr.steady import MasterParams
from cavsr.trajectory import TrajectoryConfig

from spans import Tracer, patch, self_times

HALF = 0.5 * math.pi


class Checks:
    """Counts operations and oracle checks; every miss is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(what)

    def oracle(self, name: str, ok: bool, detail: str) -> None:
        self.op(ok, f"oracle {name}: {detail}")


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cavsr.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _error(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def mark() -> tuple[float, float]:
    """Wall and CPU clock readings, in seconds."""
    return time.perf_counter(), time.process_time()


class Workload:
    """One pass is fixed work, the same in every pass; items count toward throughput.

    marks holds the clock readings of the current pass: its start, the start
    and end of each timed function, and its end. The segments between them
    are the same from pass to pass, so each can be timed at its fastest
    repeat. calls holds the first and last mark of each call whose latency
    is reported; a call may span several segments.
    """

    item_unit = ""
    call_unit = ""

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.items = 0
        self.marks: list[tuple[float, float]] = []
        self.calls: list[tuple[int, int]] = []

    def timed(self, fn, *args, **kwargs):
        """fn(*args, **kwargs) with a mark at its start and its end."""
        self.marks.append(mark())
        try:
            return fn(*args, **kwargs)
        finally:
            self.marks.append(mark())

    def timed_call(self, fn, *args, **kwargs):
        """timed(fn, ...), recorded as one call."""
        start = len(self.marks)
        try:
            return self.timed(fn, *args, **kwargs)
        finally:
            self.calls.append((start, len(self.marks) - 1))

    def probes(self, stack: contextlib.ExitStack) -> None:
        """Probes installed in every pass, around the calls run_pass does not make itself."""

    def run_pass(self) -> None:
        raise NotImplementedError

    def check_pass(self, checks: Checks) -> None:
        raise NotImplementedError

    def check_run(self, checks: Checks) -> None:
        """Oracles over the whole run's samples."""


class SteadyLarge(Workload):
    item_unit = "steady_state_auto calls"
    call_unit = "steady_state_auto call"

    # theta = pi/2 at n_c = 1000 solves once at 420 levels; the random-phase
    # point at n_c = 1500 rejects 81 and 161 levels before 321 passes
    COHERENT_MEAN_N = 249.891350914484

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        k = KickParams(0.05)
        self.points = [
            ("coherent", 1000.0, prepare(HALF), k),
            ("random-phase", 1500.0, AtomState(0.75, 0.0), k),
        ]
        self.outputs: list = []

    def run_pass(self) -> None:
        for label, n_c, a, k in self.points:
            try:
                q = self.timed_call(cavsr.steady.steady_state_auto, n_c, a, k)
            except Exception as exc:  # counted as a failed operation
                q = exc
            self.items += 1
            self.outputs.append((label, n_c, a, k, q))

    def check_pass(self, checks: Checks) -> None:
        for label, n_c, a, k, q in self.outputs:
            if isinstance(q, Exception):
                checks.op(False, f"{label}: {_error(q)}")
                continue
            checks.op(True)
            if label == "coherent":
                gen = cavsr.steady.build_generator(MasterParams(n_c, k, a, q.n_max))
                resid = float(np.abs(gen @ q.q.ravel()).max())
                checks.oracle("coherent residual", resid <= 1e-9, f"{resid:.3e} > 1e-9")
                mean = mean_photon(q)
                checks.oracle("coherent mean_n", _rel(mean, self.COHERENT_MEAN_N) <= 1e-8,
                              f"{mean!r} vs {self.COHERENT_MEAN_N!r}")
            else:
                ref = pn_random_phase(n_c, a.rho_ee, k.g_tau, q.n_max)
                dev = float(np.abs(np.real(np.diag(q.q)) - ref).max())
                checks.oracle("random-phase p_n", dev <= 1e-8, f"{dev:.3e} > 1e-8")
        self.outputs.clear()


class SweepSmall(Workload):
    item_unit = "sweep points"
    call_unit = "steady_state_auto call"

    # (preset, points, summary key, value at the seed commit, relative tolerance);
    # fig3 alone keeps a pass near half a second, so each call repeats often
    # enough within a run for its fastest repeat to be steady
    PRESETS = [
        ("fig3", 25, "collective_slope", 1.7946121688624455, 1e-9),
    ]

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.outputs: list = []

    def probes(self, stack: contextlib.ExitStack) -> None:
        inner = cavsr.experiments.steady_state_auto
        patch(stack, cavsr.experiments, "steady_state_auto",
              lambda *args, **kwargs: self.timed_call(inner, *args, **kwargs))

    def run_pass(self) -> None:
        for name, *_ in self.PRESETS:
            self.outputs.append(_run_cli(["preset", name, "-o", self.scratch]))

    def check_pass(self, checks: Checks) -> None:
        for (name, points, key, ref, tol), (rc, out, err) in zip(self.PRESETS, self.outputs):
            csv = os.path.join(self.scratch, f"{name}.csv")
            if rc != 0 or not os.path.exists(csv):
                for _ in range(points):
                    checks.op(False, f"{name}: exit {rc}: {err.strip()}")
                continue
            data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
            with open(os.path.join(self.scratch, f"{name}.meta.json"), encoding="utf-8") as fh:
                meta = json.load(fh)
            os.remove(csv)
            finite = np.all(np.isfinite(data), axis=1)
            for ok in finite:
                checks.op(bool(ok), f"{name}: non-finite sweep point")
            self.items += int(np.count_nonzero(finite))
            checks.oracle(f"{name} point count", data.shape[0] == points,
                          f"{data.shape[0]} rows, expected {points}")
            value = float(json.loads(out)[key])
            checks.oracle(f"{name} {key}", _rel(value, ref) <= tol, f"{value!r} vs {ref!r}")
            # the solver's basis ends where the tail drops under 1e-8, the closed
            # form runs to 100 levels: measured gaps are about 1e-8
            dev = self._baseline_deviation(data, meta)
            checks.oracle(f"{name} random-phase baseline", dev <= 1e-6, f"{dev:.3e} > 1e-6")
        self.outputs.clear()

    @staticmethod
    def _baseline_deviation(data: np.ndarray, meta: dict) -> float:
        """Largest gap between the baseline column and the closed-form random-phase mean."""
        cfg, g_tau = meta["config"], meta["derived"]["g_tau"]
        axis = data[:, 0]
        # fig3's axis: excited-state atom number n_mean * rho_ee
        rho_ee = np.full(axis.shape, math.sin(0.5 * cfg["theta"]) ** 2)
        n_c = axis / rho_ee / (cfg["gamma_c"] * cfg["tau"])
        levels = np.arange(101)
        ref = np.array([levels @ pn_random_phase(nc, r, g_tau, 100) for nc, r in zip(n_c, rho_ee)])
        return float(np.max(np.abs(data[:, 3] - ref)))


class Trajectory(Workload):
    item_unit = "atom transits"
    # latency per ensemble, the call a user waits for: one trajectory's time
    # depends on its seed's draws, a handful of them ranked would not repeat
    call_unit = "run_ensemble call"

    ORACLE_TRAJECTORIES = 60  # per point, the timed ones among them

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        tau = 101e-9
        gamma_c = 2.0 * math.pi * 75e3
        # kick-heavy: the n_c = 20 point of the trajectory/master agreement test
        kicks = TrajectoryConfig(
            r=20.0, gamma_c=1.0, g=0.02 / 1e-6, tau=1e-6, theta=HALF,
            injection="poisson", n_max=14, t_end=10.0, n_trajectories=8,
        )
        # jump-heavy: apparatus scale with a 200 kHz pump linewidth
        jumps = TrajectoryConfig(
            r=0.57 / tau, gamma_c=gamma_c, g=2.0 * math.pi * 290e3, tau=tau, theta=HALF,
            injection="poisson", linewidth=200e3, n_max=20, t_end=8.0 / gamma_c,
            n_trajectories=16,
        )
        # every pass runs the same few trajectories, so each repeats often
        # within a run and can be timed at its fastest repeat; every repeat
        # must reproduce the first bit for bit
        bases = np.random.SeedSequence(seed).generate_state(2)
        self.points = [
            ("kicks", dataclasses.replace(kicks, seed=int(bases[0]))),
            ("jumps", dataclasses.replace(jumps, seed=int(bases[1]))),
        ]
        self.steadies: dict[str, np.ndarray] = {}
        self.outputs: list = []

    def probes(self, stack: contextlib.ExitStack) -> None:
        inner = cavsr.trajectory.run_trajectory

        def probe(*args, **kwargs):
            # each trajectory is a segment of its own
            res = self.timed(inner, *args, **kwargs)
            self.items += res.n_atoms
            return res

        patch(stack, cavsr.trajectory, "run_trajectory", probe)

    def run_pass(self) -> None:
        for label, cfg in self.points:
            try:
                ens = self.timed_call(cavsr.trajectory.run_ensemble, cfg)
            except Exception as exc:  # counted as failed operations
                ens = exc
            self.outputs.append((label, cfg.n_trajectories, ens))

    def check_pass(self, checks: Checks) -> None:
        for label, n, ens in self.outputs:
            if isinstance(ens, Exception):
                for _ in range(n):
                    checks.op(False, f"{label}: {_error(ens)}")
                continue
            first = self.steadies.setdefault(label, ens.per_traj_steady)
            for v, v0 in zip(ens.per_traj_steady, first):
                checks.op(bool(np.isfinite(v)) and v == v0,
                          f"{label}: trajectory mean {v!r}, first pass {v0!r}")
        self.outputs.clear()

    def check_run(self, checks: Checks) -> None:
        stats = {}
        for label, cfg in self.points:
            if label not in self.steadies:
                checks.oracle(f"{label} ensemble", False, "no trajectories completed")
                return
            # the timed trajectories plus the next seeds, untimed, for the statistics
            try:
                more = cavsr.trajectory.run_ensemble(dataclasses.replace(
                    cfg, seed=cfg.seed + cfg.n_trajectories,
                    n_trajectories=self.ORACLE_TRAJECTORIES - cfg.n_trajectories))
            except Exception as exc:  # counted as a failed operation
                checks.oracle(f"{label} ensemble", False, _error(exc))
                return
            v = np.concatenate([self.steadies[label], more.per_traj_steady])
            stats[label] = (float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(v.size)), v.size)
        cfg = self.points[0][1]
        ref = mean_photon(cavsr.steady.steady_state_auto(
            cfg.r / cfg.gamma_c, prepare(HALF), KickParams(cfg.g_tau)))
        mean, err, n = stats["kicks"]
        checks.oracle("kicks vs master equation", abs(mean - ref) <= 4.0 * err,
                      f"{mean:.5f} +- {err:.5f} ({n} trajectories) vs {ref:.5f}")
        cfg = self.points[1][1]
        a = prepare(HALF)
        k = KickParams(cfg.g_tau)
        floor = mean_photon(cavsr.steady.steady_state_auto(cfg.n_c, AtomState(a.rho_ee, 0.0), k))
        coherent = mean_photon(cavsr.steady.steady_state_auto(cfg.n_c, a, k))
        mean, err, n = stats["jumps"]
        checks.oracle("jumps between floor and coherent pump", floor < mean < coherent,
                      f"{mean:.4f} ({n} trajectories) outside ({floor:.4f}, {coherent:.4f})")


class Transient(Workload):
    item_unit = "cavity decay times simulated"
    call_unit = "transient command"

    T_END = 8.0
    STEADY_MEAN_N = 47.88800580412664  # printed by the seed commit

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.config = os.path.join(scratch, "transient.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"g": 0.05 / 1e-6, "gamma_c": 1.0, "tau": 1e-6, "theta": HALF,
                       "n_c": 300.0}, fh)
        self.outputs: list = []

    def run_pass(self) -> None:
        self.outputs.append(self.timed_call(_run_cli, [
            "transient", "-c", self.config, "-o", self.scratch,
            "--t-end", repr(self.T_END), "--mode", "coarse-ode",
        ]))

    def check_pass(self, checks: Checks) -> None:
        for rc, out, err in self.outputs:
            checks.op(rc == 0, f"transient: exit {rc}: {err.strip()}")
            if rc != 0:
                continue
            self.items += self.T_END
            res = json.loads(out)
            final, steady = res["final_mean_n"], res["steady_mean_n"]
            checks.oracle("final vs steady mean_n", _rel(final, steady) <= 1e-3,
                          f"{final!r} vs {steady!r}")
            checks.oracle("steady mean_n", _rel(steady, self.STEADY_MEAN_N) <= 1e-8,
                          f"{steady!r} vs {self.STEADY_MEAN_N!r}")
        self.outputs.clear()


WORKLOADS = {
    "steady-large": SteadyLarge,
    "sweep-small": SweepSmall,
    "trajectory": Trajectory,
    "transient": Transient,
}


# ---------------------------------------------------------------------------
# traced run: spans at the name each caller looks up


class _LUProxy:
    """splu result whose solve calls are spans; fill read from SuperLU.nnz."""

    def __init__(self, lu, tracer: Tracer) -> None:
        self._lu = lu
        self.solve = tracer.wrap(lu.solve, "scipy.splu.solve")
        tracer.counts["lu_fill_nnz"] += lu.nnz

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install_tracing(tracer: Tracer, stack: contextlib.ExitStack) -> None:
    steady, traj, exp, cli = cavsr.steady, cavsr.trajectory, cavsr.experiments, cavsr.cli
    counts = tracer.counts

    def count_nnz(gen):
        counts["generator_nnz"] += gen.nnz
        return gen

    def count_nfev(sol):
        counts["rhs_evals"] += sol.nfev
        return sol

    def count_transit(res):
        counts["atoms"] += res.n_atoms
        counts["jumps"] += len(res.jump_times)
        return res

    wraps = [
        (steady, "steady_state", "steady.steady_state", None),
        (steady, "build_generator", "steady.build_generator", count_nnz),
        (steady, "suggest_n_max", "steady.suggest_n_max", None),
        (steady, "steady_state_auto", "steady.steady_state_auto", None),
        (exp, "steady_state_auto", "steady.steady_state_auto", None),
        (cli, "steady_state_auto", "steady.steady_state_auto", None),
        (cli, "evolve", "steady.evolve", None),
        (scipy.sparse.linalg, "splu", "scipy.splu", lambda lu: _LUProxy(lu, tracer)),
        (scipy.integrate, "solve_ivp", "scipy.solve_ivp", count_nfev),
        (scipy.optimize, "brentq", "scipy.brentq", None),
        (traj, "run_ensemble", "trajectory.run_ensemble", None),
        (traj, "run_trajectory", "trajectory.run_trajectory", count_transit),
        (traj, "jc_kick_pure", "interaction.jc_kick_pure", None),
        (traj, "measure_atom", "interaction.measure_atom", None),
        (exp, "sweep_atoms", "experiments.sweep_atoms", None),
        (exp, "sweep_pump", "experiments.sweep_pump", None),
        (exp, "write_sweep", "experiments.write_sweep", None),
        (cli, "write_sweep", "experiments.write_sweep", None),
        (cli, "preset", "experiments.preset", None),
        (cli, "main", "cli.main", None),
    ]
    for owner, attr, name, on_result in wraps:
        tracer.install(stack, owner, attr, name, on_result)


# every per-layer metric with its unit, in the order BENCHMARK.json lists them;
# counts and times are per pass
LAYER_UNITS = {
    "steady.splu_s": "s", "steady.lu_solve_s": "s", "steady.lu_fill_nnz": "count",
    "steady.lu_solves": "count", "steady.cutoffs_tried": "count",
    "steady.truncation_rejects": "count", "steady.solve_yield": "ratio",
    "steady.suggest_n_max_s": "s", "steady.build_generator_s": "s",
    "steady.generator_nnz": "count", "steady.steady_state_self_s": "s", "steady.evolve_s": "s",
    "steady.rhs_evals": "count", "interaction.jc_kick_pure_s": "s",
    "interaction.jc_kick_pure_calls": "count", "interaction.measure_atom_s": "s",
    "trajectory.brentq_calls": "count", "trajectory.brentq_s": "s", "trajectory.jumps": "count",
    "trajectory.atoms": "count", "trajectory.run_trajectory_self_s": "s",
    "trajectory.run_ensemble_self_s": "s", "experiments.sweep_self_s": "s",
    "experiments.preset_self_s": "s", "experiments.write_sweep_s": "s", "cli.main_self_s": "s",
    "setup.import_s": "s", "trace.spans": "count", "trace.span_coverage": "ratio",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float, import_s: float) -> dict:
    """Per-layer metrics from the spans; trace.overhead_s is left to the caller."""
    spans = tracer.spans
    own = self_times(spans)
    # inclusive time, self time and call count by span name; 0 when never called
    total: collections.Counter = collections.Counter()
    self_s: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    brentq_calls = 0
    brentq_s = 0.0
    root_s = 0.0
    for (name, start, end, parent), s in zip(spans, own):
        total[name] += end - start
        self_s[name] += s
        calls[name] += 1
        if parent < 0:
            root_s += end - start
        elif name == "scipy.brentq" and spans[parent][0] == "trajectory.run_trajectory":
            brentq_calls += 1
            brentq_s += end - start
    rejects = sum(1 for i, kind in tracer.errors
                  if kind == "TruncationError" and spans[i][0] == "steady.steady_state")
    tried = calls["steady.steady_state"]
    c = tracer.counts
    per_pass = {
        "steady.splu_s": total["scipy.splu"],
        "steady.lu_solve_s": total["scipy.splu.solve"],
        "steady.lu_fill_nnz": c["lu_fill_nnz"],
        "steady.lu_solves": calls["scipy.splu.solve"],
        "steady.cutoffs_tried": tried,
        "steady.truncation_rejects": rejects,
        "steady.suggest_n_max_s": total["steady.suggest_n_max"],
        "steady.build_generator_s": total["steady.build_generator"],
        "steady.generator_nnz": c["generator_nnz"],
        "steady.steady_state_self_s": self_s["steady.steady_state"],
        "steady.evolve_s": total["steady.evolve"],
        "steady.rhs_evals": c["rhs_evals"],
        "interaction.jc_kick_pure_s": total["interaction.jc_kick_pure"],
        "interaction.jc_kick_pure_calls": calls["interaction.jc_kick_pure"],
        "interaction.measure_atom_s": total["interaction.measure_atom"],
        "trajectory.brentq_calls": brentq_calls,
        "trajectory.brentq_s": brentq_s,
        "trajectory.jumps": c["jumps"],
        "trajectory.atoms": c["atoms"],
        "trajectory.run_trajectory_self_s": self_s["trajectory.run_trajectory"],
        "trajectory.run_ensemble_self_s": self_s["trajectory.run_ensemble"],
        "experiments.sweep_self_s": self_s["experiments.sweep_atoms"]
        + self_s["experiments.sweep_pump"],
        "experiments.preset_self_s": self_s["experiments.preset"],
        "experiments.write_sweep_s": total["experiments.write_sweep"],
        "cli.main_self_s": self_s["cli.main"],
        "trace.spans": len(spans),
    }
    out = {name: value / passes for name, value in per_pass.items()}
    # accepted over attempted steady_state solves; 0 where the workload makes none
    out["steady.solve_yield"] = (tried - rejects) / tried if tried else 0.0
    out["trace.span_coverage"] = root_s / traced_wall_s
    out["setup.import_s"] = import_s
    return {name: {"value": out[name], "unit": unit}
            for name, unit in LAYER_UNITS.items() if name in out}
