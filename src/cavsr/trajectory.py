"""Stochastic pure-state unraveling of the pumped lossy cavity.

Physical units here (seconds, rad/s): atoms arrive at rate r, either with
exponential gaps (poisson) or a fixed spacing 1/r (regular). Each arrival
kicks the field via the exact single-transit map, after which the atom is
measured in the energy basis. Between arrivals the field undergoes
photon-loss quantum jumps, sampled from the exact no-jump survival law

    S(s) = || exp(-gamma_c n_hat s) psi ||^2,

inverted for the jump time, so the waiting-time statistics carry no
time-step bias at all. Pump-laser phase noise enters as a Wiener walk of the
imprinted atomic phase with variance 2*pi*linewidth per second, and transit
dephasing as a per-atom chance of a fully scrambled phase.

Of the three stochastic ingredients (arrival gaps, jump times, measurement
outcomes), all draws come from one per-trajectory generator, so a (config,
seed) pair fixes the trajectory bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.optimize

from .errors import ConvergenceError, TruncationError
from .hilbert import PureFieldState
from .interaction import KickParams, jc_kick_pure, measure_atom

__all__ = [
    "TrajectoryConfig",
    "TrajectoryResult",
    "EnsembleResult",
    "run_trajectory",
    "run_ensemble",
]

_INJECTIONS = ("poisson", "regular")


@dataclasses.dataclass(frozen=True)
class TrajectoryConfig:
    r: float                    # atom injection rate, 1/s
    gamma_c: float              # field decay rate, rad/s
    g: float                    # coupling, rad/s
    tau: float                  # transit time, s
    theta: float                # pump pulse area, rad
    injection: str = "poisson"
    linewidth: float = 0.0      # pump RMS linewidth, Hz; 0 = coherent pump
    transit_dephase: float = 1.0
    n_max: int = 30
    t_end: float = 0.0          # s
    seed: int = 0
    n_trajectories: int = 1

    def __post_init__(self) -> None:
        for name in ("r", "gamma_c", "g", "tau", "linewidth", "theta", "t_end"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.injection not in _INJECTIONS:
            raise ValueError(f"injection must be one of {_INJECTIONS}, got {self.injection!r}")
        if not 0.0 <= self.transit_dephase <= 1.0:
            raise ValueError(f"transit_dephase must lie in [0, 1], got {self.transit_dephase}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        if self.n_trajectories < 1:
            raise ValueError(f"n_trajectories must be at least 1, got {self.n_trajectories}")

    @property
    def g_tau(self) -> float:
        return self.g * self.tau

    @property
    def n_c(self) -> float | None:
        """Atoms per cavity decay time; None for a lossless cavity."""
        return self.r / self.gamma_c if self.gamma_c > 0.0 else None

    def metadata(self) -> dict:
        n_in_cavity = self.r * self.tau
        notes = []
        if n_in_cavity > 1.0:
            notes.append(
                "mean intracavity atom number exceeds 1; transits overlap and the "
                "one-at-a-time interaction model is strained"
            )
        return {
            "n_c": self.n_c,
            "g_tau": self.g_tau,
            "n_in_cavity": n_in_cavity,
            "annotations": notes,
        }


@dataclasses.dataclass(frozen=True)
class TrajectoryResult:
    times: np.ndarray       # sample grid, s
    mean_n: np.ndarray
    jump_times: np.ndarray  # s
    n_atoms: int
    max_top_population: float  # largest |amp[n_max]|^2 after any kick: the truncation margin
    final: PureFieldState
    metadata: dict


@dataclasses.dataclass(frozen=True)
class EnsembleResult:
    times: np.ndarray
    mean_n: np.ndarray              # ensemble average per sample
    steady_mean_n: float            # time average over the final quarter, then over trajectories
    steady_stderr: float
    per_traj_steady: np.ndarray
    jump_rate: float                # observed jumps per second in the steady window
    jump_rate_stderr: float
    metadata: dict


@dataclasses.dataclass(frozen=True)
class _DecayRates:
    """Per-level rates of the photon-loss process, built once per trajectory."""

    n_vec: np.ndarray    # n
    neg_gn: np.ndarray   # -gamma_c n, amplitude decay
    neg_2gn: np.ndarray  # -2 gamma_c n, population decay
    sqrt_n: np.ndarray   # jump amplitudes of the annihilator

    @classmethod
    def build(cls, dim: int, gamma_c: float) -> _DecayRates:
        n_vec = np.arange(dim, dtype=float)
        return cls(n_vec, -gamma_c * n_vec, -2.0 * gamma_c * n_vec, np.sqrt(n_vec))


def _record_until(
    w: np.ndarray,
    rates: _DecayRates,
    t0: float,
    t_stop: float,
    grid: np.ndarray,
    series: np.ndarray,
    gi: int,
) -> int:
    """Fill sample points in (t0, t_stop] from the analytic no-jump decay."""
    slack = 1e-12 * max(1.0, abs(t_stop))
    while gi < grid.shape[0] and grid[gi] <= t_stop + slack:
        wd = w * np.exp(rates.neg_2gn * (grid[gi] - t0))
        series[gi] = float(rates.n_vec @ wd) / float(wd.sum())
        gi += 1
    return gi


def _survival_minus_u(s: float, w: np.ndarray, neg_gn: np.ndarray, u: float) -> float:
    """No-jump probability after time s, less the uniform draw u."""
    f = np.exp(neg_gn * s)
    return float(w @ (f * f)) - u


def _advance_decay(
    amp: np.ndarray,
    t0: float,
    t1: float,
    rates: _DecayRates,
    rng: np.random.Generator,
    grid: np.ndarray,
    series: np.ndarray,
    gi: int,
    jumps: list[float],
) -> int:
    """Evolve the unit-norm amp in place from t0 to t1 by no-jump decay and jumps.

    Records samples on the way and returns the next sample index.
    """
    t = t0
    while t1 - t > 0.0:
        w = np.abs(amp) ** 2
        u = rng.random()
        span = t1 - t
        # the arithmetic of _survival_minus_u, so brentq below sees the same sign
        f = np.exp(rates.neg_gn * span)
        survival = float(w @ (f * f))
        if survival > u:
            # no jump before t1; the survival is the squared norm left
            gi = _record_until(w, rates, t, t1, grid, series, gi)
            amp *= f
            norm2 = survival
            t = t1
        else:
            s_jump = float(
                scipy.optimize.brentq(_survival_minus_u, 0.0, span, args=(w, rates.neg_gn, u))
            )
            gi = _record_until(w, rates, t, t + s_jump, grid, series, gi)
            amp *= np.exp(rates.neg_gn * s_jump)
            amp[:-1] = rates.sqrt_n[1:] * amp[1:]
            amp[-1] = 0.0
            norm2 = np.vdot(amp, amp).real
            t += s_jump
            jumps.append(t)
        if norm2 == 0.0:
            raise ConvergenceError("field amplitudes underflowed during decay")
        amp /= math.sqrt(norm2)
    return gi


def run_trajectory(cfg: TrajectoryConfig, seed: int, n_samples: int = 201) -> TrajectoryResult:
    """One pure-state trajectory, deterministic in (cfg, seed)."""
    rng = np.random.default_rng(seed)
    dim = cfg.n_max + 1
    rates = _DecayRates.build(dim, cfg.gamma_c)
    amp = np.zeros(dim, dtype=complex)
    amp[0] = 1.0
    kick = KickParams(cfg.g_tau)
    c_e = math.sin(0.5 * cfg.theta)
    c_g = math.cos(0.5 * cfg.theta)
    p_scramble = 1.0 - cfg.transit_dephase

    grid = np.linspace(0.0, cfg.t_end, n_samples)
    series = np.empty(n_samples)
    series[0] = 0.0
    gi = 1
    jumps: list[float] = []
    phase = 0.0
    t = 0.0
    t_prev_arrival = 0.0
    n_atoms = 0
    max_top = 0.0

    def next_gap() -> float:
        if cfg.r == 0.0:
            return math.inf
        if cfg.injection == "regular":
            return 1.0 / cfg.r
        return float(rng.exponential(1.0 / cfg.r))

    t_arrival = next_gap()
    while True:
        target = min(t_arrival, cfg.t_end)
        gi = _advance_decay(amp, t, target, rates, rng, grid, series, gi, jumps)
        t = target
        if t_arrival > cfg.t_end:
            break
        if cfg.linewidth > 0.0:
            gap = t_arrival - t_prev_arrival
            phase += rng.normal() * math.sqrt(2.0 * math.pi * cfg.linewidth * gap)
        phi_k = phase
        if p_scramble > 0.0 and rng.random() < p_scramble:
            phi_k = rng.uniform(0.0, 2.0 * math.pi)
        joint = jc_kick_pure(PureFieldState(amp), (c_e, c_g, phi_k), kick)
        _outcome, collapsed, _prob = measure_atom(joint, rng.random())
        amp = collapsed.amp
        top = float(abs(amp[-1]) ** 2)
        if top > 1e-6:
            raise TruncationError(
                f"trajectory reached the cutoff n_max={cfg.n_max} "
                f"(top amplitude {top:.2e}); enlarge the basis"
            )
        max_top = max(max_top, top)
        n_atoms += 1
        t_prev_arrival = t_arrival
        t_arrival = t_arrival + next_gap()

    # defensive: a zero-length time window leaves nothing to fill
    while gi < n_samples:
        w = np.abs(amp) ** 2
        series[gi] = float(rates.n_vec @ w) / float(np.sum(w))
        gi += 1

    return TrajectoryResult(
        times=grid,
        mean_n=series,
        jump_times=np.array(jumps),
        n_atoms=n_atoms,
        max_top_population=max_top,
        final=PureFieldState(amp),
        metadata=cfg.metadata(),
    )


def run_ensemble(cfg: TrajectoryConfig, n_samples: int = 201) -> EnsembleResult:
    """Average run_trajectory over seeds cfg.seed .. cfg.seed + n_trajectories - 1.

    The steady-state estimate time-averages each trajectory over the final
    quarter of the window and quotes the trajectory-to-trajectory standard
    error, which is the honest error bar when samples along one trajectory
    are correlated.
    """
    if cfg.n_trajectories < 2:
        raise ValueError("ensemble statistics need at least 2 trajectories")
    acc = np.zeros(n_samples)
    steadies = np.empty(cfg.n_trajectories)
    rates = np.empty(cfg.n_trajectories)
    t_window = 0.75 * cfg.t_end
    times = None
    atoms = jumps = 0
    max_top = 0.0
    for i in range(cfg.n_trajectories):
        res = run_trajectory(cfg, cfg.seed + i, n_samples=n_samples)
        if times is None:
            times = res.times
        atoms += res.n_atoms
        jumps += res.jump_times.size
        max_top = max(max_top, res.max_top_population)
        acc += res.mean_n
        window = res.times >= t_window
        steadies[i] = float(np.mean(res.mean_n[window]))
        span = cfg.t_end - t_window
        rates[i] = np.count_nonzero(res.jump_times >= t_window) / span if span > 0 else 0.0
    n = cfg.n_trajectories
    return EnsembleResult(
        times=times,
        mean_n=acc / n,
        steady_mean_n=float(np.mean(steadies)),
        steady_stderr=float(np.std(steadies, ddof=1) / math.sqrt(n)),
        per_traj_steady=steadies,
        jump_rate=float(np.mean(rates)),
        jump_rate_stderr=float(np.std(rates, ddof=1) / math.sqrt(n)),
        metadata=cfg.metadata()
        | {
            "n_trajectories": n,
            "seed": cfg.seed,
            "atoms": atoms,
            "jumps": jumps,
            "max_top_population": max_top,
        },
    )
