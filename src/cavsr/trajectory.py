"""Stochastic pure-state unraveling of the pumped lossy cavity.

Physical units here (seconds, rad/s): atoms arrive at rate r, either with
exponential gaps (poisson) or a fixed spacing 1/r (regular). The field is a
plain array of Fock amplitudes. Each arrival kicks it via the exact
single-transit map (interaction.jc_kick_pure), after which the atom is
measured in the energy basis (interaction.measure_atom). Between arrivals
the field undergoes photon-loss quantum jumps, sampled from the exact
no-jump survival law

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
from collections.abc import Iterator

import numpy as np
import scipy.optimize

from .errors import ConvergenceError, TruncationError
from .interaction import KickParams, jc_kick_pure, measure_atom

__all__ = [
    "TrajectoryConfig",
    "TrajectoryResult",
    "EnsembleResult",
    "run_trajectory",
    "run_ensemble",
]

INJECTIONS = ("poisson", "regular")

N_SAMPLES = 201  # evenly spaced <n> samples over [0, t_end], both ends included


@dataclasses.dataclass(frozen=True)
class TrajectoryConfig:
    r: float                    # atom injection rate, 1/s
    gamma_c: float              # field decay rate, rad/s
    g: float                    # coupling, rad/s
    tau: float                  # transit time, s
    theta: float                # pump pulse area, rad
    injection: str = "poisson"
    linewidth: float = 0.0      # pump FWHM linewidth, Hz; 0 = coherent pump
    transit_dephase: float = 1.0
    n_max: int = 30
    t_end: float = 0.0          # s
    seed: int = 0
    n_trajectories: int = 1

    def __post_init__(self) -> None:
        for name in ("r", "gamma_c", "g", "tau", "linewidth", "theta", "t_end"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.injection not in INJECTIONS:
            raise ValueError(f"injection must be one of {INJECTIONS}, got {self.injection!r}")
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
    final: np.ndarray       # Fock amplitudes at t_end, unit norm


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


def _survival_minus_u(s: float, w: np.ndarray, neg_gn: np.ndarray, u: float) -> float:
    """No-jump probability after time s, less the uniform draw u."""
    f = np.exp(neg_gn * s)
    return float(w @ (f * f)) - u


def _photon_losses(
    amp: np.ndarray,
    t: float,
    t1: float,
    neg_gn: np.ndarray,
    sqrt_n: np.ndarray,
    rng: np.random.Generator,
) -> Iterator[float]:
    """Evolve the unit-norm amp in place from t to t1 by no-jump decay and jumps.

    Yields each jump's time, with amp then holding the normalized post-jump state.
    """
    while t1 - t > 0.0:
        w = np.abs(amp) ** 2
        u = rng.random()
        span = t1 - t
        # the arithmetic of _survival_minus_u, so brentq below sees the same sign
        f = np.exp(neg_gn * span)
        survival = float(w @ (f * f))
        if survival > u:
            # no jump before t1; the survival is the squared norm left
            amp *= f
            amp /= math.sqrt(survival)
            return
        s_jump = float(scipy.optimize.brentq(_survival_minus_u, 0.0, span, args=(w, neg_gn, u)))
        amp *= np.exp(neg_gn * s_jump)
        amp[:-1] = sqrt_n[1:] * amp[1:]
        amp[-1] = 0.0
        norm2 = np.vdot(amp, amp).real
        if norm2 == 0.0:
            raise ConvergenceError("field amplitudes underflowed during decay")
        amp /= math.sqrt(norm2)
        t += s_jump
        yield t


def run_trajectory(cfg: TrajectoryConfig, seed: int) -> TrajectoryResult:
    """One pure-state trajectory, deterministic in (cfg, seed).

    The loop records the populations after every event (the start, each
    kick's measurement, each jump); <n> on the N_SAMPLES-point grid then
    follows from the last event before each sample by no-jump decay.
    """
    rng = np.random.default_rng(seed)
    n = np.arange(cfg.n_max + 1, dtype=float)
    neg_gn = -cfg.gamma_c * n
    sqrt_n = np.sqrt(n)
    amp = np.zeros(n.size, dtype=complex)
    amp[0] = 1.0
    kick = KickParams(cfg.g_tau)
    c_e = math.sin(0.5 * cfg.theta)
    c_g = math.cos(0.5 * cfg.theta)
    p_scramble = 1.0 - cfg.transit_dephase

    event_t = [0.0]
    event_pops = [np.abs(amp) ** 2]
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
        for t_jump in _photon_losses(amp, t, target, neg_gn, sqrt_n, rng):
            jumps.append(t_jump)
            event_t.append(t_jump)
            event_pops.append(np.abs(amp) ** 2)
        t = target
        if t_arrival > cfg.t_end:
            break
        if cfg.linewidth > 0.0:
            gap = t_arrival - t_prev_arrival
            phase += rng.normal() * math.sqrt(2.0 * math.pi * cfg.linewidth * gap)
        phi_k = phase
        if p_scramble > 0.0 and rng.random() < p_scramble:
            phi_k = rng.uniform(0.0, 2.0 * math.pi)
        # both looked up here as module globals: the benchmark's traced run wraps them there
        e, g = jc_kick_pure(amp, (c_e, c_g, phi_k), kick)
        _outcome, amp, _prob = measure_atom(e, g, rng.random())
        pops = np.abs(amp) ** 2
        top = float(pops[-1])
        if top > 1e-6:
            raise TruncationError(
                f"trajectory reached the cutoff n_max={cfg.n_max} "
                f"(top amplitude {top:.2e}); enlarge the basis"
            )
        max_top = max(max_top, top)
        n_atoms += 1
        event_t.append(t)
        event_pops.append(pops)
        t_prev_arrival = t_arrival
        t_arrival = t_arrival + next_gap()

    times = np.linspace(0.0, cfg.t_end, N_SAMPLES)
    t_ev = np.array(event_t)
    # a sample within roundoff of an event reads the state before it
    idx = np.searchsorted(t_ev[1:] + 1e-12 * np.maximum(1.0, t_ev[1:]), times)
    decayed = np.array(event_pops)[idx] * np.exp(np.outer(times - t_ev[idx], 2.0 * neg_gn))
    return TrajectoryResult(
        times=times,
        mean_n=decayed @ n / decayed.sum(axis=1),
        jump_times=np.array(jumps),
        n_atoms=n_atoms,
        max_top_population=max_top,
        final=amp,
    )


def run_ensemble(cfg: TrajectoryConfig) -> EnsembleResult:
    """Average run_trajectory over seeds cfg.seed .. cfg.seed + n_trajectories - 1.

    The steady-state estimate time-averages each trajectory over the final
    quarter of the window and quotes the trajectory-to-trajectory standard
    error, which is the honest error bar when samples along one trajectory
    are correlated.
    """
    if cfg.n_trajectories < 2:
        raise ValueError("ensemble statistics need at least 2 trajectories")
    acc = np.zeros(N_SAMPLES)
    steadies = np.empty(cfg.n_trajectories)
    rates = np.empty(cfg.n_trajectories)
    t_window = 0.75 * cfg.t_end
    times = None
    atoms = jumps = 0
    max_top = 0.0
    for i in range(cfg.n_trajectories):
        res = run_trajectory(cfg, cfg.seed + i)
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
