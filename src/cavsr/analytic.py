"""Closed-form results for the pumped lossy cavity.

Everything here is dimensionless except where rates are explicitly requested.
The recurring pump strength is p = n_c * g_tau^2, with n_c the mean number of
atoms crossing per field decay time 1/gamma_c.
"""

from __future__ import annotations

import math

import numpy as np

from .atom import AtomState
from .errors import DivergenceError, TruncationError, check_range, check_tail

__all__ = [
    "pn_random_phase",
    "mean_n_noncollective",
    "coherent_alpha",
    "mean_n_total",
    "n_eff",
    "emission_rate_per_atom",
    "dominance_threshold",
    "saturation_nc",
    "beta_factors",
]


def pn_random_phase(n_c: float, rho_ee: float, g_tau: float, n_max: int) -> np.ndarray:
    """Steady-state photon distribution for phase-averaged (rho_eg = 0) pumping.

    Detailed balance between the gain of level n and its decay gives the
    exact recursion

        P_n / P_{n-1} = n_c rho_ee sin^2(sqrt(n) g_tau)
                        / (2 n + n_c (1 - rho_ee) sin^2(sqrt(n) g_tau))

    which is accumulated in the log domain and normalized. This derivation
    never touches the generator matrix, so it doubles as an independent
    oracle for the steady-state solver.
    """
    check_range("n_c", n_c, 0.0)
    check_range("rho_ee", rho_ee, 0.0, 1.0)
    check_range("g_tau", g_tau)
    check_range("n_max", n_max, 1, integer=True)

    def ratio(k: np.ndarray) -> np.ndarray:
        s2 = np.sin(np.sqrt(k) * g_tau) ** 2
        return n_c * rho_ee * s2 / (2.0 * k + n_c * (1.0 - rho_ee) * s2)

    r = ratio(np.arange(1.0, n_max + 1.0))
    with np.errstate(divide="ignore"):
        log_w = np.concatenate(([0.0], np.cumsum(np.log(r))))
    w = np.exp(log_w - np.max(log_w))
    p = w / np.sum(w)
    # estimate the mass the cutoff cannot hold: continue the recursion one step
    r_next = float(ratio(np.array([n_max + 1.0]))[0])
    if not r_next < 1.0:
        raise TruncationError(
            f"distribution still growing at n_max={n_max} (ratio {r_next:.3f})"
        )
    check_tail("random-phase recursion puts about", p[-1] * r_next / (1.0 - r_next), n_max)
    return p


def mean_n_noncollective(p: float, rho_ee: float) -> float:
    """Steady <n> from phase-averaged pumping alone, small-angle limit.

    Geometric-distribution result (p/2) rho_ee / (1 + (1 - 2 rho_ee) p/2).
    Above inversion rho_ee > 1/2 the denominator can reach zero: that is the
    lasing divergence of the linearized theory, reported as an error rather
    than a number.
    """
    check_range("p", p)
    check_range("rho_ee", rho_ee)
    den = 1.0 + 0.5 * (1.0 - 2.0 * rho_ee) * p
    if not den > 0.0:
        raise DivergenceError(
            f"no finite small-angle steady state at p={p}, rho_ee={rho_ee}"
        )
    return 0.5 * rho_ee * p / den


def coherent_alpha(n_c: float, rho_eg: complex, g_tau: float) -> complex:
    """Coherent amplitude -i n_c rho_eg g_tau built up by phased atoms."""
    return -1j * n_c * complex(rho_eg) * g_tau


def mean_n_total(n_c: float, a: AtomState, g_tau: float) -> float:
    """Noncollective part plus the collective |alpha|^2 contribution."""
    p = n_c * g_tau * g_tau
    base = mean_n_noncollective(p, a.rho_ee)
    return base + abs(coherent_alpha(n_c, a.rho_eg, g_tau)) ** 2


def n_eff(injection: str, n_c: float) -> float:
    """Effective number of earlier atoms whose field one atom still sees.

    Poissonian arrivals give n_c exactly; a regular (evenly spaced) beam
    gives 1/(exp(1/n_c) - 1), slightly smaller because the nearest
    predecessors are held at full spacing instead of clustering.
    """
    check_range("n_c", n_c, 0.0, open_lo=True)
    if injection == "poisson":
        return n_c
    if injection == "regular":
        # exp(-x) / (1 - exp(-x)) is the same value, but tends to 0 where
        # exp(x) would overflow for a sparse beam
        x = 1.0 / n_c
        return math.exp(-x) / -math.expm1(-x)
    raise ValueError(f"unknown injection model {injection!r}")


def emission_rate_per_atom(n_eff_value: float, a: AtomState, g: float, tau: float) -> float:
    """Per-atom photon emission rate rho_ee g^2 tau + 2 n_eff |rho_eg|^2 g^2 tau."""
    for name, value in (("n_eff", n_eff_value), ("g", g), ("tau", tau)):
        check_range(name, value, 0.0)
    g2t = g * g * tau
    return a.rho_ee * g2t + 2.0 * n_eff_value * abs(a.rho_eg) ** 2 * g2t


def dominance_threshold(a: AtomState) -> float:
    """n_c above which collective emission outweighs the noncollective part.

    2 rho_ee / (2 |rho_eg|)^2; infinite when the atoms carry no coherence.
    """
    coh = 2.0 * abs(a.rho_eg)
    if coh == 0.0:
        return math.inf
    return 2.0 * a.rho_ee / coh**2


def saturation_nc(g_tau: float, theta: float) -> float:
    """Transition scale (g_tau)^-2 * theta / sin(theta) of the coherent buildup.

    This is the n_c at which the Rabi angle 2 |alpha| g_tau = n_c g_tau^2
    sin(theta) that the small-angle coherent field gives a crossing atom
    equals the pulse area theta: the collective growth turns over here, but
    has not saturated. At theta = pi/2 the scale is (pi/2) (g_tau)^-2,
    where the semiclassical balance still gives a log-log slope of 1.29;
    the slope falls below 0.3 only past n_c ~ 14.1 (g_tau)^-2.
    """
    check_range("g_tau", g_tau, 0.0, open_lo=True)
    check_range("theta", theta)
    s = math.sin(theta)
    # rounding leaves sin(pi) at ~1e-16, which would turn the divergence at
    # theta = pi into a garbage 1e20; treat near-zero as zero
    if not abs(s) >= 1e-12:
        raise ValueError(f"saturation scale undefined at sin(theta)=0 (theta={theta})")
    return theta / s / g_tau**2


def beta_factors(n_c: float, a: AtomState, g_tau: float) -> tuple[float, float]:
    """(beta, beta_coll): single-atom and collectively enhanced mode fractions.

    beta = (g_tau)^2; beta_coll = 2 n_c (|rho_eg|^2 / rho_ee) (g_tau)^2.
    """
    if not a.rho_ee > 0.0:
        raise ValueError("beta_coll undefined for rho_ee = 0")
    beta = g_tau * g_tau
    return beta, 2.0 * n_c * abs(a.rho_eg) ** 2 / a.rho_ee * beta
