"""Two-level atom prepared by a pump pulse.

Only the reduced 2x2 density matrix matters here: the excited population
rho_ee and the coherence rho_eg = <e|rho|g>. The ground population is always
1 - rho_ee and is never stored.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

from .errors import check_magnitude, check_range

__all__ = ["AtomState", "prepare", "dephase", "pair_correlation"]

# slack on the positivity bound |rho_eg|^2 <= rho_ee*(1 - rho_ee)
_POSITIVITY_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class AtomState:
    rho_ee: float
    rho_eg: complex

    def __post_init__(self) -> None:
        check_range("rho_ee", self.rho_ee, 0.0, 1.0)
        magnitude = check_magnitude("rho_eg", self.rho_eg)
        bound = math.sqrt(self.rho_ee * (1.0 - self.rho_ee))
        if not magnitude <= bound + _POSITIVITY_TOL:
            raise ValueError(
                f"|rho_eg|={magnitude:.6g} exceeds the positivity bound "
                f"{bound:.6g} for rho_ee={self.rho_ee}"
            )
        object.__setattr__(self, "rho_ee", float(self.rho_ee))
        object.__setattr__(self, "rho_eg", complex(self.rho_eg))

    @property
    def rho_gg(self) -> float:
        return 1.0 - self.rho_ee

    @property
    def rho_ge(self) -> complex:
        return self.rho_eg.conjugate()


def prepare(theta: float, phi: float = 0.0) -> AtomState:
    """Atom after a resonant pump pulse of area theta and optical phase phi.

    rho_ee = sin^2(theta/2) and rho_eg = (1/2) sin(theta) exp(-i phi). With
    this sign convention a phased ensemble drives the cavity toward the
    coherent amplitude -i * n_c * rho_eg * g_tau.
    """
    check_range("theta", theta, 0.0)
    check_range("phi", phi)
    rho_ee = math.sin(0.5 * theta) ** 2
    rho_eg = 0.5 * math.sin(theta) * cmath.exp(-1j * phi)
    # sin(theta) can land a hair outside the positivity bound at roundoff level
    bound = math.sqrt(max(rho_ee * (1.0 - rho_ee), 0.0))
    if abs(rho_eg) > bound:
        rho_eg *= bound / abs(rho_eg) if abs(rho_eg) > 0 else 0.0
    return AtomState(rho_ee, rho_eg)


def dephase(a: AtomState, factor: float) -> AtomState:
    """Shrink the coherence by a factor in [0, 1], leaving populations alone."""
    check_range("factor", factor, 0.0, 1.0)
    return AtomState(a.rho_ee, a.rho_eg * factor)


def pair_correlation(theta: float) -> float:
    """<sigma_i^+ sigma_j^-> = (1/4) sin^2(theta) for two identically pumped atoms."""
    return 0.25 * math.sin(theta) ** 2
