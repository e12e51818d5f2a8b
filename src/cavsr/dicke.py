"""Collective emission algebra for N two-level atoms.

Rates are quoted in units of the single-atom emission rate into the cavity
mode, so a lone fully excited atom has rate 1. The reference observable is
<sigma_+ sigma_-> of the collective lowering operator sigma_- = sum_i sigma_i^-.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .atom import AtomState
from .errors import ResourceError

__all__ = [
    "EnsembleSpec",
    "dicke_rate",
    "decompose_product_state",
    "ensemble_rate",
    "brute_force_rate",
]

# past this size binomial weights and the 2^N state both stop being exact/cheap
_MAX_SYMMETRIC_ATOMS = 64
_MAX_BRUTE_FORCE_ATOMS = 12


@dataclasses.dataclass(frozen=True)
class EnsembleSpec:
    """N identically prepared pure atoms c_e|e> + c_g|g>."""

    n_atoms: int
    c_e: complex
    c_g: complex

    def __post_init__(self) -> None:
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be at least 1, got {self.n_atoms}")
        nrm = abs(self.c_e) ** 2 + abs(self.c_g) ** 2
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"atom amplitudes have norm {nrm!r}, expected 1")
        object.__setattr__(self, "c_e", complex(self.c_e))
        object.__setattr__(self, "c_g", complex(self.c_g))

    @classmethod
    def from_pulse(cls, n_atoms: int, theta: float, phi: float = 0.0) -> EnsembleSpec:
        """N atoms after a pump pulse of area theta and phase phi, as in atom.prepare."""
        c_g = math.cos(0.5 * theta) * complex(math.cos(phi), math.sin(phi))
        return cls(n_atoms, math.sin(0.5 * theta), c_g)

    def atom_state(self) -> AtomState:
        return AtomState(abs(self.c_e) ** 2, self.c_e * self.c_g.conjugate())


def dicke_rate(n_atoms: int, m: float) -> float:
    """Emission rate (J + M)(J - M + 1) of the symmetric state |J = N/2, M>."""
    j = 0.5 * n_atoms
    if abs(m) > j + 1e-12 or abs((j - m) - round(j - m)) > 1e-9:
        raise ValueError(f"M={m} is not a level of the N={n_atoms} symmetric ladder")
    return (j + m) * (j - m + 1.0)


def decompose_product_state(spec: EnsembleSpec) -> np.ndarray:
    """Amplitudes of the product state over normalized |J = N/2, M = N/2 - k>.

    Index k counts ground-state atoms, k = 0..N. The amplitude on the
    normalized symmetric level is c_e^(N-k) c_g^k sqrt(binom(N, k)); the
    squared magnitudes form a binomial distribution and sum to one. Binomials
    come from exact integer arithmetic, which stays lossless up to the N = 64
    guard.
    """
    n = spec.n_atoms
    if n > _MAX_SYMMETRIC_ATOMS:
        raise ResourceError(
            f"symmetric decomposition limited to {_MAX_SYMMETRIC_ATOMS} atoms, got {n}"
        )
    amps = np.empty(n + 1, dtype=complex)
    for k in range(n + 1):
        amps[k] = spec.c_e ** (n - k) * spec.c_g**k * math.sqrt(math.comb(n, k))
    return amps


def ensemble_rate(n_atoms: int, a: AtomState) -> float:
    """Collective emission rate N(N-1)|rho_eg|^2 + N rho_ee of N product atoms."""
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be at least 1, got {n_atoms}")
    return n_atoms * (n_atoms - 1) * abs(a.rho_eg) ** 2 + n_atoms * a.rho_ee


def brute_force_rate(spec: EnsembleSpec) -> float:
    """<sigma_+ sigma_-> by direct action on the full 2^N product state.

    Bit i of a basis index set means atom i excited. The collective lowering
    operator sends each excited atom to ground, so the amplitude landing on
    basis state b is the sum of psi over all single-bit raisings of b.
    """
    n = spec.n_atoms
    if n > _MAX_BRUTE_FORCE_ATOMS:
        raise ResourceError(
            f"brute-force rate limited to {_MAX_BRUTE_FORCE_ATOMS} atoms, got {n}"
        )
    size = 1 << n
    b = np.arange(size, dtype=np.uint64)
    excited = np.bitwise_count(b).astype(np.int64)
    psi = spec.c_e ** excited * spec.c_g ** (n - excited)
    lowered = np.zeros(size, dtype=complex)
    for i in range(n):
        bit = np.uint64(1 << i)
        clear = (b & bit) == 0
        lowered[clear] += psi[(b[clear] | bit).astype(np.int64)]
    return float(np.sum(np.abs(lowered) ** 2))
