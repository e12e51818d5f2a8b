"""Error types shared across the package.

Plain invalid arguments raise ValueError; the classes here mark failure
modes a caller may want to catch and handle differently (enlarge the
basis, change solver, accept a diverging analytic branch, ...).
"""

__all__ = [
    "CavsrError",
    "TruncationError",
    "ConvergenceError",
    "ResourceError",
    "DivergenceError",
    "DegenerateBranchError",
]


class CavsrError(Exception):
    """Base class for domain errors raised by this package."""


class TruncationError(CavsrError):
    """The Fock-space cutoff is too small for the requested operation."""


class ConvergenceError(CavsrError):
    """An iterative computation failed to reach its tolerance."""


class ResourceError(CavsrError):
    """The computation would exceed a configured size or memory limit."""


class DivergenceError(CavsrError):
    """A closed-form expression has no finite value at these parameters."""


class DegenerateBranchError(CavsrError):
    """A conditional state has (numerically) zero probability."""
