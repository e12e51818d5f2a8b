"""Error types shared across the package.

Plain invalid arguments raise ValueError; the classes here mark failure
modes a caller may want to catch and handle differently (enlarge the
basis, change solver, accept a diverging analytic branch, ...).
check_range is the package's one rule for a scalar input's kind and
range: a bool, None or a string is not a number, and integer= marks a
count; check_magnitude applies it to a complex input's magnitude.
check_tail is its one rule for whether a Fock cutoff holds a state.
"""

import math
import numbers

__all__ = [
    "CavsrError",
    "TruncationError",
    "ConvergenceError",
    "ResourceError",
    "DivergenceError",
    "DegenerateBranchError",
]

# largest population a Fock cutoff may lose at its top level or past it
TAIL_TOL = 1e-8


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


def check_range(
    name: str, value: float, lo: float = -math.inf, hi: float = math.inf, open_lo: bool = False,
    integer: bool = False,
) -> None:
    """Raise ValueError unless value is a finite number in [lo, hi], or in (lo, hi] with open_lo.

    Refused in turn: a bool, None, a string or any other non-numbers.Real
    (NumPy scalars are numbers); a non-finite value; with integer, a count
    that is not a numbers.Integral; a value out of range. Each test states
    the condition it accepts, so NaN, which fails every comparison, is
    refused. The message starts with the name, quoted for a wrong kind.
    """
    kind = type(value)
    # the built-in types first: an ABC isinstance costs several times more
    if not (kind is float or kind is int or kind is not bool and isinstance(value, numbers.Real)):
        raise ValueError(f"{name!r} must be {'int' if integer else 'float'}, got {value!r}")
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")
    if integer and kind is not int and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name!r} must be int, got {value!r}")
    if not (lo < value <= hi if open_lo else lo <= value <= hi):
        if hi < math.inf:
            want = f"lie in {'(' if open_lo else '['}{lo:g}, {hi:g}]"
        elif lo == 0:
            want = "be positive" if open_lo else "be non-negative"
        else:
            want = f"exceed {lo:g}" if open_lo else f"be at least {lo:g}"
        raise ValueError(f"{name} must {want}, got {value}")


def check_magnitude(name: str, value: complex) -> float:
    """|value| of a complex input, refused as check_range refuses a real one.

    A bool or any non-numbers.Complex is refused before abs() runs; the
    magnitude must then pass check_range.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ValueError(f"{name!r} must be complex, got {value!r}")
    magnitude = abs(value)
    check_range(name, magnitude)
    return magnitude


def check_tail(what: str, mass: float, n_max: int) -> None:
    """Raise TruncationError unless mass, the population at n_max or past it, is within TAIL_TOL.

    The test states what it accepts, so a NaN mass is refused. The message
    starts with what, which names the state and the verb before the mass.
    """
    if not mass <= TAIL_TOL:
        raise TruncationError(
            f"{what} {mass:.3e} population at n_max={n_max} or past it; enlarge the basis"
        )
