"""Brent's bracketing root finder, shared by the balance root and the jump-time inversion."""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from .errors import ConvergenceError

# the defaults of scipy's brentq: 4 eps is the least relative tolerance it accepts
_XTOL, _RTOL, _MAXITER = 2e-12, 4.0 * sys.float_info.epsilon, 100


def _brentq(
    f: Callable[..., float], a: float, b: float, args: tuple = (), xtol: float = _XTOL
) -> float:
    """Root of f(x, *args) in [a, b], where f(a) and f(b) differ in sign.

    Brent (Algorithms for Minimization without Derivatives, 1973, ch. 4):
    inverse quadratic interpolation or a secant step where it stays well
    inside the bracket, bisection otherwise, until the bracket is within
    xtol + _RTOL |x|. A transcription of the C loop behind scipy's brentq,
    with its defaults, so it takes the same iterates and returns the same
    float. A NaN value, a bracket whose ends share a sign, or no
    convergence in _MAXITER iterations raises ConvergenceError.
    """

    def value(x: float) -> float:
        fx = float(f(x, *args))
        if math.isnan(fx):
            raise ConvergenceError(f"root finder met a NaN at x={x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ConvergenceError(f"f({xpre!r}) and f({xcur!r}) do not differ in sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise ConvergenceError(f"root finder did not converge in {_MAXITER} iterations, at x={xcur!r}")
