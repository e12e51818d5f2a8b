"""One truncation rule: a Fock cutoff holds a state when at most errors.TAIL_TOL
population sits at its top level or past it, and every site says so in one message."""

import math

import numpy as np
import pytest

from cavsr.atom import prepare
from cavsr.errors import TAIL_TOL, TruncationError, check_tail
from cavsr.hilbert import FieldState, vacuum
from cavsr.interaction import KickParams, jc_kick, jc_kick_pure
from cavsr.steady import MasterParams, evolve, steady_state

HALF = prepare(0.5 * math.pi)


def _top_level(dim: int) -> FieldState:
    q = np.zeros((dim, dim), dtype=complex)
    q[-1, -1] = 1.0
    return FieldState(q)


def test_the_tolerance_itself_passes_and_anything_more_is_refused():
    check_tail("state keeps", TAIL_TOL, 4)
    check_tail("state keeps", 0.0, 4)
    for mass in (math.nextafter(TAIL_TOL, 1.0), 1.0, math.inf, math.nan):
        with pytest.raises(TruncationError):
            check_tail("state keeps", mass, 4)


# (site, n_max, call) for the sites whose own tests leave the message shape
# open; pn_random_phase, coherent and fidelity_to_coherent pin it where they
# test their tolerance
SITES = [
    ("steady_state", 2, lambda: steady_state(MasterParams(0.01, KickParams(0.3), HALF, 2))),
    ("evolve", 4, lambda: evolve(MasterParams(300.0, KickParams(0.05), HALF, 4), vacuum(4), 1.0)),
    ("jc_kick", 3, lambda: jc_kick(_top_level(4), prepare(math.pi), KickParams(0.3))),
    ("jc_kick_pure", 3,
     lambda: jc_kick_pure(np.eye(4)[-1], (1.0, 0.0, 0.0), KickParams(0.3))),
]


@pytest.mark.parametrize("site, n_max, call", SITES, ids=[s[0] for s in SITES])
def test_every_site_reports_through_the_one_rule(site, n_max, call):
    with pytest.raises(
        TruncationError,
        match=rf" \d\.\d{{3}}e[+-]\d\d population at n_max={n_max} or past it; enlarge the basis$",
    ):
        call()
