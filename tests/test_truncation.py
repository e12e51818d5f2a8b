"""Two rules decide whether a Fock cutoff holds a state: at most errors.TAIL_TOL
population sits at its top level or past it, and a steady state leaks trace out of
its top level at a rate within steady's residual tolerance. Every site of each rule
says so in that rule's one message."""

import math

import numpy as np
import pytest

from cavsr import steady
from cavsr.atom import AtomState, prepare
from cavsr.errors import TAIL_TOL, TruncationError, check_tail
from cavsr.hilbert import FieldState, vacuum
from cavsr.interaction import KickParams, jc_kick, jc_kick_pure
from cavsr.steady import MasterParams, evolve, steady_state, steady_state_auto

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


# (site, call) for the trace-leak rule, at n_c 1e7, where 19 levels keep only
# 1.6e-9 on the top one but the pump lifts it out faster than 1e-9; a guard of
# 19 levels stops the search's doubling, so the recursion's refusal surfaces
QUARTER = AtomState(0.25, 0.0)
LEAK_SITES = [
    ("steady_state", lambda: steady_state(MasterParams(1e7, KickParams(0.01), QUARTER, 18))),
    ("steady_state_auto", lambda: steady_state_auto(1e7, QUARTER, KickParams(0.01), n_max=18)),
]


@pytest.mark.parametrize("site, call", LEAK_SITES, ids=[s[0] for s in LEAK_SITES])
def test_every_leak_site_reports_through_one_message(site, call, monkeypatch):
    monkeypatch.setattr(steady, "DEFAULT_MAX_DIM", 19)
    with pytest.raises(
        TruncationError,
        match=r"^trace leaks out of levels 0\.\.18 at rate \d\.\d{3}e[+-]\d\d; enlarge the basis$",
    ):
        call()
