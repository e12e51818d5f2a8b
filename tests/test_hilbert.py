import math

import numpy as np
import pytest
from scipy import special, stats

from cavsr import hilbert
from cavsr.errors import TruncationError
from cavsr.hilbert import (
    FieldState,
    apply_decay,
    coherent,
    coherent_amplitudes,
    fidelity_to_coherent,
    mean_photon,
    photon_distribution,
    vacuum,
)


def random_state(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q = m @ m.conj().T
    return FieldState(q / np.trace(q).real)


def test_vacuum_basics():
    s = vacuum(5)
    assert s.dim == 6
    assert np.trace(s.q) == pytest.approx(1.0)
    assert mean_photon(s) == 0.0
    s.validate()


def test_vacuum_minimal():
    s = vacuum(1)
    assert np.allclose(s.q, np.diag([1.0, 0.0]))


def test_vacuum_rejects_empty_basis():
    with pytest.raises(ValueError):
        vacuum(0)


def test_coherent_zero_is_vacuum():
    assert np.allclose(coherent(0.0, 10).q, vacuum(10).q)


def test_coherent_mean_photon():
    s = coherent(-0.5j, 20)
    assert mean_photon(s) == pytest.approx(0.25, abs=1e-6)


def test_coherent_poisson_distribution():
    s = coherent(1.0, 30)
    p = photon_distribution(s)
    expected = stats.poisson.pmf(np.arange(31), 1.0)
    assert np.max(np.abs(p - expected)) < 1e-8


def test_coherent_needs_room():
    with pytest.raises(TruncationError):
        coherent(6.0, 10)
    # the Poisson mass above 29 levels is 2.77e-8, above 30 only 7.9e-9
    with pytest.raises(TruncationError, match=r"keeps 2\.765e-08 population at n_max=29 "):
        coherent(3.0, 29)
    assert coherent(3.0, 30).n_max == 30
    assert coherent(1.0, 20).n_max == 20


def test_log_factorials_and_tail_mass_match_scipy_special():
    n = np.arange(1101)
    np.testing.assert_allclose(hilbert._log_factorials(n.size), special.gammaln(n + 1.0),
                               rtol=1e-15, atol=0.0)
    # the tail is 1 - sum |c_n|^2; the log-domain amplitudes carry about eps |alpha|^2
    for alpha in (0.5, 3.0, 10.0, 31.6):
        for n_max in np.unique(np.linspace(1, alpha**2 + 12.0 * alpha + 30.0, 60).astype(int)):
            tail = hilbert._mass_above(coherent_amplitudes(alpha, int(n_max)))
            assert abs(tail - special.pdtrc(n_max, alpha**2)) <= 1e-15 * max(1.0, alpha**2)


def test_coherent_amplitudes_formula():
    # c_n = exp(-|alpha|^2 / 2) alpha^n / sqrt(n!)
    c = coherent_amplitudes(0.5, 6)
    w = math.exp(-0.125)
    assert c[0] == pytest.approx(w)
    assert c[3] == pytest.approx(w * 0.5**3 / math.sqrt(6.0))


def test_mean_photon_weighted_diagonal():
    s = FieldState(np.diag([0.5, 0.0, 0.5]))
    assert mean_photon(s) == pytest.approx(1.0)


def test_photon_distribution_matches_diagonal():
    rng = np.random.default_rng(4)
    s = random_state(7, rng)
    assert np.array_equal(photon_distribution(s), np.real(np.diag(s.q)))
    assert photon_distribution(vacuum(4))[0] == 1.0


def test_fidelity_self():
    s = coherent(0.7 - 0.2j, 25)
    assert fidelity_to_coherent(s, 0.7 - 0.2j) == pytest.approx(1.0, abs=1e-8)
    assert fidelity_to_coherent(vacuum(5), 0.0) == pytest.approx(1.0)


def test_fidelity_vacuum_vs_displaced():
    # |<alpha|0>|^2 = exp(-|alpha|^2)
    assert fidelity_to_coherent(vacuum(25), 2.0) == pytest.approx(
        math.exp(-4.0), abs=1e-6
    )


def test_fidelity_rejects_target_outside_basis():
    with pytest.raises(TruncationError):
        fidelity_to_coherent(vacuum(5), 4.0)
    # the same Poisson tail as coherent's: 2.77e-8 above 29 levels, 7.9e-9 above 30
    with pytest.raises(TruncationError, match=r"keeps 2\.765e-08 population at n_max=29 "):
        fidelity_to_coherent(vacuum(29), 3.0)
    assert fidelity_to_coherent(vacuum(30), 3.0) == pytest.approx(math.exp(-9.0))


def test_decay_identity_at_zero_time():
    s = coherent(1.0, 25)
    assert np.allclose(apply_decay(s, 1.0, 0.0).q, s.q)
    assert np.allclose(apply_decay(s, 0.0, 3.0).q, s.q)


def test_decay_keeps_coherent_states_coherent():
    # half the photons gone means amplitude shrinks by sqrt(1/2)
    s = apply_decay(coherent(1.0, 25), 1.0, 0.5 * math.log(2.0))
    assert fidelity_to_coherent(s, 1.0 / math.sqrt(2.0)) == pytest.approx(1.0, abs=1e-8)


def test_decay_single_photon_branching():
    one = FieldState(np.diag([0.0, 1.0, 0.0, 0.0]))
    out = apply_decay(one, 1.0, math.log(2.0) / 2.0)
    p = photon_distribution(out)
    assert p[0] == pytest.approx(0.5, abs=1e-10)
    assert p[1] == pytest.approx(0.5, abs=1e-10)


def test_decay_preserves_state_invariants():
    rng = np.random.default_rng(11)
    s = random_state(9, rng)
    out = apply_decay(s, 0.7, 0.4)
    out.validate()
    assert np.trace(out.q).real == pytest.approx(1.0, abs=1e-12)


def test_decay_rejects_negative_arguments():
    with pytest.raises(ValueError):
        apply_decay(vacuum(3), -1.0, 0.1)
    with pytest.raises(ValueError):
        apply_decay(vacuum(3), 1.0, -0.1)


def test_field_state_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FieldState(np.zeros((2, 3)))


def test_validate_flags_broken_matrices():
    q = np.diag([0.5, 0.5]).astype(complex)
    q[0, 1] = 0.3
    with pytest.raises(ValueError):
        FieldState(q).validate()
    with pytest.raises(ValueError):
        FieldState(np.diag([0.7, 0.7])).validate()
    with pytest.raises(ValueError):
        FieldState(np.diag([1.5, -0.5])).validate()
