import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cavsr.analytic import n_eff
from cavsr.atom import AtomState, dephase, prepare
from cavsr.dicke import EnsembleSpec, decompose_product_state
from cavsr.errors import DegenerateBranchError, TruncationError
from cavsr.hilbert import (
    FieldState,
    apply_decay,
    mean_photon,
    photon_distribution,
    vacuum,
)
from cavsr.interaction import (
    KickParams,
    bunched_mean_n,
    jc_kick,
    jc_kick_pure,
    kick_sequence,
    lossless_sequence,
    measure_atom,
    rabi_tables,
)


def random_field(dim, pad, rng):
    """Random density matrix with empty top levels so kicks cannot leak."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q = m @ m.conj().T
    q /= np.trace(q).real
    full = np.zeros((dim + pad, dim + pad), dtype=complex)
    full[:dim, :dim] = q
    return FieldState(full)


def kick_via_purification(s, a, k):
    """Independent route: eigendecompose both factors, kick pure states."""
    atom_m = np.array([[a.rho_ee, a.rho_eg], [a.rho_ge, 1.0 - a.rho_ee]])
    aw, av = np.linalg.eigh(atom_m)
    fw, fv = np.linalg.eigh(s.q)
    out = np.zeros_like(s.q)
    for i in range(2):
        if aw[i] < 1e-14:
            continue
        for j in range(s.dim):
            if fw[j] < 1e-14:
                continue
            e, g = jc_kick_pure(fv[:, j], (av[0, i], av[1, i], 0.0), k)
            out += aw[i] * fw[j] * (np.outer(e, e.conj()) + np.outer(g, g.conj()))
    return out


def branch_weights(e, g):
    """Squared norms of the two atom branches of a kick."""
    return np.vdot(e, e).real, np.vdot(g, g).real


def test_rabi_tables_boundary():
    c, s, cm, sm = rabi_tables(4, 0.3)
    assert cm[0] == 1.0 and sm[0] == 0.0
    assert c[0] == pytest.approx(math.cos(0.3))
    assert sm[1] == pytest.approx(math.sin(0.3))
    assert s[2] == pytest.approx(math.sin(math.sqrt(3.0) * 0.3))


def test_ground_atom_leaves_vacuum_alone():
    out = jc_kick(vacuum(5), prepare(0.0), KickParams(0.4))
    assert np.allclose(out.q, vacuum(5).q, atol=1e-14)


def test_excited_atom_deposits_photon():
    g_tau = 0.37
    out = jc_kick(vacuum(5), prepare(math.pi), KickParams(g_tau))
    p = photon_distribution(out)
    assert p[1] == pytest.approx(math.sin(g_tau) ** 2, abs=1e-12)
    assert p[0] == pytest.approx(math.cos(g_tau) ** 2, abs=1e-12)


def test_half_pulse_second_order_gain():
    g_tau = 0.01
    a = prepare(math.pi / 2.0)
    out = jc_kick(vacuum(5), a, KickParams(g_tau))
    gain = mean_photon(out)
    assert gain == pytest.approx(a.rho_ee * g_tau**2, abs=5.0 * g_tau**4)
    assert abs(out.q[0, 1]) > 0.0


def test_kick_preserves_density_matrix_structure():
    rng = np.random.default_rng(7)
    k = KickParams(0.25)
    for _ in range(5):
        s = random_field(8, 4, rng)
        a = AtomState(rng.uniform(0.0, 1.0), 0.0)
        a = AtomState(
            a.rho_ee,
            rng.uniform(0.0, math.sqrt(a.rho_ee * (1.0 - a.rho_ee)))
            * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)),
        )
        out = jc_kick(s, a, k)
        assert abs(np.trace(out.q).real - 1.0) <= 1e-10
        assert np.max(np.abs(out.q - out.q.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(out.q).min() >= -1e-9


def test_random_phase_kicks_stay_diagonal():
    rng = np.random.default_rng(3)
    diag = rng.uniform(0.0, 1.0, size=6)
    diag /= diag.sum()
    full = np.zeros((9, 9), dtype=complex)
    full[:6, :6] = np.diag(diag)
    out = jc_kick(FieldState(full), AtomState(0.7, 0.0), KickParams(0.3))
    off = out.q - np.diag(np.diag(out.q))
    assert np.max(np.abs(off)) <= 1e-14


def test_mixed_kick_matches_purified_route():
    rng = np.random.default_rng(21)
    k = KickParams(0.3)
    for rho_ee, rho_eg in ((0.5, 0.5), (0.3, 0.2 - 0.3j), (1.0, 0.0), (0.6, 0.0)):
        a = AtomState(rho_ee, rho_eg)
        s = random_field(9, 3, rng)
        direct = jc_kick(s, a, k)
        indirect = kick_via_purification(s, a, k)
        assert np.max(np.abs(direct.q - indirect)) <= 1e-10


def test_pure_kick_trivial_cases():
    k = KickParams(0.5)
    e, g = jc_kick_pure(np.array([1.0, 0.0]), (0.0, 1.0, 0.0), k)
    assert np.allclose(g, [1.0, 0.0])
    assert np.allclose(e, 0.0)

    e, g = jc_kick_pure(np.array([1.0, 0.0]), (1.0, 0.0, 0.0), KickParams(math.pi / 2.0))
    assert np.allclose(e, 0.0, atol=1e-15)
    assert g[1] == pytest.approx(-1.0j)


def test_pure_kick_rejects_unnormalized_atom():
    with pytest.raises(ValueError):
        jc_kick_pure(np.array([1.0, 0.0]), (0.9, 0.9, 0.0), KickParams(0.1))


def test_transit_entries_reject_bad_shapes():
    k = KickParams(0.1)
    # a vector is one field and a 2-D array a stack of them, one per row
    for amp in (np.zeros(0), np.zeros((2, 0)), np.zeros((2, 2, 2)), np.complex128(1.0)):
        with pytest.raises(ValueError, match="nonempty vector"):
            jc_kick_pure(amp, (1.0, 0.0, 0.0), k)
    for e, g in ((np.zeros(2), np.ones(3)), (np.zeros((2, 2, 2)), np.zeros((2, 2, 2))),
                 (np.eye(2), np.ones((3, 2))), (np.ones(()), np.ones(()))):
        with pytest.raises(ValueError, match="share one shape"):
            measure_atom(e, g, 0.5)


def test_pure_kick_flags_top_level_leak():
    amp = np.zeros(4)
    amp[-1] = 1.0
    with pytest.raises(TruncationError):
        jc_kick_pure(amp, (1.0, 0.0, 0.0), KickParams(0.3))


def test_mixed_kick_flags_top_level_leak():
    q = np.zeros((4, 4), dtype=complex)
    q[-1, -1] = 1.0
    with pytest.raises(TruncationError):
        jc_kick(FieldState(q), prepare(math.pi), KickParams(0.3))


@pytest.mark.parametrize("kick", ["pure", "mixed"])
def test_kicks_flag_a_leak_just_past_the_tolerance(kick):
    # an excited atom takes |e, 3> to |g, 4> with probability sin^2(2 g_tau),
    # so the population of level 3 sets the leak out of 0..3: 1e-7 is
    # refused, 1e-10 passes and shows as the trace deficit
    k = KickParams(0.3)

    def kept(leak: float) -> float:
        top = leak / math.sin(2.0 * k.g_tau) ** 2
        amp = np.array([math.sqrt(1.0 - top), 0.0, 0.0, math.sqrt(top)])
        if kick == "pure":
            e, g = jc_kick_pure(amp, (1.0, 0.0, 0.0), k)
            return np.vdot(e, e).real + np.vdot(g, g).real
        return np.trace(jc_kick(FieldState(np.diag(amp**2)), prepare(math.pi), k).q).real

    assert kept(1e-10) == pytest.approx(1.0 - 1e-10, abs=1e-14)
    with pytest.raises(TruncationError, match=r"leaks 1\.000e-07 "):
        kept(1e-7)


def test_measurement_trivial_outcomes():
    outcome, field, prob = measure_atom(np.zeros(3), np.array([1.0, 0.0, 0.0]), 0.5)
    assert outcome == "g"
    assert prob == pytest.approx(1.0)
    assert np.allclose(field, [1.0, 0.0, 0.0])

    outcome, field, prob = measure_atom(np.zeros(3), np.array([0.0, -1.0j, 0.0]), 0.99)
    assert outcome == "g"
    assert abs(field[1]) == pytest.approx(1.0)


def test_measurement_born_statistics():
    e, g = jc_kick_pure(np.array([1.0, 0.0, 0.0]), (1.0, 0.0, 0.0), KickParams(math.pi / 4.0))
    rng = np.random.default_rng(5)
    n_draws = 100_000
    hits = sum(1 for u in rng.random(n_draws) if measure_atom(e, g, u)[0] == "e")
    p_e = hits / n_draws
    sigma = math.sqrt(0.25 / n_draws)
    assert abs(p_e - 0.5) <= 3.0 * sigma


def test_measurement_degenerate_branch():
    with pytest.raises(DegenerateBranchError):
        measure_atom(np.array([1e-200, 0.0]), np.zeros(2), 0.0)
    with pytest.raises(DegenerateBranchError):
        # u = 0 lands on the excited branch even though its weight is dust
        measure_atom(np.array([1e-160, 0.0]), np.array([1.0, 0.0]), 0.0)


def test_ground_atoms_emit_nothing():
    trace = lossless_sequence([prepare(0.0)] * 5, KickParams(0.2))
    assert trace == pytest.approx([0.0] * 5, abs=1e-15)


def test_sequence_increments_grow_linearly():
    g_tau = 0.01
    a = prepare(math.pi / 2.0)
    trace = lossless_sequence([a] * 10, KickParams(g_tau))
    assert trace[-1] == pytest.approx(2.75e-3, rel=0.01)
    inc = np.diff([0.0] + trace)
    expected = a.rho_ee * g_tau**2 + 2.0 * np.arange(10) * abs(a.rho_eg) ** 2 * g_tau**2
    assert np.allclose(inc, expected, rtol=0.02)


def test_sequential_total_matches_bunched_total():
    k = KickParams(0.01)
    trace = lossless_sequence([prepare(math.pi / 2.0)] * 20, k)
    together = bunched_mean_n(20, math.pi / 2.0, 0.0, k)
    assert trace[-1] == pytest.approx(together, rel=0.02)
    # the closing atom of the queue emits about twice the bunched average
    last = trace[-1] - trace[-2]
    assert last == pytest.approx(2.0 * together / 20.0, rel=0.10)


@pytest.mark.parametrize(
    "n_c, theta, coherence", [(10.0, math.pi / 2.0, 1.0), (3.0, 1.1, 1.0), (10.0, 2.0, 0.5)]
)
def test_regular_beam_reaches_the_small_angle_steady_state(n_c, theta, coherence):
    # between kicks the amplitude decays by x = exp(-1/n_c), and each kick
    # adds the coherent amplitude -i g_tau rho_eg and the incoherent photons
    # g_tau^2 (rho_ee - |rho_eg|^2); just after a kick in steady state
    # <n> = g_tau^2 [|rho_eg|^2 / (1 - x)^2 + (rho_ee - |rho_eg|^2) / (1 - x^2)],
    # where 1 / (1 - x) is one more than the regular beam's n_eff
    g_tau = 0.002
    a = dephase(prepare(theta), coherence)
    x = math.exp(-1.0 / n_c)
    coh = abs(a.rho_eg) ** 2
    incoherent = (a.rho_ee - coh) / (1.0 - x * x)
    expected = g_tau**2 * (coh * (n_eff("regular", n_c) + 1.0) ** 2 + incoherent)
    # 20 decay times
    trace = kick_sequence(vacuum(6), [a] * round(20 * n_c), KickParams(g_tau), gap=1.0 / n_c)
    assert trace[-1] == pytest.approx(expected, rel=1e-4)


def test_bunched_exact_matches_rate_formula_when_small():
    k = KickParams(0.005)
    for n in (2, 4, 6):
        exact = bunched_mean_n(n, math.pi / 2.0, 0.0, k)
        formula = k.g_tau**2 * (n * 0.5 + n * (n - 1) * 0.25)
        assert exact == pytest.approx(formula, rel=0.01)


def test_bunched_comparator_vs_sequential_small_ensembles():
    k = KickParams(0.005)
    for n in (2, 3, 4, 5, 6):
        seq = lossless_sequence([prepare(math.pi / 2.0)] * n, k)[-1]
        assert seq == pytest.approx(bunched_mean_n(n, math.pi / 2.0, 0.0, k), rel=0.01)


def dense_tavis_cummings_mean_n(spec, g_tau):
    """<n> from h = a sigma_+ + a^dagger sigma_- on the whole (N+1)^2 collective space."""
    n_atoms = spec.n_atoms
    levels = n_atoms + 1
    size = levels * levels
    h = np.zeros((size, size))
    for kg in range(n_atoms):
        for n in range(n_atoms):
            v = math.sqrt((n + 1.0) * (n_atoms - kg) * (kg + 1.0))
            h[(kg + 1) * levels + n + 1, kg * levels + n] = v
            h[kg * levels + n, (kg + 1) * levels + n + 1] = v
    w, vec = scipy.linalg.eigh(h)
    psi0 = np.zeros(size, dtype=complex)
    psi0[::levels] = decompose_product_state(spec)  # the vacuum times the atoms
    psi = (vec * np.exp(-1j * w * g_tau)) @ (vec.conj().T @ psi0)
    photon = np.tile(np.arange(levels, dtype=float), levels)
    return float(photon @ np.abs(psi) ** 2)


@pytest.mark.parametrize("n_atoms", range(1, 11))
def test_tavis_cummings_blocks_match_the_dense_evolution(n_atoms):
    for theta in (0.3, 1.0, math.pi / 2.0, 2.5, math.pi):
        for g_tau in (0.005, 0.1, 0.7):
            # the bunched comparator is the exact evolution at every atom number
            ref = dense_tavis_cummings_mean_n(EnsembleSpec.from_pulse(n_atoms, theta, 0.4), g_tau)
            got = bunched_mean_n(n_atoms, theta, 0.4, KickParams(g_tau))
            assert got == pytest.approx(ref, rel=1e-12)


angles = st.floats(0.0, 2.0 * math.pi)


@st.composite
def fields_with_empty_top(draw):
    """Unit-norm Fock amplitudes on 3..16 levels with the top level empty."""
    dim = draw(st.integers(3, 16))
    parts = st.floats(-1.0, 1.0)
    re = np.array(draw(st.lists(parts, min_size=dim - 1, max_size=dim - 1)))
    im = np.array(draw(st.lists(parts, min_size=dim - 1, max_size=dim - 1)))
    amp = np.append(re + 1j * im, 0.0)
    nrm = np.linalg.norm(amp)
    assume(nrm > 1e-3)
    return amp / nrm


@settings(max_examples=60, deadline=None)
@given(fields_with_empty_top(), angles, angles, st.floats(0.0, 1.0))
def test_pure_kick_keeps_the_norm(psi, theta, phi, g_tau):
    e, g = jc_kick_pure(psi, (math.sin(0.5 * theta), math.cos(0.5 * theta), phi), KickParams(g_tau))
    assert math.sqrt(sum(branch_weights(e, g))) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(fields_with_empty_top(), angles, angles, st.floats(0.0, 1.0))
def test_measurement_branches_are_unit_norm_and_exhaustive(psi, theta, phi, g_tau):
    e, g = jc_kick_pure(psi, (math.sin(0.5 * theta), math.cos(0.5 * theta), phi), KickParams(g_tau))
    w_e, w_g = branch_weights(e, g)
    # a branch of dust weight is refused by design; test the rest
    assume(min(w_e, w_g) == 0.0 or min(w_e, w_g) > 1e-250)
    taken = {}
    for u in (0.0, math.nextafter(1.0, 0.0)):
        outcome, field, prob = measure_atom(e, g, u)
        assert np.linalg.norm(field) == pytest.approx(1.0, abs=1e-12)
        taken[outcome] = prob
    assert sum(taken.values()) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 1.0))
def test_rabi_tables_are_read_only(dim, g_tau):
    for table in rabi_tables(dim, g_tau):
        with pytest.raises(ValueError):
            table[0] = 0.5
    # the cached tables still hold their values
    c, s, cm, sm = rabi_tables(dim, g_tau)
    assert c[0] == pytest.approx(math.cos(g_tau), rel=1e-15, abs=1e-15)
    assert cm[0] == 1.0 and sm[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(fields_with_empty_top(), angles, angles, angles, angles, st.floats(0.0, 1.0))
def test_pure_kick_accepts_complex_atom_amplitudes(psi, theta, phi, alpha, beta, g_tau):
    # c_e e^{i alpha}|e> + c_g e^{i beta} e^{i phi}|g> is e^{i alpha} times the
    # real-amplitude atom with phase phi + beta - alpha
    c_e, c_g = math.sin(0.5 * theta), math.cos(0.5 * theta)
    k = KickParams(g_tau)
    e, g = jc_kick_pure(psi, (c_e * cmath.exp(1j * alpha), c_g * cmath.exp(1j * beta), phi), k)
    ref_e, ref_g = jc_kick_pure(psi, (c_e, c_g, phi + beta - alpha), k)
    rot = cmath.exp(1j * alpha)
    assert np.max(np.abs(e - rot * ref_e)) <= 1e-12
    assert np.max(np.abs(g - rot * ref_g)) <= 1e-12


@st.composite
def mixed_fields_with_empty_top(draw):
    """Random density matrices on 3..16 levels with the top level empty."""
    dim = draw(st.integers(2, 15))
    return random_field(dim, 1, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


# any atom a pump pulse and partial dephasing can prepare
atoms = st.builds(
    lambda theta, phi, coherence: dephase(prepare(theta, phi), coherence),
    st.floats(0.0, math.pi),
    angles,
    st.floats(0.0, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(mixed_fields_with_empty_top(), atoms, st.floats(0.0, 1.0))
def test_mixed_kick_is_trace_preserving_and_positive(s, a, g_tau):
    out = jc_kick(s, a, KickParams(g_tau))
    assert np.trace(out.q).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out.q - out.q.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(out.q).min() >= -1e-12


@settings(max_examples=60, deadline=None)
@given(mixed_fields_with_empty_top(), st.floats(0.0, 2.0), *[st.floats(0.0, 3.0)] * 2)
def test_decay_is_a_semigroup(s, gamma_c, t1, t2):
    twice = apply_decay(apply_decay(s, gamma_c, t1), gamma_c, t2)
    once = apply_decay(s, gamma_c, t1 + t2)
    assert np.max(np.abs(twice.q - once.q)) <= 1e-12
