"""Truncated Fock space: ladder algebra, Weyl operators, coherent states.

Everything here has an untruncated closed form; tests either work on
interior vectors (where truncation is invisible) or use a truncation level
deep enough that the known tails are below the asserted tolerance.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import factorial

from hubbard_phonon.boson_fock import (
    ModeSet,
    TruncatedFock,
    apply_displacement,
    apply_field,
    apply_ladder,
    coherent_amplitudes_1mode,
    coherent_tail,
    coherent_weyl_overlap,
    displacement_1mode,
    field,
    mode_kron,
    relative_bound_check,
)
from hubbard_phonon.eigensolver import DENSE_MAX
from hubbard_phonon.errors import SizingError, ValidationError

from fock_oracles import (
    TAIL_BOUND,
    TruncationWarning,
    annihilator,
    apply_weyl,
    weyl_displacement,
)


def _space(freqs, n_max):
    return TruncatedFock(ModeSet(np.asarray(freqs, dtype=float)), n_max)


# -- oracles: the Weyl matrix, the coherent state -----------------------------


def weyl(space, f):
    """Oracle: W(f) = exp(i phi(f)) as a dense matrix, the Kronecker product
    of the per-mode displacements D(i f_j / sqrt 2).

    Refuses dimensions above ``DENSE_MAX`` (:func:`apply_weyl` works there).
    A displaced-vacuum tail above ``TAIL_BOUND`` warns, as in apply_weyl;
    the matrix is still returned since the per-mode factors are unitary.
    """
    if space.dim > DENSE_MAX:
        raise SizingError(
            f"dense Weyl matrix at dim {space.dim} > {DENSE_MAX}; use apply_weyl"
        )
    u = weyl_displacement(space, f)
    return mode_kron([displacement_1mode(uj, space.n_max) for uj in u])


def coherent_state(space, z):
    """Oracle: the normalized truncated coherent state and its lost tail mass.

    Returns ``(vec, truncation_error)`` where the error is 1 minus the
    squared norm of the raw truncated amplitudes.  A tail above
    ``TAIL_BOUND`` warns.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (space.modes.m,):
        raise ValidationError("z must assign one amplitude per mode")
    vec = mode_kron([coherent_amplitudes_1mode(zj, space.n_max) for zj in z])
    nrm2 = float(np.vdot(vec, vec).real)
    trunc = max(0.0, 1.0 - nrm2)
    if trunc > TAIL_BOUND:
        warnings.warn(
            f"coherent state lost {trunc:.3e} tail mass at n_max = {space.n_max}",
            TruncationWarning,
            stacklevel=2,
        )
    return vec / np.sqrt(nrm2), trunc


def test_mode_set_requires_positive_frequencies():
    with pytest.raises(ValidationError):
        ModeSet(np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        ModeSet(np.array([-0.5]))


def test_occupation_layout():
    # mode 0 varies slowest in the flattened index
    space = _space([1.0, 2.0], 2)
    occ = space.occupations()
    assert space.dim == 9
    for i in range(space.dim):
        assert tuple(occ[i]) == (i // 3, i % 3)


def test_ladder_matrices():
    # on the identity stack, row i of the result is a @ e_i: column i of a
    space = _space([1.0], 5)
    want = np.diag(np.sqrt(np.arange(1, 6)), 1)
    eye = np.eye(space.dim)
    assert np.max(np.abs(apply_ladder(space, [1.0], eye).T - want)) == 0.0
    assert np.max(np.abs(apply_ladder(space, [1.0], eye, dagger=True).T - want.T)) == 0.0
    assert np.max(np.abs(field(space, [1.0]).toarray() - (want + want.T) / np.sqrt(2))) < 1e-15


def test_ccr_on_interior_vectors():
    space = _space([1.0, 0.3], 5)
    units = np.eye(2)
    rng = np.random.default_rng(31)
    v = rng.standard_normal(space.dim) * np.all(space.occupations() <= 2, axis=1)
    v /= np.linalg.norm(v)
    for i, ei in enumerate(units):
        for j, ej in enumerate(units):
            comm = apply_ladder(space, ei, apply_ladder(space, ej, v, dagger=True))
            comm -= apply_ladder(space, ej, apply_ladder(space, ei, v), dagger=True)
            want = v if i == j else 0.0
            assert np.max(np.abs(comm - want)) < 1e-14


def test_second_quantized_diagonals():
    # H_b and N_b are diagonal in the occupations: sum_j omega_j n_j, sum_j n_j
    space = _space([1.0, 0.25, 2.0], 3)
    occ = space.occupations()
    assert np.allclose(space.hb_diag(), occ @ np.array([1.0, 0.25, 2.0]))
    assert np.allclose(space.nb_diag(), occ.sum(axis=1))


def test_field_hermitian_and_weyl_unitary():
    space = _space([1.0, 0.5], 7)
    rng = np.random.default_rng(32)
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi = field(space, f).toarray()
    assert np.max(np.abs(phi - phi.conj().T)) < 1e-13
    w = weyl(space, 0.3 * f)
    assert np.max(np.abs(w.conj().T @ w - np.eye(space.dim))) < 1e-10
    # and W(f) literally equals exp(i phi(f))
    assert np.max(np.abs(w - expm(1j * field(space, 0.3 * f).toarray()))) < 1e-10


def test_weyl_composition_phase():
    # W(f) W(g) = exp(-(i/2) Im<f,g>) W(f+g) applied to the vacuum
    space = _space([1.0], 50)
    f = np.array([0.3 + 0.4j])
    g = np.array([-0.2 + 0.1j])
    vac = np.zeros(space.dim)
    vac[0] = 1.0
    lhs = apply_weyl(space, f, apply_weyl(space, g, vac))
    phase = np.exp(-0.5j * np.imag(np.vdot(f, g)))
    rhs = phase * apply_weyl(space, f + g, vac)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_vacuum_weyl_expectation():
    space = _space([1.0, 0.5], 16)
    rng = np.random.default_rng(33)
    f = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    vac = np.zeros(space.dim)
    vac[0] = 1.0
    got = np.vdot(vac, apply_weyl(space, f, vac))
    want = np.exp(-0.25 * np.linalg.norm(f) ** 2)
    assert abs(got - want) < 1e-9


def test_weyl_generates_coherent_state():
    # W(f) vacuum is the coherent state of amplitude i f / sqrt(2)
    space = _space([1.0, 2.0], 18)
    f = np.array([0.7 - 0.3j, 0.2 + 0.5j])
    vac = np.zeros(space.dim)
    vac[0] = 1.0
    got = apply_weyl(space, f, vac)
    want, err = coherent_state(space, 1j * f / np.sqrt(2))
    assert err < 1e-12
    assert np.linalg.norm(got - want) < 1e-9


def test_coherent_amplitudes_explicit():
    z = 0.4 - 0.6j
    c = coherent_amplitudes_1mode(z, 12)
    n = np.arange(13)
    want = np.exp(-0.5 * abs(z) ** 2) * z**n / np.sqrt(factorial(n))
    assert np.max(np.abs(c - want)) < 1e-14


def test_coherent_is_annihilator_eigenvector():
    space = _space([1.0, 0.5], 18)
    z = np.array([0.5 + 0.2j, -0.3 + 0.4j])
    vec, err = coherent_state(space, z)
    assert err < 1e-10
    rng = np.random.default_rng(34)
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = apply_ladder(space, f, vec)
    assert np.linalg.norm(lhs - np.vdot(f, z) * vec) < 1e-7


def test_annihilator_antilinear():
    space = _space([1.0, 0.5], 4)
    f = np.array([0.3 + 1.0j, -0.7 + 0.2j])
    c = 0.8 - 1.1j
    eye = np.eye(space.dim)
    d = apply_ladder(space, c * f, eye) - np.conj(c) * apply_ladder(space, f, eye)
    assert np.max(np.abs(d)) < 1e-15


def test_displacement_block_route_matches_weyl():
    space = _space([1.0, 0.5], 9)
    rng = np.random.default_rng(35)
    f = 0.7 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    v = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    v /= np.linalg.norm(v)
    via_weyl = weyl(space, f) @ v
    via_disp = apply_displacement(space, 1j * f / np.sqrt(2), v)
    assert np.linalg.norm(via_weyl - via_disp) < 1e-12


def test_displacement_1mode_unitary():
    d = displacement_1mode(0.6 - 0.2j, 25)
    assert np.max(np.abs(d.conj().T @ d - np.eye(26))) < 1e-12
    # first column is the coherent amplitude vector
    assert np.max(np.abs(d[:, 0] - coherent_amplitudes_1mode(0.6 - 0.2j, 25))) < 1e-12


def test_displacement_stack_matches_rows():
    space = _space([1.0, 0.5, 2.0], 5)
    rng = np.random.default_rng(41)
    z = np.array([0.4, 0.0, -0.3])
    shape = (3, space.dim)
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stacked = apply_displacement(space, z, block)
    for row, got in zip(block, stacked):
        assert np.max(np.abs(apply_displacement(space, z, row) - got)) < 1e-15


@pytest.mark.parametrize("complex_block", [False, True])
def test_displacement_matches_dense_product(complex_block):
    # real z: every mode's D is real, so a complex block takes the
    # interleaved real-and-imaginary route
    space = _space([1.0, 0.5, 2.0], 4)
    rng = np.random.default_rng(43)
    z = np.array([0.4, -0.25, 0.3])
    block = rng.standard_normal((2, space.dim))
    if complex_block:
        block = block + 1j * rng.standard_normal((2, space.dim))
    dense = mode_kron([displacement_1mode(zj, space.n_max) for zj in z])
    got = apply_displacement(space, z, block)
    assert got.dtype == block.dtype
    assert np.max(np.abs(got - block @ dense.T)) < 1e-13


def _box_rows(rng, shape, side, m, complex_rows):
    """Random rows on the box of ``side`` levels per mode and the same rows
    zero-padded to the whole box of ``shape``."""
    lead = shape[:-m]
    rows = rng.standard_normal(lead + (side,) * m)
    if complex_rows:
        rows = rows + 1j * rng.standard_normal(rows.shape)
    whole = np.zeros(shape, rows.dtype)
    whole[(Ellipsis,) + (slice(side),) * m] = rows
    return rows.reshape(lead + (-1,)), whole.reshape(lead + (-1,))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("complex_rows", [False, True])
def test_box_rows_displace_as_their_zero_padded_whole_rows(m, complex_rows):
    """A row on a box of side s (1 and the trial support boxes 3 and 4, each
    capped at n_max + 1) comes back bit for bit as the zero-padded whole row
    does, for every n_max 1-16, with and without a zero displacement.  One
    mode's single row is left out: numpy hands a one-row product to gemv,
    whose OpenBLAS dot kernel groups the sum over k by its length, so the
    padded zeros move the last bit (stacks of two or more rows take gemm)."""
    rng = np.random.default_rng(60 + m)
    for n_max in range(1, 17):
        space = _space(rng.uniform(0.5, 2.0, m), n_max)
        for side in sorted({1, min(3, n_max + 1), min(4, n_max + 1)}):
            z = rng.uniform(-0.7, 0.7, m)
            for zero in (None, int(rng.integers(m))):
                if zero is not None:
                    z[zero] = 0.0
                for k in [(3,)] if m == 1 else [(), (1,), (3,)]:
                    rows, whole = _box_rows(rng, k + space.shape, side, m, complex_rows)
                    got = apply_displacement(space, z, rows)
                    assert got.shape == whole.shape and got.dtype == whole.dtype
                    assert np.array_equal(got, apply_displacement(space, z, whole))
    with pytest.raises(ValidationError, match="no box"):
        apply_displacement(_space([1.0, 0.5], 3), [0.1, 0.2], np.ones(7))
    with pytest.raises(ValidationError, match="no box"):
        apply_displacement(_space([1.0, 0.5], 3), [0.1, 0.2], np.ones(25))


def test_real_amplitude_field_is_real():
    space = _space([1.0, 0.5], 4)
    assert not np.iscomplexobj(field(space, [0.3, -0.2]).data)
    assert np.iscomplexobj(field(space, [0.3j, -0.2]).data)


@st.composite
def _ladder_case(draw):
    """A space, an amplitude vector and a block to apply operators to."""
    m = draw(st.integers(1, 4))
    n_max = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = _space(rng.uniform(0.5, 1.5, m), n_max)
    f = rng.standard_normal(m)
    if draw(st.booleans()):
        f = f + 1j * rng.standard_normal(m)
    f[rng.random(m) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    shape = draw(st.sampled_from([(space.dim,), (3, space.dim)]))
    block = rng.standard_normal(shape)
    if draw(st.booleans()):
        block = block + 1j * rng.standard_normal(shape)
    return space, f, block


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_ladder_case())
def test_matrix_free_ladder_and_field_match_sparse(case):
    """apply_ladder, apply_field and the assembled field against the
    Kronecker oracle; field repeats its roundings bit for bit, and so do
    apply_ladder and apply_field for real f."""
    space, f, block = case
    a = annihilator(space, f)
    phi = field(space, f)
    want_phi = ((a + a.conj().T) * (1 / np.sqrt(2.0))).tocsr()
    assert phi.dtype == want_phi.dtype
    assert np.array_equal(phi.indptr, want_phi.indptr)
    assert np.array_equal(phi.indices, want_phi.indices)
    assert phi.data.tobytes() == want_phi.data.tobytes()
    rows = np.atleast_2d(block).T
    for got, oracle in [
        (apply_ladder(space, f, block), a),
        (apply_ladder(space, f, block, dagger=True), a.conj().T),
        (apply_field(space, f, block), want_phi),
    ]:
        want = (oracle @ rows).T.reshape(block.shape)
        assert got.shape == block.shape
        assert got.dtype == want.dtype
        if np.isrealobj(f):
            assert got.tobytes() == want.tobytes()
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13


def test_occupation_tables_cached_read_only():
    space = _space([1.0, 0.5], 4)
    occ = np.stack(np.unravel_index(np.arange(space.dim), space.shape), 1)
    for table, want in [
        (space.occupations, occ),
        (space.hb_diag, occ @ [1.0, 0.5]),
        (space.nb_diag, occ.sum(axis=1)),
    ]:
        got = table()
        assert table() is got
        assert not got.flags.writeable
        assert got.tobytes() == want.astype(got.dtype).tobytes()


def test_random_interior_draws_only_the_kept_states():
    space = _space([1.0, 0.5, 0.3], 5)
    mask = np.all(space.occupations() <= 2, axis=1)
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    v = space.random_interior(rng, 3, 4)
    assert v.shape == (4, space.dim)
    assert not np.any(v[:, ~mask])
    assert abs(np.linalg.norm(v) - 1.0) < 1e-14
    # the normals fill the kept states in C order, real parts first
    kept = np.random.default_rng(4).standard_normal((2, 4, int(mask.sum())))
    want = np.zeros((4, space.dim), dtype=complex)
    want.real[:, mask], want.imag[:, mask] = kept
    assert v.tobytes() == (want / np.linalg.norm(want)).tobytes()
    # exactly one real and one imaginary normal per kept state and row
    twin.standard_normal(2 * 4 * int(mask.sum()))
    assert rng.standard_normal() == twin.standard_normal()
    # a headroom above n_max leaves no state to draw: refused, never 0 / 0
    with pytest.raises(ValidationError, match="empty interior"):
        space.random_interior(rng, 6, 1)


def test_displacement_1mode_cached_read_only():
    d = displacement_1mode(0.3, 7)
    assert displacement_1mode(0.3, 7) is d
    assert not d.flags.writeable
    assert not np.iscomplexobj(d)  # real amplitude, real matrix
    assert np.iscomplexobj(displacement_1mode(0.3 + 0j, 7))


@pytest.mark.parametrize("mean", [0.3, 1.0, 2.5, 6.0])
@pytest.mark.parametrize("n_max", [2, 6, 12])
def test_coherent_tail_matches_poisson_sum(mean, n_max):
    n = np.arange(n_max + 1)
    kept = np.sum(np.exp(-mean) * mean**n / factorial(n))
    direct = 1.0 - kept
    got = coherent_tail(np.sqrt(mean) * np.exp(0.7j), n_max)
    # 1 - sum carries an absolute rounding error of a few machine epsilons
    assert abs(got - direct) < 1e-12 * direct + 1e-15


def test_coherent_tail_resolves_tiny_tails():
    # Poisson(0.01) above 12: the series starts at e^-0.01 0.01^13 / 13!,
    # far below the 1e-16 floor of 1 - sum(head)
    mean, n_max = 0.01, 12
    n = np.arange(n_max + 1, n_max + 8)
    want = np.sum(np.exp(-mean) * mean**n / factorial(n))
    got = coherent_tail(np.sqrt(mean), n_max)
    assert 0.0 < got < 1e-35
    assert abs(got - want) < 1e-12 * want
    # elementwise over an amplitude vector
    both = coherent_tail(np.array([np.sqrt(mean), 0.0]), n_max)
    assert both[0] == got and both[1] == 0.0


def test_coherent_truncation_reporting():
    space = _space([1.0], 6)
    with pytest.warns(TruncationWarning):
        _, err = coherent_state(space, np.array([2.5]))
    assert err > 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        _, err_small = coherent_state(space, np.array([0.1]))
    assert err_small < 1e-12


def test_weyl_guards():
    with pytest.raises(SizingError):
        weyl(_space([1.0, 1.0], 70), np.array([0.1, 0.1]))
    with pytest.raises(ValidationError):
        weyl(_space([1.0, 1.0], 4), np.array([0.1]))


def test_vacuum_only_space():
    """n_max 0 keeps the vacuum alone however many modes there are: the space
    of a model that only does coherent-cloud arithmetic."""
    space = _space(np.ones(24), 0)
    assert space.dim == 1 and space.occupations().shape == (1, 24)
    assert space.hb_diag().tolist() == [0.0]
    with pytest.raises(ValidationError):
        _space([1.0], -1)


def test_relative_field_bound_margin():
    # ||phi(f) psi|| <= (1/sqrt 2)(2 ||f/sqrt(omega)|| ||(H_b)^(1/2) psi|| + ||f||)
    space = _space([1.0, 0.2], 8)
    rng = np.random.default_rng(36)
    worst = -np.inf
    for _ in range(10):
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        worst = max(worst, relative_bound_check(space, f, n_trials=20, rng=rng))
    assert worst <= 1e-12
