"""Eigensolver and ground-space clustering behaviour."""

import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from hubbard_phonon import eigensolver
from hubbard_phonon.boson_fock import ModeSet, TruncatedFock
from hubbard_phonon.eigensolver import (
    DENSE_MAX,
    LANCZOS_K_RATIO,
    LANCZOS_MIN_DIM,
    eigensolve,
    ground_space,
)
from hubbard_phonon.errors import (
    AccuracyError,
    AmbiguousDegeneracyError,
    IterationLimitError,
    ValidationError,
)
from hubbard_phonon.lang_firsov import CoupledModel, effective_hamiltonians, reference_model
from hubbard_phonon.lattice_fermions import (
    HoppingMatrix,
    build_hubbard,
    build_sector_basis,
    build_spin_operators,
)
from hubbard_phonon.magnetism import build_tasaki_hopping, spin_ground_space

from fock_oracles import dense_transformed


def _random_sparse_sym(dim, density, seed):
    rng = np.random.default_rng(seed)
    m = sp.random(dim, dim, density=density, random_state=rng, format="csr")
    return (m + m.T) * 0.5


def test_dense_sparse_agree():
    h = _random_sparse_sym(300, 0.05, 11)
    vals, vecs = eigensolve(h, k=4)
    ref = np.linalg.eigvalsh(h.toarray())[:4]
    scale = np.max(np.abs(h.toarray()))
    assert np.max(np.abs(vals - ref)) <= 1e-9 * max(1.0, scale)
    # eigenpairs actually solve the problem
    for j in range(4):
        r = h @ vecs[:, j] - vals[j] * vecs[:, j]
        assert np.linalg.norm(r) < 1e-8


def test_iterative_path_agrees_with_dense():
    # force the ARPACK branch with a dim just above the dense cutoff
    h = _random_sparse_sym(4200, 0.002, 12) + sp.diags(np.linspace(0, 1, 4200))
    vals, _ = eigensolve(h, k=3, tol=1e-12)
    ref = np.linalg.eigvalsh(h.toarray())[:3]
    assert np.max(np.abs(vals - ref)) < 1e-8


def test_eigensolve_deterministic():
    h = _random_sparse_sym(4200, 0.002, 13)
    v1, w1 = eigensolve(h, k=3)
    v2, w2 = eigensolve(h, k=3)
    assert np.array_equal(v1, v2)
    assert np.array_equal(w1, w2)


def test_eigensolve_validation():
    with pytest.raises(ValidationError):
        eigensolve(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        eigensolve(np.eye(4), k=0)
    with pytest.raises(ValidationError):
        eigensolve(np.array([[0.0, 1.0], [0.5, 0.0]]))  # not Hermitian


def _one_space(h, **kwargs):
    """ground_space of ``h`` as the one block of a single spin-0 space."""
    space = SimpleNamespace(s=0.0, q=np.eye(h.shape[0]))
    return ground_space([h], [space], **kwargs)


def test_ground_space_shift_invariance():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((40, 40))
    h = 0.5 * (a + a.T)
    r0 = _one_space(h)
    r1 = _one_space(h + 3.25 * np.eye(40))
    assert r1.degeneracy == r0.degeneracy
    assert abs((r1.e0 - r0.e0) - 3.25) < 1e-10


def test_ground_space_degenerate_cluster():
    h = np.diag([0.0, 0.0, 0.0, 1.0, 2.0])
    rep = _one_space(h)
    assert rep.degeneracy == 3
    # returned basis is orthonormal and spans the eigenspace
    g = rep.vectors
    assert np.allclose(g.T @ g, np.eye(3), atol=1e-12)
    assert np.max(np.abs(h @ g)) < 1e-12


def test_ground_space_grey_zone_raises():
    # a splitting equal to cluster_tol cannot be resolved either way
    h = np.diag([0.0, 1.0e-8, 1.0])
    with pytest.raises(AmbiguousDegeneracyError) as err:
        _one_space(h, cluster_tol=1e-8)
    assert err.value.suggested_tol < 1e-8
    # the suggestion resolves the ambiguity in both directions
    assert _one_space(h, cluster_tol=err.value.suggested_tol).degeneracy == 1
    assert _one_space(h, cluster_tol=1e-6).degeneracy == 2


def test_spin_labels():
    # one electron on one site: spin doublet, s = 1/2
    basis = build_sector_basis(1, 1)
    h = build_hubbard(basis, HoppingMatrix(np.zeros((1, 1))), 1.0)
    rep = spin_ground_space(h, basis)
    assert rep.degeneracy == 2
    assert rep.s_tot == 0.5
    assert rep.spins == (0.5,)


def test_spin_label_mixed():
    basis = build_sector_basis(2, 2)
    # zero Hamiltonian: ground space spans singlets and triplets
    rep = spin_ground_space(sp.csr_matrix((basis.dim, basis.dim)), basis)
    assert rep.degeneracy == basis.dim
    assert rep.s_tot == "mixed"
    assert sorted(rep.spins) == [0.0, 0.0, 0.0, 1.0]


def test_ground_space_keeps_each_spin_energy_within_a_cluster():
    """An S = 1 level 1e-10 below an S = 0 level: one cluster of 1 + 3
    states, each spin at its own energy in the merged levels."""
    spaces = [SimpleNamespace(s=0.0, q=np.eye(2)), SimpleNamespace(s=1.0, q=np.eye(2))]
    rep = ground_space([np.diag([1e-10, 1.0]), np.diag([0.0, 2.0])], spaces=spaces)
    assert rep.e0 == 0.0 and rep.degeneracy == 4
    assert rep.spins == (0.0, 1.0) and rep.s_tot == "mixed"


def test_levels_too_inaccurate_to_cluster_are_refused():
    """eps ||H|| above the grey zone's floor: no clustering can be trusted."""
    with pytest.raises(AccuracyError, match="grey-zone floor"):
        _one_space(np.diag([0.0, 1.0, 1.0e12]))
    # eps ||H|| over the floor at cluster_tol 1e-8, recorded: 6.0e-8 on the
    # reference effective Hamiltonian, 1.4e-6 on the ferro6 benchmark's
    # 6-site rank-one model (seed-1 amplitudes, u_eff 1)
    rng = np.random.default_rng(1)
    amps = rng.uniform(0.5, 1.5, 6) * rng.choice([-1.0, 1.0], 6)
    for h, want in (
        (reference_model(n_max=2).effective_electronic(), 6.0e-8),
        (build_hubbard(build_sector_basis(6, 5), build_tasaki_hopping(1.0, amps), 1.0), 1.4e-6),
    ):
        e0 = _one_space(h).e0
        ratio = np.finfo(float).eps * abs(h).sum(axis=1).max() / (0.5e-8 * max(1.0, abs(e0)))
        assert abs(ratio / want - 1.0) < 0.05


def test_twelvefold_ground_level_outgrows_the_first_solve():
    """The first solve's 10 levels all lie in the ground cluster; the doubled
    solve finds its end."""
    rep = _one_space(np.diag([0.0] * 12 + [1.0] * 20))
    assert rep.degeneracy == 12


# -- the Cholesky screen of ground_space(lead=...) ------------------------------


def _rotated(levels, seed):
    """A dense symmetric block with the given levels, in a seeded basis."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((len(levels), len(levels))))[0]
    h = (q * np.asarray(levels, dtype=float)) @ q.T
    return 0.5 * (h + h.T)


def _two_spins(n0, n1):
    """An S = 1/2 and an S = 3/2 space, side by side in n0 + n1 configurations."""
    eye = np.eye(n0 + n1)
    return [SimpleNamespace(s=0.5, q=eye[:, :n0]), SimpleNamespace(s=1.5, q=eye[:, n0:])]


def _counted(monkeypatch):
    calls = []
    real = eigensolver.eigensolve

    def counting(h, *args, **kwargs):
        calls.append(h.shape[0])
        return real(h, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "eigensolve", counting)
    return calls


@pytest.mark.parametrize(
    "other, solves, s_tot",
    [
        ([0.5, 3.0, 4.0, 5.0, 6.0], 2, 1.5),  # the other spin holds the ground level
        ([1.0, 3.0, 4.0, 5.0, 6.0], 2, "mixed"),  # a level degenerate with e0
        ([1.0 + 1e-10, 3.0, 4.0, 5.0, 6.0], 2, "mixed"),  # inside the cluster
        ([1.0 + 1e-6, 3.0, 4.0, 5.0, 6.0], 1, 0.5),  # above the grey zone: screened
        ([5.0, 6.0, 7.0, 8.0, 9.0], 1, 0.5),
    ],
)
def test_lead_screen_matches_the_full_solve(monkeypatch, other, solves, s_tot):
    """With ``lead`` the other spin is solved unless a Cholesky factorization
    proves it empty; the report is the one without ``lead`` (e0 bitwise)."""
    blocks = [_rotated([1.0, 2.0, 2.5, 3.5, 4.0, 5.0], 1), _rotated(other, 2)]
    spaces = _two_spins(6, 5)
    full = ground_space(blocks, spaces)
    calls = _counted(monkeypatch)
    rep = ground_space(blocks, spaces, lead=0)
    assert len(calls) == solves
    assert rep.e0 == full.e0 and rep.s_tot == full.s_tot == s_tot
    assert (rep.degeneracy, rep.spins) == (full.degeneracy, full.spins)
    assert np.array_equal(rep.vectors, full.vectors)


@pytest.mark.parametrize("rel", [0.6e-8, 1.0e-8, 1.9e-8])
def test_lead_screen_keeps_grey_zone_levels(rel):
    """A level of another spin inside the grey zone raises exactly as
    without ``lead``: the screen's sigma lies above the zone's top."""
    blocks = [_rotated([-1.0, 1.0, 2.0, 3.0], 3), _rotated([-1.0 + rel, 2.0, 3.0], 4)]
    spaces = _two_spins(4, 3)
    with pytest.raises(AmbiguousDegeneracyError) as full:
        ground_space(blocks, spaces)
    with pytest.raises(AmbiguousDegeneracyError) as led:
        ground_space(blocks, spaces, lead=0)
    assert str(led.value) == str(full.value)


@pytest.mark.parametrize("over, solves", [(0.5, 2), (2.0, 1)])
def test_lead_screen_margin(monkeypatch, over, solves):
    """A level above the grey zone's top by less than the Cholesky margin
    n (n + 1) eps (||H|| + |top|) is solved, one twice the margin up is not.
    Diagonal blocks keep the levels exact."""
    top = 2.0e-8  # e0 = 0
    n, norm = 6, 3.0
    margin = n * (n + 1) * np.finfo(float).eps * (norm + top)
    blocks = [np.diag([0.0, 1.0, 2.0]), np.diag([top + over * margin, 1.0, 1.0, 2.0, 2.0, norm])]
    calls = _counted(monkeypatch)
    rep = ground_space(blocks, _two_spins(3, 6), lead=0)
    assert len(calls) == solves
    assert rep.e0 == 0.0 and rep.degeneracy == 2 and rep.s_tot == 0.5


def test_lead_screen_always_solves_sparse_blocks(monkeypatch):
    """A block above DENSE_MAX is solved however high its levels lie."""
    monkeypatch.setattr(eigensolver, "DENSE_MAX", 4)
    calls = _counted(monkeypatch)
    blocks = [sp.diags(np.arange(8.0)).tocsr(), sp.diags(np.arange(8.0) + 10.0).tocsr()]
    rep = ground_space(blocks, _two_spins(8, 8), lead=0)
    assert calls == [8, 8]
    assert rep.e0 == 0.0


# -- dense solves of block-structured matrices against np.linalg.eigh ---------


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    repeat=st.booleans(),
    hermitian=st.booleans(),
    sparse_input=st.booleans(),
)
def test_blockwise_matches_unsplit_eigh(sizes, seed, repeat, hermitian, sparse_input):
    rng = np.random.default_rng(seed)
    blocks = []
    for n in sizes:
        a = rng.standard_normal((n, n))
        if hermitian:
            a = a + 1j * rng.standard_normal((n, n))
        blocks.append(a + a.conj().T)
    if repeat:
        blocks.append(blocks[0])  # exact degeneracy across blocks
    h = sla.block_diag(*blocks)
    perm = rng.permutation(h.shape[0])
    h = h[np.ix_(perm, perm)]
    dim = h.shape[0]

    vals, vecs = eigensolve(sp.csr_matrix(h) if sparse_input else h, k=dim)
    ref = np.linalg.eigh(h)[0]
    scale = max(1.0, np.linalg.norm(h, 2))
    assert np.max(np.abs(vals - ref)) <= 1e-12 * scale
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) <= 1e-12
    residual = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
    assert np.max(residual) <= 1e-10 * scale


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 100),
    straddle=st.booleans(),
    hermitian=st.booleans(),
    sparse_input=st.booleans(),
)
def test_partial_dense_solve_matches_eigh(sizes, seed, k, straddle, hermitian, sparse_input):
    """The lowest k pairs of a dense solve, k from 1 to dim; with
    ``straddle`` a level of the first block repeats exactly in a copy of it,
    one copy the k-th level and the other the (k+1)-th."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n in sizes:
        a = rng.standard_normal((n, n))
        if hermitian:
            a = a + 1j * rng.standard_normal((n, n))
        blocks.append(a + a.conj().T)
    if straddle:
        blocks.append(blocks[0])
    h = sla.block_diag(*blocks)
    perm = rng.permutation(h.shape[0])
    h = h[np.ix_(perm, perm)]
    dim = h.shape[0]
    ref = np.linalg.eigh(h)[0]
    scale = max(1.0, np.linalg.norm(h, 2))
    k = 1 + (k - 1) % dim
    if straddle:
        level = np.linalg.eigvalsh(blocks[0])[k % sizes[0]]
        k = 1 + int(np.sum(ref < level - 1e-9 * scale))
        assert abs(ref[k] - ref[k - 1]) <= 1e-12 * scale

    vals, vecs = eigensolve(sp.csr_matrix(h) if sparse_input else h, k=k)
    assert vals.shape == (k,) and vecs.shape == (dim, k)
    assert np.max(np.abs(vals - ref[:k])) <= 1e-12 * scale
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(k))) <= 1e-12
    residual = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
    assert np.max(residual) <= 1e-10 * scale


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("k", [1, 19, 20])
def test_non_finite_matrix_raises_linalg_error(bad, k):
    """Partial and full dense solves, and the Lanczos check, all refuse a
    non-finite entry with LinAlgError; a lone NaN on the diagonal is one
    that ``np.linalg.eigh`` itself passes without raising."""
    h = np.eye(20)
    h[3, 3] = bad
    for arg in (h, sp.csr_matrix(h)):
        with pytest.raises(np.linalg.LinAlgError):
            eigensolve(arg, k=k)
    big = sp.eye(600, format="lil")
    big[3, 3] = bad
    with pytest.raises(np.linalg.LinAlgError):
        eigensolve(big.tocsr(), k=1)


def test_single_block_is_bitwise_eigh():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((60, 60))
    h = a + a.T
    ref_vals, ref_vecs = np.linalg.eigh(h)
    for arg in (h, sp.csr_matrix(h)):
        vals, vecs = eigensolve(arg, k=60)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)


def test_sparse_input_densified_by_block_is_bitwise_dense():
    """Sparse input of any format is densified once and solves to the arrays
    its dense form does."""
    rng = np.random.default_rng(16)
    blocks = [a + a.T for a in (rng.standard_normal((n, n)) for n in (3, 7, 5))]
    h = sla.block_diag(*blocks)
    perm = rng.permutation(h.shape[0])
    h = h[np.ix_(perm, perm)]
    ref_vals, ref_vecs = eigensolve(h, k=h.shape[0])
    for fmt in (sp.csr_matrix, sp.coo_matrix, sp.dia_matrix):
        vals, vecs = eigensolve(fmt(h), k=h.shape[0])
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)


def test_rank_one_ground_space_matches_unsplit():
    # 6 sites, n_e 5: spin spaces of 210, 84 and 6 states, against the
    # whole sector's 792 under an unsplit eigh, labelled by S^2
    amps = np.random.default_rng(7).uniform(0.5, 1.5, 6) * [1, -1, 1, 1, -1, 1]
    basis = build_sector_basis(6, 5)
    h = build_hubbard(basis, build_tasaki_hopping(1.0, amps), 1.0)
    *_, s2 = build_spin_operators(basis)
    rep = spin_ground_space(h, basis)
    assert rep.degeneracy == 6 and rep.s_tot == 2.5
    v = rep.vectors[:, 0]  # the highest-weight ground vector, lifted
    assert np.linalg.norm(h @ v - rep.e0 * v) <= 1e-12
    assert abs(v @ (s2 @ v) - 2.5 * 3.5) <= 1e-12

    dense = h.toarray() if sp.issparse(h) else h
    vals, vecs = np.linalg.eigh(dense)
    deg = int(np.sum(vals - vals[0] <= 1e-8 * max(1.0, abs(vals[0]))))
    s2_ground = np.einsum("ij,ij->j", vecs[:, :deg], s2 @ vecs[:, :deg])
    assert deg == rep.degeneracy
    assert np.allclose(s2_ground, 2.5 * 3.5, atol=1e-8)
    assert abs(rep.e0 - vals[0]) <= 1e-12


# -- Hermiticity probe of linear operators ------------------------------------


def test_non_hermitian_operator_rejected():
    a = np.triu(np.random.default_rng(16).standard_normal((30, 30)))
    op = spla.LinearOperator((30, 30), matvec=lambda x: a @ x, dtype=float)
    with pytest.raises(ValidationError, match="not Hermitian"):
        eigensolve(op, k=2)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("dim", [600, 20])
def test_non_finite_operator_is_refused_like_a_matrix(bad, dim):
    """An operator whose matvec returns a non-finite value is refused with
    the error a matrix with a non-finite entry gets, on the Lanczos path and
    on the dense one an operator asked for dim - 1 levels takes.  Unrefused,
    the Lanczos bounds run would end in eigh_tridiagonal's ValueError."""
    h = np.eye(dim)
    h[3, 3] = bad
    op = spla.LinearOperator((dim, dim), matvec=lambda x: h @ x, dtype=float)
    k = 1 if dim == 600 else dim - 1
    errors = []
    for arg in (op, h, sp.csr_matrix(h)):
        with pytest.raises(np.linalg.LinAlgError) as err:
            eigensolve(arg, k=k)
        errors.append(str(err.value))
    assert errors == ["matrix has non-finite entries"] * 3


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the Lanczos norm
def test_finite_operator_near_1e200_is_not_refused_as_non_finite():
    """Values near 1e200 are finite, though their squares are not: the input
    check passes them without a warning, the dense path an operator asked
    for dim - 1 levels takes solves them, and the Lanczos path, whose norms
    square them, refuses them with an OverflowError."""
    h = np.diag(np.linspace(1.0, 2.0, 600)) * 1e200
    op = spla.LinearOperator(h.shape, matvec=lambda x: h @ x, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eigensolver._check_input(op)
    with pytest.raises(OverflowError, match="too large for double arithmetic"):
        eigensolve(op, k=1)
    small = spla.LinearOperator((20, 20), matvec=lambda x: h[:20, :20] @ x, dtype=float)
    vals, _ = eigensolve(small, k=19)
    assert np.allclose(vals, np.diag(h)[:19], rtol=1e-14, atol=0.0)


def test_transformed_operator_passes_probe():
    ha = effective_hamiltonians(reference_model(n_max=3))
    vals, _ = eigensolve(ha.transformed(0.0), k=3, tol=1e-12)
    # the S = 0 active operator, assembled entry by entry; the assembly
    # carries H_e - alpha^2 R, the operator H_e - alpha^2 R_active, so the
    # two differ by the shift
    lift = sp.kron(ha.sectors[0.0].basis.q, sp.identity(ha.active.dim)).toarray()
    dense = np.linalg.eigvalsh(lift.T @ dense_transformed(ha) @ lift)
    assert np.max(np.abs(vals + ha.shift - dense[:3])) <= 1e-10
    # with the free modes' ladder and shift on both sides the two routes
    # differ by truncation only
    occupations = itertools.product(range(3), repeat=ha.free_freqs.size)
    ladder = [np.dot(n, ha.free_freqs) + ha.shift for n in occupations]
    merged = np.sort(np.add.outer(vals, ladder).ravel())[:3]
    direct, _ = eigensolve(ha.direct(0.0), k=3, tol=1e-12)
    direct = np.sort(np.add.outer(direct, ladder).ravel())[:3]
    assert np.max(np.abs(merged - direct)) < 1e-2


# -- the dense/iterative crossover ---------------------------------------------


def _spy_eigsh(monkeypatch):
    """Record every ``which`` that ``spla.eigsh`` is called with."""
    calls, real = [], spla.eigsh

    def eigsh(*args, **kwargs):
        calls.append(kwargs.get("which"))
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", eigsh)
    return calls


def test_crossover_reads_k_and_dim(monkeypatch):
    solves = _spy_eigsh(monkeypatch)
    dim = 600
    assert LANCZOS_MIN_DIM <= dim <= DENSE_MAX
    h = _random_sparse_sym(dim, 0.01, 17)
    ref = np.linalg.eigvalsh(h.toarray())

    vals, _ = eigensolve(h, k=4)  # few levels of a sparse matrix: Lanczos
    assert solves == ["LA"]
    assert np.max(np.abs(vals - ref[:4])) <= 1e-10

    k_dense = dim // LANCZOS_K_RATIO + 1
    vals, _ = eigensolve(h, k=k_dense)  # too many levels: dense
    assert np.max(np.abs(vals - ref[:k_dense])) <= 1e-10
    eigensolve(h.toarray(), k=4)  # dense input stays dense
    eigensolve(_random_sparse_sym(LANCZOS_MIN_DIM - 1, 0.01, 18), k=1)
    assert _one_space(h).degeneracy == 1  # full spectrum: dense
    assert solves == ["LA"]


def test_direct_levels_below_dense_max_take_lanczos(monkeypatch):
    # four modes of distinct frequencies split no shell, so the direct
    # route keeps the whole box: at n_max 4 the spin spaces hold 1,875
    # (S = 0) and 625 (S = 1) states
    model = CoupledModel(
        build_sector_basis(2, 2),
        HoppingMatrix.chain(2, -1.0),
        1.0,
        0.5,
        TruncatedFock(ModeSet([0.6, 0.9, 1.2, 1.5]), 4),
        [[0.7, 0.3, 0.0, 0.0], [0.0, 0.0, 0.6, 0.4]],
    )
    ha = effective_hamiltonians(model)
    assert ha.free_freqs.size == 0
    plain = []  # oracle: unfiltered ARPACK on each spin's box
    for s in ha.sectors:
        h = ha.direct(s)
        assert LANCZOS_MIN_DIM <= h.shape[0] <= DENSE_MAX
        vals = spla.eigsh(h, k=3, which="SA", v0=np.ones(h.shape[0]), return_eigenvectors=False)
        plain += list(np.repeat(vals, int(round(2 * s + 1))))
    solves = _spy_eigsh(monkeypatch)
    levels = ha.direct_lowest(3)
    assert solves == ["LA", "LA"]
    assert np.max(np.abs(levels - np.sort(plain)[:3])) <= 1e-10


def test_reference_direct_blocks_split_at_the_crossover(monkeypatch):
    """On the reference model at n_max 12 the direct route's S = 0 block
    (507 states, 6 levels) lies above LANCZOS_MIN_DIM and takes the filtered
    Lanczos path, while the S = 1 block (169 states) stays dense; the levels
    equal those of a dense eigh of every block."""
    ha = effective_hamiltonians(reference_model(n_max=0), 12)
    assert sorted(ha.direct(s).shape[0] for s in ha.sectors) == [169, 507]
    lanczos, dense = [], []
    real_lanczos, real_eigh = eigensolver._filtered_lanczos, sla.eigh

    def spy_lanczos(h, k, tol):
        lanczos.append(h.shape[0])
        return real_lanczos(h, k, tol)

    def spy_eigh(a, **kwargs):
        dense.append(a.shape[0])
        return real_eigh(a, **kwargs)

    monkeypatch.setattr(eigensolver, "_filtered_lanczos", spy_lanczos)
    monkeypatch.setattr(sla, "eigh", spy_eigh)
    levels = ha.direct_lowest(5)
    assert (lanczos, dense) == ([507], [169])
    monkeypatch.setattr(eigensolver, "LANCZOS_MIN_DIM", DENSE_MAX + 1)  # every block dense
    assert np.max(np.abs(levels - ha.direct_lowest(5))) <= 1e-12
    assert (lanczos, sorted(dense)) == ([507], [169, 169, 507])


# -- the Chebyshev-filtered Lanczos path against eigvalsh ----------------------


def _planted(dim, seed, hermitian, copies, outlier):
    """Sparse Hermitian matrix: a random bulk, ``copies`` copies of a 3 x 3
    block well below it (a degenerate low cluster) and, if ``outlier``, one
    level far above it; rows and columns randomly permuted."""
    rng = np.random.default_rng(seed)
    n_bulk = dim - 3 * copies - int(outlier)
    m = sp.random(n_bulk, n_bulk, density=6.0 / n_bulk, random_state=rng)
    if hermitian:
        m = m + 1j * sp.random(n_bulk, n_bulk, density=6.0 / n_bulk, random_state=rng)
    a = rng.standard_normal((3, 3))
    low = a + a.T - 8.0 * np.eye(3)
    blocks = [m + m.conj().T] + [low] * copies + ([[[60.0]]] if outlier else [])
    h = sp.block_diag(blocks, format="csr")
    perm = rng.permutation(dim)
    return h[perm][:, perm]


def _check_pairs(h, vals, vecs, k):
    ref = np.linalg.eigvalsh(h.toarray())
    scale = max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(vals - ref[:k])) <= 1e-10 * scale
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(k))) <= 1e-10
    residual = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
    assert np.max(residual) <= eigensolver.RESIDUAL_TOL * scale


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(LANCZOS_MIN_DIM, 800),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    hermitian=st.booleans(),
    copies=st.integers(1, 3),
    outlier=st.booleans(),
)
def test_filtered_lanczos_matches_eigvalsh(dim, k, seed, hermitian, copies, outlier):
    h = _planted(dim, seed, hermitian, copies, outlier)
    vals, vecs = eigensolve(h, k=k)
    _check_pairs(h, vals, vecs, k)


@pytest.mark.parametrize("hermitian", [False, True])
def test_level_above_hi_is_caught_and_recovered(monkeypatch, hermitian):
    # hi forced below the outlier at 60, where the even filter grows too:
    # the first solve returns it, the check moves hi past it
    h = _planted(700, 21, hermitian, copies=2, outlier=True)
    real_bounds = eigensolver._spectrum_bounds

    def bounds(matvec, v0, k):
        lo, cut, hi = real_bounds(matvec, v0, k)
        assert hi > 60.0
        return lo, cut, 30.0

    monkeypatch.setattr(eigensolver, "_spectrum_bounds", bounds)
    solves = _spy_eigsh(monkeypatch)
    vals, vecs = eigensolve(h, k=5)
    assert len(solves) == 2
    _check_pairs(h, vals, vecs, 5)


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("k", [1, 3, 6])
def test_cut_below_the_kth_level_is_caught_and_recovered(monkeypatch, hermitian, k):
    # white box: the bounds run's cut replaced by one just below lambda_k
    h = _planted(120, 22 + k, hermitian, copies=1, outlier=False)
    ref = np.linalg.eigvalsh(h.toarray())
    real_bounds = eigensolver._spectrum_bounds

    def bounds(matvec, v0, kk):
        lo, _, hi = real_bounds(matvec, v0, kk)
        return lo, ref[k - 1] - 1e-3, hi

    monkeypatch.setattr(eigensolver, "_spectrum_bounds", bounds)
    solves = _spy_eigsh(monkeypatch)
    vals, vecs = eigensolve(spla.aslinearoperator(h), k=k)
    assert len(solves) >= 2
    _check_pairs(h, vals, vecs, k)


def _hair_above(monkeypatch, k, hermitian):
    """A 120-state matrix whose bounds run is made to return a cut 1e-9
    above lambda_k, and the ``maxiter`` of every ``eigsh`` call that stalls."""
    h = _planted(120, 32 + k, hermitian, copies=1, outlier=False)
    ref = np.linalg.eigvalsh(h.toarray())
    assert ref[k] - ref[k - 1] > 1e-3
    real_bounds = eigensolver._spectrum_bounds

    def bounds(matvec, v0, kk):
        lo, _, hi = real_bounds(matvec, v0, kk)
        return lo, ref[k - 1] + 1e-9, hi

    monkeypatch.setattr(eigensolver, "_spectrum_bounds", bounds)
    stalled, real = [], spla.eigsh

    def eigsh(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except spla.ArpackNoConvergence:
            stalled.append(kwargs["maxiter"])
            raise

    monkeypatch.setattr(spla, "eigsh", eigsh)
    return h, stalled


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("k", [2, 3, 6])
def test_cut_a_hair_above_the_kth_level_is_caught_and_recovered(
    monkeypatch, hermitian, k
):
    # p(lambda_k) sits barely above p(lambda_k+1) and the damped band: the
    # capped first attempt stalls, and the widened one converges
    h, stalled = _hair_above(monkeypatch, k, hermitian)
    vals, vecs = eigensolve(spla.aslinearoperator(h), k=k)
    assert stalled == [eigensolver.FILTER_PROBE_ITERS]
    _check_pairs(h, vals, vecs, k)


def test_iteration_limit_raises_on_the_last_attempt_only(monkeypatch):
    # every ARPACK solve stalls; only the last attempt, run to ARPACK's
    # default iteration limit, raises
    stalled = []

    def eigsh(*args, **kwargs):
        stalled.append(kwargs["maxiter"])
        raise spla.ArpackNoConvergence("stalled", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(eigensolver.spla, "eigsh", eigsh)
    h = _planted(120, 35, False, copies=1, outlier=False)
    with pytest.raises(IterationLimitError, match="converged only 0/3"):
        eigensolve(spla.aslinearoperator(h), k=3)
    probe = eigensolver.FILTER_PROBE_ITERS
    assert stalled == [probe] * eigensolver.FILTER_RETRIES + [None]


def test_filter_failure_raises_accuracy_error(monkeypatch):
    # no residual meets a zero bound: every widening fails, then it raises
    monkeypatch.setattr(eigensolver, "RESIDUAL_TOL", 0.0)
    solves = _spy_eigsh(monkeypatch)
    h = _planted(120, 23, False, copies=1, outlier=False)
    with pytest.raises(AccuracyError, match="filtered Lanczos"):
        eigensolve(spla.aslinearoperator(h), k=2)
    assert len(solves) == eigensolver.FILTER_RETRIES + 1
