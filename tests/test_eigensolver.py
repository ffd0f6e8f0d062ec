"""Eigensolver and ground-space clustering behaviour."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from hubbard_phonon.eigensolver import eigensolve, ground_space
from hubbard_phonon.errors import AmbiguousDegeneracyError, ValidationError
from hubbard_phonon.lang_firsov import effective_hamiltonians, reference_model
from hubbard_phonon.lattice_fermions import (
    HoppingMatrix,
    build_hubbard,
    build_sector_basis,
    build_spin_operators,
)
from hubbard_phonon.magnetism import build_tasaki_hopping


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


def test_ground_space_shift_invariance():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((40, 40))
    h = 0.5 * (a + a.T)
    r0 = ground_space(h)
    r1 = ground_space(h + 3.25 * np.eye(40))
    assert r1.degeneracy == r0.degeneracy
    assert abs((r1.e0 - r0.e0) - 3.25) < 1e-10


def test_ground_space_degenerate_cluster():
    h = np.diag([0.0, 0.0, 0.0, 1.0, 2.0])
    rep = ground_space(h)
    assert rep.degeneracy == 3
    assert rep.gap == 1.0
    # returned basis is orthonormal and spans the eigenspace
    g = rep.vectors
    assert np.allclose(g.T @ g, np.eye(3), atol=1e-12)
    assert np.max(np.abs(h @ g)) < 1e-12


def test_ground_space_grey_zone_raises():
    # a splitting equal to cluster_tol cannot be resolved either way
    h = np.diag([0.0, 1.0e-8, 1.0])
    with pytest.raises(AmbiguousDegeneracyError) as err:
        ground_space(h, cluster_tol=1e-8)
    assert err.value.suggested_tol < 1e-8
    # the suggestion resolves the ambiguity in both directions
    assert ground_space(h, cluster_tol=err.value.suggested_tol).degeneracy == 1
    assert ground_space(h, cluster_tol=1e-6).degeneracy == 2


def test_spin_labels():
    # one electron on one site: spin doublet, s = 1/2
    basis = build_sector_basis(1, 1)
    h = np.asarray(build_hubbard(basis, HoppingMatrix(np.zeros((1, 1))), 1.0))
    *_, s2 = build_spin_operators(basis)
    rep = ground_space(h, s_squared=s2)
    assert rep.degeneracy == 2
    assert rep.s_tot == 0.5


def test_spin_label_mixed():
    basis = build_sector_basis(2, 2)
    *_, s2 = build_spin_operators(basis)
    # zero Hamiltonian: ground space spans singlets and triplets
    rep = ground_space(np.zeros((basis.dim, basis.dim)), s_squared=s2)
    assert rep.degeneracy == basis.dim
    assert rep.s_tot == "mixed"


def test_spectrum_head_recorded():
    h = np.diag(np.arange(12, dtype=float))
    rep = ground_space(h)
    assert rep.spectrum_head[0] == 0.0
    assert len(rep.spectrum_head) == 10


# -- block-wise dense solves against an unsplit np.linalg.eigh ----------------


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


def test_single_block_is_bitwise_eigh():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((60, 60))
    h = a + a.T
    ref_vals, ref_vecs = np.linalg.eigh(h)
    for arg in (h, sp.csr_matrix(h)):
        vals, vecs = eigensolve(arg, k=60)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)


def test_rank_one_ground_space_matches_unsplit():
    # 6 sites, n_e 5: the S_z blocks are 6, 90, 300, 300, 90, 6 states
    amps = np.random.default_rng(7).uniform(0.5, 1.5, 6) * [1, -1, 1, 1, -1, 1]
    basis = build_sector_basis(6, 5)
    h = build_hubbard(basis, build_tasaki_hopping(1.0, amps), 1.0)
    *_, s2 = build_spin_operators(basis)
    rep = ground_space(h, s_squared=s2)
    assert rep.degeneracy == 6 and rep.s_tot == 2.5

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


def test_transformed_operator_passes_probe():
    ha = effective_hamiltonians(reference_model(n_max=3))
    vals, _ = eigensolve(ha.transformed, k=3, tol=1e-12)
    # the two routes differ by truncation only, ~2e-3 at n_max 3
    assert np.max(np.abs(vals - ha.direct_lowest(3, tol=1e-12))) < 1e-2
