"""Fermion sector basis, operator algebra and Hubbard assembly checks.

Oracles here are worked by hand: binomial dimensions, the exact two-site
ground energy U/2 - sqrt((U/2)^2 + 4t^2), and canonical anticommutation
relations evaluated on the full Fock space of a small lattice.  The
array-wide sign kernel is also held to a word-at-a-time oracle: scalar
c and c+ on one bit word, and the operator loops built on them.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hubbard_phonon.errors import SizingError, ValidationError
from hubbard_phonon.lattice_fermions import (
    HoppingMatrix,
    build_hubbard,
    build_sector_basis,
    build_spin_operators,
    fock_operator,
    hopping_moves,
    number_operators,
    s_max,
    spin_spaces,
)


def test_sector_dimensions():
    # dim of the fixed-N_e sector is C(2*n_sites, n_e)
    import math

    for n_sites, n_e in [(1, 1), (2, 2), (3, 2), (4, 4), (3, 5)]:
        basis = build_sector_basis(n_sites, n_e)
        assert basis.dim == math.comb(2 * n_sites, n_e)
        # states sorted ascending, so searchsorted is the inverse map
        assert basis.states.dtype == np.int64
        assert list(basis.states) == sorted(basis.states)
        assert np.array_equal(
            np.searchsorted(basis.states, basis.states), np.arange(basis.dim)
        )


def test_sector_occupations_sum():
    basis = build_sector_basis(3, 4)
    occ = basis.occupations()
    assert occ.shape == (basis.dim, 3)
    assert np.all(occ.sum(axis=1) == 4)


def test_occupations_beyond_64_bit_words():
    # 40 sites take 80-bit words; occupation tables must not overflow
    basis = build_sector_basis(40, 2)
    up, dn = basis.spin_occupations()
    assert np.all(up.sum(axis=1) + dn.sum(axis=1) == 2)
    # the largest word fills orbitals 78 and 79: site 39, both spins
    assert up[-1, 39] == 1 and dn[-1, 39] == 1
    # words of 63 or more bits are exact Python integers
    assert basis.states.dtype == object and basis.states[-1] == 3 << 78


def test_sector_cap():
    with pytest.raises(SizingError):
        build_sector_basis(12, 12)  # C(24,12) ~ 2.7e6


def test_electron_count_validation():
    with pytest.raises(ValidationError):
        build_sector_basis(2, 5)
    with pytest.raises(ValidationError):
        build_sector_basis(2, -1)


def test_creation_sign_convention():
    # orbital p = 2x + s; the sign is the parity of occupied orbitals below p
    cd = fock_operator(2, 1, 0)  # c+ of orbital 2; the Fock row is the word
    assert cd[0b100, 0] == 1  # create in orbital 2 of the empty word
    assert cd[0b101, 0b1] == -1  # one occupied orbital below
    # double creation in the same orbital is forbidden
    assert not cd[:, 0b100].any()
    # annihilating an empty orbital is forbidden
    assert not fock_operator(2, 0, 0, dagger=False)[:, 0].any()


def test_hopping_sign_convention():
    # 2-site chain, t = -1, n_e = 2: from word 0b0011 (site 0 doubly
    # occupied) the up electron hops by c+_2 c_0, sign (+1)(-1) (orbital 1
    # is below 2 after c_0), and the down one by c+_3 c_1, sign (-1)(-1)
    basis = build_sector_basis(2, 2)
    x, y, src, dst, amp = hopping_moves(basis, HoppingMatrix.chain(2, t=-1.0))
    first = [tuple(a[:2].tolist()) for a in (x, y, src, dst, amp)]
    assert first == [(1, 1), (0, 0), (0, 0), (2, 3), (1.0, -1.0)]
    assert basis.states[2] == 0b0110 and basis.states[3] == 0b1001


def test_creation_anticommutes():
    # c_p^+ c_q^+ = - c_q^+ c_p^+ for p != q, checked on the empty word
    orbitals = [(x, s) for x in range(2) for s in range(2)]
    cds = {o: fock_operator(2, *o) for o in orbitals}
    for p, q in itertools.combinations(orbitals, 2):
        a = (cds[p] @ cds[q])[:, 0]
        b = (cds[q] @ cds[p])[:, 0]
        assert np.count_nonzero(a) == 1
        assert np.array_equal(a, -b)


def test_car_full_fock_two_sites():
    """{c_p, c_q^+} = delta_pq and {c_p, c_q} = 0 on the 16-dim Fock space."""
    n_sites = 2
    dim = 4**n_sites
    orbitals = [(x, s) for x in range(n_sites) for s in range(2)]
    cs = {o: fock_operator(n_sites, *o, dagger=False) for o in orbitals}
    cds = {o: fock_operator(n_sites, *o, dagger=True) for o in orbitals}
    eye = np.eye(dim)
    worst = 0.0
    for p in orbitals:
        for q in orbitals:
            acc = cs[p] @ cds[q] + cds[q] @ cs[p]
            target = eye if p == q else 0.0
            worst = max(worst, np.max(np.abs(acc - target)))
            worst = max(worst, np.max(np.abs(cs[p] @ cs[q] + cs[q] @ cs[p])))
    assert worst <= 1e-14


def test_fock_operator_refuses_large():
    with pytest.raises(SizingError):
        fock_operator(5, 0, 0)


def test_two_site_ground_energy():
    # half filling, t = -1, U = -1: e0 = U/2 - sqrt((U/2)^2 + 4 t^2)
    basis = build_sector_basis(2, 2)
    h = build_hubbard(basis, HoppingMatrix.chain(2, t=-1.0), -1.0)
    vals = np.linalg.eigvalsh(h.toarray())
    exact = -0.5 - np.sqrt(4.25)
    assert abs(vals[0] - exact) < 1e-12


def test_hubbard_hermitian_random_hopping():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    hop = HoppingMatrix(0.5 * (a + a.T))
    basis = build_sector_basis(4, 3)
    h = build_hubbard(basis, hop, 0.7).toarray()
    assert np.max(np.abs(h - h.T)) == 0.0


def test_diagonal_hopping_is_site_potential():
    # t_xx enters as an on-site energy: for one electron the spectrum of H
    # must equal the spectrum of the hopping matrix itself
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    hop = HoppingMatrix(0.5 * (a + a.T))
    basis = build_sector_basis(3, 1)
    h = build_hubbard(basis, hop, 123.0).toarray()  # U irrelevant at N_e=1
    got = np.sort(np.linalg.eigvalsh(h))
    want = np.sort(np.repeat(np.linalg.eigvalsh(hop.mat), 2))  # spin doubling
    assert np.max(np.abs(got - want)) < 1e-12


def test_spin_spectrum_two_site():
    basis = build_sector_basis(2, 2)
    *_, s2 = build_spin_operators(basis)
    vals = np.sort(np.linalg.eigvalsh(s2.toarray()))
    # three singlets and one triplet: S(S+1) in {0, 2}
    assert np.allclose(vals, [0, 0, 0, 2, 2, 2], atol=1e-12)


def test_hubbard_commutes_with_spin():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    hop = HoppingMatrix(0.5 * (a + a.T))
    basis = build_sector_basis(3, 3)
    h = build_hubbard(basis, hop, -0.8).toarray()
    sx, sy, sz, s2 = (m.toarray() for m in build_spin_operators(basis))
    for op in (sx, sy, sz, s2):
        assert np.max(np.abs(h @ op - op @ h)) < 1e-12


def test_spin_operators_consistent():
    basis = build_sector_basis(2, 2)
    sx, sy, sz, s2 = (m.toarray() for m in build_spin_operators(basis))
    recon = sx @ sx + (sy @ sy).real + sz @ sz
    assert np.max(np.abs(recon - s2)) < 1e-12


def test_number_identity():
    # sum_x n_x^2 = N_e + 2 * sum_x n_x+ n_x- holds configuration-wise
    basis = build_sector_basis(3, 4)
    occ, docc = number_operators(basis)
    assert np.max(np.abs((occ**2).sum(axis=0) - 4 - 2 * docc)) == 0.0


def test_hopping_validation_and_connectivity():
    with pytest.raises(ValidationError):
        HoppingMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))
    assert HoppingMatrix.chain(4).connected
    blocks = np.zeros((4, 4))
    blocks[0, 1] = blocks[1, 0] = 1.0
    blocks[2, 3] = blocks[3, 2] = 1.0
    assert not HoppingMatrix(blocks).connected


def test_s_max_values():
    assert s_max(3, 4) == 1.5
    assert s_max(6, 4) == 1.0
    assert s_max(2, 2) == 1.0
    assert s_max(4, 2) == 0.0


# -- spin spaces, with S^2 on the whole sector as the oracle ---------------------


@pytest.mark.parametrize(
    "n_sites, n_e, dims",
    [(2, 2, [3, 1]), (3, 2, [6, 3]), (3, 3, [8, 1]), (4, 4, [20, 15, 1]),
     (4, 3, [20, 4]), (6, 5, [210, 84, 6])],
)
def test_spin_spaces_are_highest_weight_isometries(n_sites, n_e, dims):
    basis = build_sector_basis(n_sites, n_e)
    sx, sy, sz, s2 = (m.toarray() for m in build_spin_operators(basis))
    splus = (sx + 1j * sy).real
    occ = basis.occupations()
    spaces = spin_spaces(basis)
    assert [space.dim for space in spaces] == dims
    assert [space.s for space in spaces] == [
        (n_e % 2) / 2 + i for i in range(len(dims))
    ]
    for space in spaces:
        q = space.q.toarray()
        assert np.max(np.abs(q.T @ q - np.eye(space.dim))) <= 1e-12
        assert np.max(np.abs(splus @ q)) <= 1e-12
        assert np.max(np.abs(sz @ q - space.s * q)) <= 1e-12
        assert np.max(np.abs(s2 @ q - space.s * (space.s + 1) * q)) <= 1e-12
        # each column lies on the occupation pattern of its ``rep``
        for j in range(space.dim):
            assert np.all(occ[np.flatnonzero(q[:, j])] == occ[space.rep[j]])
        assert np.array_equal(space.occupations(), occ[space.rep])
    # every multiplet once per S_z: the sector's dimension
    assert sum(int(2 * sp_.s + 1) * sp_.dim for sp_ in spaces) == basis.dim


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    sites_and_electrons=st.integers(2, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, 2 * n))
    ),
    seed=st.integers(0, 2**32 - 1),
    u=st.floats(-4.0, 4.0),
)
def test_spin_resolved_levels_match_the_whole_sector(sites_and_electrons, seed, u):
    """Each spin's levels, repeated 2S+1 times and merged, are the levels
    of the whole sector."""
    n_sites, n_e = sites_and_electrons
    a = np.random.default_rng(seed).standard_normal((n_sites, n_sites))
    basis = build_sector_basis(n_sites, n_e)
    h = build_hubbard(basis, HoppingMatrix(a + a.T), u)
    levels = np.sort(np.concatenate([
        np.repeat(np.linalg.eigvalsh(space.project(h).toarray()), int(2 * space.s + 1))
        for space in spin_spaces(basis)
    ]))
    assert np.max(np.abs(levels - np.linalg.eigvalsh(h.toarray()))) <= 1e-10


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    sites_and_electrons=st.integers(2, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, 2 * n - 1))
    ),
    seed=st.integers(0, 2**32 - 1),
    u=st.floats(-4.0, 4.0),
)
def test_hubbard_spin_symmetry_and_site_relabelling(sites_and_electrons, seed, u):
    """For a random symmetric hopping, H commutes with S^2 and S_z, and the
    levels of every spin are unchanged when the sites are permuted."""
    n_sites, n_e = sites_and_electrons
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_sites, n_sites))
    perm = rng.permutation(n_sites)
    basis = build_sector_basis(n_sites, n_e)
    hs = [
        build_hubbard(basis, HoppingMatrix(mat), u)
        for mat in (a + a.T, (a + a.T)[np.ix_(perm, perm)])
    ]
    h = hs[0].toarray()
    *_, sz, s2 = (m.toarray() for m in build_spin_operators(basis))
    for op in (sz, s2):
        assert np.max(np.abs(h @ op - op @ h)) <= 1e-12 * max(1.0, np.max(np.abs(h)))
    for space in spin_spaces(basis):
        levels = [np.linalg.eigvalsh(space.project(hp).toarray()) for hp in hs]
        assert np.max(np.abs(levels[0] - levels[1])) <= 1e-10


def test_spin_spaces_are_cached_and_read_only():
    """Spin spaces are built once per (n_sites, n_e), from any basis object
    of that sector, and their arrays cannot be changed through the cache."""
    spaces = spin_spaces(build_sector_basis(4, 3))
    again = spin_spaces(build_sector_basis(4, 3))
    assert again is spaces
    assert all(a is b for a, b in zip(again, spaces))
    for space in spaces:
        for arr in (space.q.data, space.q.indices, space.q.indptr, space.rep):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
    spin_spaces.cache_clear()
    assert spin_spaces(build_sector_basis(4, 3)) is not spaces


# -- the sign kernel against a word-at-a-time oracle ----------------------------


def _parity_below(word, p):
    """Oracle: (-1)**(occupied orbitals strictly below p) of one word."""
    return -1 if (word & ((1 << p) - 1)).bit_count() & 1 else 1


def _apply_c_dagger(word, x, s):
    """Oracle: c+ of orbital (x, s) on one word: ``(new_word, sign)``, or
    None when the orbital is occupied."""
    p = 2 * x + s
    if word >> p & 1:
        return None
    return word | (1 << p), _parity_below(word, p)


def _apply_c(word, x, s):
    """Oracle: annihilation counterpart of :func:`_apply_c_dagger`."""
    p = 2 * x + s
    if not word >> p & 1:
        return None
    return word & ~(1 << p), _parity_below(word, p)


def _coo_csr(dim, rows, cols, vals):
    return sp.csr_matrix(
        (np.asarray(vals), (np.asarray(rows), np.asarray(cols))), shape=(dim, dim)
    )


def _oracle_hopping_moves(basis, hopping):
    """Oracle: ``(x, y, src, dst, amp)`` per move, in (src, x, y, spin) order."""
    t = hopping.mat
    n = basis.n_sites
    index = {w: i for i, w in enumerate(basis.states.tolist())}
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y and t[x, y] != 0.0]
    for i, w in enumerate(index):
        for x, y in pairs:
            for s in (0, 1):
                hop = _apply_c(w, y, s)
                if hop is None:
                    continue
                w1, sgn1 = hop
                created = _apply_c_dagger(w1, x, s)
                if created is None:
                    continue
                w2, sgn2 = created
                yield x, y, i, index[w2], t[x, y] * sgn1 * sgn2


def _oracle_hubbard(basis, hopping, u):
    t = hopping.mat
    up, dn = basis.spin_occupations()
    diag = np.zeros(basis.dim)
    for x in range(basis.n_sites):
        diag += t[x, x] * (up[:, x] + dn[:, x]) + u * up[:, x] * dn[:, x]
    nz = np.flatnonzero(diag)
    rows, cols, vals = list(nz), list(nz), list(diag[nz])
    for _, _, src, dst, amp in _oracle_hopping_moves(basis, hopping):
        rows.append(dst)
        cols.append(src)
        vals.append(amp)
    return _coo_csr(basis.dim, rows, cols, vals)


def _oracle_spin_operators(basis):
    index = {w: i for i, w in enumerate(basis.states.tolist())}
    rows, cols, vals = [], [], []
    up, dn = basis.spin_occupations()
    sz_diag = 0.5 * (up - dn).sum(axis=1)
    for i, w in enumerate(index):
        for x in range(basis.n_sites):
            lowered = _apply_c(w, x, 1)
            if lowered is None:
                continue
            w1, sgn1 = lowered
            raised = _apply_c_dagger(w1, x, 0)
            if raised is None:
                continue
            w2, sgn2 = raised
            rows.append(index[w2])
            cols.append(i)
            vals.append(float(sgn1 * sgn2))
    splus = _coo_csr(basis.dim, rows, cols, vals)
    sminus = splus.T.tocsr()
    sz = sp.diags(sz_diag).tocsr()
    s_squared = (sminus @ splus + sp.diags(sz_diag**2 + sz_diag)).tocsr()
    return 0.5 * (splus + sminus), -0.5j * (splus - sminus), sz, s_squared


def _oracle_fock_operator(n_sites, x, s, dagger):
    dim = 4**n_sites
    m = np.zeros((dim, dim))
    for w in range(dim):
        out = _apply_c_dagger(w, x, s) if dagger else _apply_c(w, x, s)
        if out is not None:
            w2, sign = out
            m[w2, w] = sign
    return m


def _csr_bytes(m):
    arrays = (m.indptr, m.indices, m.data)
    return m.shape, [a.dtype for a in arrays], [a.tobytes() for a in arrays]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_sites=st.sampled_from([1, 2, 3, 4, 5, 32, 33]),
    seed=st.integers(0, 2**32 - 1),
    u=st.floats(-4.0, 4.0),
)
@example(n_sites=32, seed=1, u=0.5)
@example(n_sites=33, seed=2, u=-1.5)
def test_sign_kernel_matches_the_word_at_a_time_oracle(n_sites, seed, u):
    """Moves (values and order), the Hubbard and spin CSRs (index pointers,
    indices, data and their dtypes) and the full-Fock c and c+ equal the
    scalar oracle's, on a random symmetric hopping with zero bonds, at every
    n_e up to 5 sites and n_e <= 2 on 32 and 33 sites (64- and 66-bit
    words)."""
    rng = np.random.default_rng(seed)
    density = 0.6 if n_sites <= 5 else 6.0 / n_sites**2
    a = np.where(rng.random((n_sites, n_sites)) < density,
                 rng.standard_normal((n_sites, n_sites)), 0.0)
    hop = HoppingMatrix(a + a.T)
    for n_e in range(2 * n_sites + 1 if n_sites <= 5 else 3):
        basis = build_sector_basis(n_sites, n_e)
        moves = hopping_moves(basis, hop)
        assert moves[-1].dtype == np.float64
        got = list(zip(*(m.tolist() for m in moves)))
        assert got == list(_oracle_hopping_moves(basis, hop))
        assert _csr_bytes(build_hubbard(basis, hop, u)) == _csr_bytes(
            _oracle_hubbard(basis, hop, u)
        )
        spins = zip(build_spin_operators(basis), _oracle_spin_operators(basis))
        for op, want in spins:
            assert _csr_bytes(op) == _csr_bytes(want)
    if n_sites <= 3:
        for x, s, dagger in itertools.product(range(n_sites), (0, 1), (True, False)):
            want = _oracle_fock_operator(n_sites, x, s, dagger)
            assert fock_operator(n_sites, x, s, dagger).tobytes() == want.tobytes()
