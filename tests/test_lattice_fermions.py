"""Fermion sector basis, operator algebra and Hubbard assembly checks.

Oracles here are worked by hand: binomial dimensions, the exact two-site
ground energy U/2 - sqrt((U/2)^2 + 4t^2), and canonical anticommutation
relations evaluated on the full Fock space of a small lattice.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubbard_phonon.errors import SizingError, ValidationError
from hubbard_phonon.lattice_fermions import (
    HoppingMatrix,
    apply_c,
    apply_c_dagger,
    build_hubbard,
    build_sector_basis,
    build_spin_operators,
    fock_operator,
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
        # states sorted ascending, index is the inverse map
        assert list(basis.states) == sorted(basis.states)
        for i, w in enumerate(basis.states):
            assert basis.index[w] == i


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
    w, sign = apply_c_dagger(0, 1, 0, 2)  # create in orbital 2 of empty word
    assert w == 0b100 and sign == 1
    w2, sign2 = apply_c_dagger(0b1, 1, 0, 2)  # one occupied orbital below
    assert w2 == 0b101 and sign2 == -1
    # double creation in the same orbital is forbidden
    assert apply_c_dagger(0b100, 1, 0, 2) is None
    # annihilating an empty orbital is forbidden
    assert apply_c(0, 0, 0, 2) is None


def test_creation_anticommutes():
    # c_p^+ c_q^+ = - c_q^+ c_p^+ for p != q, checked on the empty word
    def create2(x1, s1, x2, s2):
        w, sgn = apply_c_dagger(0, x1, s1, 2)
        out = apply_c_dagger(w, x2, s2, 2)
        return (out[0], sgn * out[1]) if out is not None else None

    orbitals = [(x, s) for x in range(2) for s in range(2)]
    for (x1, s1), (x2, s2) in itertools.combinations(orbitals, 2):
        w_a, sgn_a = create2(x1, s1, x2, s2)
        w_b, sgn_b = create2(x2, s2, x1, s1)
        assert w_a == w_b
        assert sgn_a == -sgn_b


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
