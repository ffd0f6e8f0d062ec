"""Effective interaction, regime certificates and the coupling sweep."""

import math
from dataclasses import astuple

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hubbard_phonon import eigensolver, magnetism
from hubbard_phonon.errors import ValidationError
from hubbard_phonon.lattice_fermions import (
    HoppingMatrix,
    build_hubbard,
    build_sector_basis,
    build_spin_operators,
)
from hubbard_phonon.eigensolver import ground_space
from hubbard_phonon.magnetism import (
    build_tasaki_hopping,
    check_lieb_regime,
    check_tasaki_regime,
    classify,
    critical_alpha,
    effective_params,
    flip_brackets,
    spin_ground_space,
    sweep_alpha,
)

B_REF = np.sqrt(0.9)  # per-site coupling norm of the reference channel


def test_effective_params():
    par = effective_params(1.0, 0.5, B_REF)
    assert abs(par.u_eff - (1.0 - 0.25 * 0.9)) < 1e-15
    assert abs(par.chemical_shift - 0.5 * 0.25 * 0.9) < 1e-15
    with pytest.raises(ValidationError):
        effective_params(1.0, 0.5, -1.0)


def test_critical_alpha():
    assert abs(critical_alpha(1.0, B_REF) - 1.0540925533894598) < 1e-12
    # u_eff changes sign exactly there
    assert effective_params(1.0, critical_alpha(1.0, B_REF) + 1e-6, B_REF).u_eff < 0
    assert effective_params(1.0, critical_alpha(1.0, B_REF) - 1e-6, B_REF).u_eff > 0
    with pytest.raises(ValidationError):
        critical_alpha(-1.0, B_REF)
    with pytest.raises(ValidationError):
        critical_alpha(1.0, 0.0)


def test_lieb_regime_small():
    chk = check_lieb_regime(HoppingMatrix.chain(3), u_eff=-1.0, n_e=2)
    assert chk.applies and chk.verified
    assert chk.report.degeneracy == 1
    assert chk.report.s_tot == 0.0


def test_lieb_not_applicable():
    # odd electron number falls outside the attractive uniqueness statement
    chk = check_lieb_regime(HoppingMatrix.chain(3), u_eff=-1.0, n_e=3)
    assert not chk.applies
    # disconnected lattice likewise
    blocks = np.zeros((4, 4))
    blocks[0, 1] = blocks[1, 0] = 1.0
    blocks[2, 3] = blocks[3, 2] = 1.0
    chk2 = check_lieb_regime(HoppingMatrix(blocks), u_eff=-1.0, n_e=2)
    assert not chk2.applies


def test_lieb_boundary_interaction():
    # at u_eff = 0 a singlet is still present among the ground states even
    # though uniqueness is no longer claimed
    chk = check_lieb_regime(HoppingMatrix.chain(2), u_eff=0.0, n_e=2)
    assert chk.applies and chk.verified


def test_tasaki_regime_small():
    rng = np.random.default_rng(21)
    for n_sites in (3, 4):
        amps = rng.uniform(0.5, 2.0, size=n_sites)
        chk = check_tasaki_regime(1.0, amps, u_eff=1.0)
        assert chk.applies and chk.verified, chk.details
        smax = (n_sites - 1) / 2
        assert chk.report.s_tot == smax
        assert chk.report.degeneracy == 2 * smax + 1


def test_incomplete_ground_multiplet_is_refused():
    """8 sites, 7 electrons: a Lanczos solve of the whole 11,440-state sector
    returned 6 or 7 of the 8 states of the s = 7/2 multiplet, which had to
    be refused.  Solved per spin (spaces of 2,352, 1,344, 216 and 8 states)
    each level stands for its whole multiplet: the ground space is all 8,
    the S^2 oracle agrees, and no partial multiplet can arise."""
    amps = [-1.25, 0.78, -0.99, -1.48, 1.46, -1.22, 1.04, -0.78]
    chk = check_tasaki_regime(1.0, amps, u_eff=2.0)
    assert chk.applies and chk.verified, chk.details
    assert chk.report.s_tot == 3.5 and chk.report.degeneracy == 8
    basis = build_sector_basis(8, 7)
    *_, s2 = build_spin_operators(basis)
    v = chk.report.vectors
    assert np.allclose(v.T @ (s2 @ v), 3.5 * 4.5 * np.eye(v.shape[1]), atol=1e-10)


def test_tasaki_rank_one_structure():
    hop = build_tasaki_hopping(2.0, [1.0, 0.5, 0.25])
    w = np.linalg.eigvalsh(hop.mat)
    # t0 * |a><a| has a single nonzero eigenvalue t0 * |a|^2
    assert np.sum(np.abs(w) > 1e-12) == 1
    assert abs(np.max(w) - 2.0 * (1 + 0.25 + 0.0625)) < 1e-12
    with pytest.raises(ValidationError):
        build_tasaki_hopping(1.0, [1.0, 0.0, 1.0])


def test_classification_labels():
    basis = build_sector_basis(3, 2)
    h = build_hubbard(basis, HoppingMatrix.chain(3), -1.0)
    rep = spin_ground_space(h, basis)
    assert classify(rep, 2, 3) == "UniqueSinglet"
    hop = build_tasaki_hopping(1.0, [1.0, 1.0, 1.0])
    h2 = build_hubbard(basis, hop, 1.0)
    rep2 = spin_ground_space(h2, basis)
    assert classify(rep2, 2, 3) == "Ferromagnetic"


def test_classification_permutation_invariant():
    # relabeling sites must not change energies or the label
    rng = np.random.default_rng(22)
    amps = rng.uniform(0.5, 2.0, size=4)
    perm = rng.permutation(4)
    for u_eff in (1.0, -1.0):
        reps = []
        for a in (amps, amps[perm]):
            basis = build_sector_basis(4, 3)
            h = build_hubbard(basis, build_tasaki_hopping(1.0, a), u_eff)
            reps.append(spin_ground_space(h, basis))
        assert abs(reps[0].e0 - reps[1].e0) < 1e-10
        assert reps[0].degeneracy == reps[1].degeneracy
        assert reps[0].s_tot == reps[1].s_tot


def test_sweep_records_and_flip():
    hop = build_tasaki_hopping(1.0, [1.0, 1.0, 1.0])
    alphas = np.arange(1.00, 1.101, 0.02)
    recs = sweep_alpha(hop, 2, 1.0, B_REF, alphas, kappa=0.1)
    assert len(recs) == len(alphas)
    assert all(r.residual_flags == "" for r in recs)
    flips = flip_brackets(recs)
    assert len(flips) == 1
    lo, hi = flips[0]
    assert lo < critical_alpha(1.0, B_REF) < hi
    # energies include the per-electron chemical shift
    par = effective_params(1.0, recs[0].alpha, B_REF)
    basis = build_sector_basis(3, 2)
    h = build_hubbard(basis, hop, par.u_eff).toarray()
    e_raw = np.linalg.eigvalsh(h)[0]
    assert abs(recs[0].e0 - (e_raw - 2 * par.chemical_shift)) < 1e-10


def test_sweep_captures_point_failures():
    hop = build_tasaki_hopping(1.0, [1.0, 1.0, 1.0])
    recs = sweep_alpha(hop, 2, 1.0, B_REF, [0.5, float("nan"), 1.5])
    labels = [r.classification for r in recs]
    assert labels[0] == "Ferromagnetic"
    assert labels[1] == "Error" and recs[1].residual_flags
    assert labels[2] == "UniqueSinglet"
    # the failed point brackets nothing: one flip, across it
    assert flip_brackets(recs) == [(0.5, 1.5)]


def test_flip_brackets_pair_points_in_alpha_order():
    """An unsorted grid with a repeat keeps its rows in grid order, and the
    one flip, in (1.05, 1.5) with alpha_c = 1 / B_REF = 1.054, is bracketed
    between points adjacent in alpha, not in the list."""
    hop = build_tasaki_hopping(1.0, [1.0, 0.8, -1.2, 0.9, 1.1])
    grid = [1.5, 0.3, 0.3, 1.05, 2.0, 0.9]
    recs = sweep_alpha(hop, 4, 1.0, B_REF, grid)
    assert [r.alpha for r in recs] == grid
    assert flip_brackets(recs) == [(1.05, 1.5)]


@st.composite
def _sweep_cases(draw):
    """A 2-6 site lattice (chain, rank-one, matrix or t = 0 hopping), any
    electron count, u of either sign and a shuffled grid with repeats and,
    at times, a NaN."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["chain", "rank_one", "matrix", "t0"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "rank_one":
        hop = build_tasaki_hopping(1.0, rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n))
    elif kind == "matrix":
        a = rng.uniform(-1.0, 1.0, (n, n))
        hop = HoppingMatrix(0.5 * (a + a.T))
    else:
        hop = HoppingMatrix.chain(n, -1.0 if kind == "chain" else 0.0)
    points = st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.05, 1.2, 1.5, 2.0])
    grid = draw(st.lists(points, min_size=2, max_size=6))
    grid = draw(st.permutations(grid + grid[:1] + [math.nan] * draw(st.booleans())))
    u = draw(st.sampled_from([-2.0, -0.5, 0.5, 1.0, 3.0]))
    return hop, draw(st.integers(1, 2 * n)), u, grid


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=_sweep_cases())
def test_sweep_with_lead_matches_the_full_solve(case):
    """Every record of a sweep equals, e0 bitwise, the sweep that solves
    every spin at every point (ground_space without ``lead``)."""
    hop, n_e, u, grid = case
    led = sweep_alpha(hop, n_e, u, B_REF, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(magnetism, "ground_space", lambda h, lead=None, **kw: ground_space(h, **kw))
        full = sweep_alpha(hop, n_e, u, B_REF, grid)
    fields = [[repr(f) for f in astuple(r)] for r in led]
    assert fields == [[repr(f) for f in astuple(r)] for r in full]


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in the solver path")

    monkeypatch.setattr(magnetism, "ground_space", broken)
    hop = build_tasaki_hopping(1.0, [1.0, 1.0, 1.0])
    with pytest.raises(TypeError, match="bug in the solver path"):
        sweep_alpha(hop, 2, 1.0, B_REF, [0.5, 1.5])


def _ferro6_hopping():
    """The benchmark's seed-1 ferro6 lattice: six rank-one amplitudes with
    magnitudes in [0.5, 1.5] and random signs."""
    rng = np.random.default_rng(1)
    return build_tasaki_hopping(1.0, rng.uniform(0.5, 1.5, 6) * rng.choice([-1.0, 1.0], 6))


def test_ferro6_sweep_matches_the_whole_sector(monkeypatch):
    """On both sides of alpha_c = 1 the spin spaces (210, 84 and 6 states)
    are solved for a few levels each; the whole 792-state sector under a
    full eigh has the same ground energy, degeneracy and S^2 content.  A
    non-finite point is an Error row, not an exception."""
    solved = []

    def spy(h, **kwargs):
        rep = ground_space(h, **kwargs)
        solved.append(rep)
        return rep

    monkeypatch.setattr(magnetism, "ground_space", spy)
    hop = _ferro6_hopping()
    recs = sweep_alpha(hop, 5, 1.0, 1.0, [0.5, 1.5, float("nan")])
    assert [r.classification for r in recs] == ["Ferromagnetic", "Other", "Error"]
    assert recs[2].residual_flags.startswith("LinAlgError")
    basis = build_sector_basis(6, 5)
    *_, s2 = build_spin_operators(basis)
    for rec, rep in zip(recs, solved):
        h = build_hubbard(basis, hop, effective_params(1.0, rec.alpha, 1.0).u_eff)
        vals, vecs = np.linalg.eigh(h.toarray())
        deg = int(np.sum(vals - vals[0] <= 1e-8 * max(1.0, abs(vals[0]))))
        assert abs(rep.e0 - vals[0]) <= 1e-12
        assert rec.degeneracy == rep.degeneracy == deg
        s = np.asarray(rep.spins)
        want = np.sort(np.repeat(s * (s + 1), (2 * s + 1).astype(int)))
        s2_ground = np.linalg.eigvalsh(vecs[:, :deg].T @ s2 @ vecs[:, :deg])
        assert np.allclose(s2_ground, want, atol=1e-8)
        v = rep.vectors  # one highest-weight vector per level
        assert np.allclose(v.T @ (s2 @ v), np.diag(s * (s + 1)), atol=1e-10)


def test_sweep_on_a_sparse_sector(monkeypatch):
    """8 sites at half filling hold 12,870 states, in spin spaces of at most
    1,764 (S = 0); with DENSE_MAX lowered below that, the S = 0 space is
    solved by Lanczos.  Both regimes of the half-filled chain give a unique
    singlet, whose lifted vector solves the whole sector's Hamiltonian."""
    monkeypatch.setattr(eigensolver, "DENSE_MAX", 1000)
    solved = []

    def spy(h, **kwargs):
        rep = ground_space(h, **kwargs)
        solved.append((h, rep))
        return rep

    monkeypatch.setattr(magnetism, "ground_space", spy)
    chain = HoppingMatrix.chain(8, -1.0)
    recs = sweep_alpha(chain, 8, 1.0, 1.0, [0.5, 1.5])
    assert [r.classification for r in recs] == ["UniqueSinglet"] * 2
    assert [r.degeneracy for r in recs] == [1, 1]
    basis = build_sector_basis(8, 8)
    for rec, (blocks, rep) in zip(recs, solved):
        assert sp.issparse(blocks[0]) and blocks[0].shape[0] == 1764
        par = effective_params(1.0, rec.alpha, 1.0)
        h = build_hubbard(basis, chain, par.u_eff)
        v = rep.vectors[:, 0]
        assert np.linalg.norm(h @ v - rep.e0 * v) < 1e-8
        assert rec.e0 == rep.e0 - par.chemical_shift * 8
