"""Polaron dressing: generator algebra, transformation identities, dressed
states and the two assembled forms of the transformed Hamiltonian.

The displacement-block route is the production path; the matrix-exponential
route and the commutator ladder below are its independent oracles.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st

from hubbard_phonon import boson_fock, lang_firsov
from hubbard_phonon.boson_fock import (
    ModeSet,
    TruncatedFock,
    apply_field,
    apply_ladder,
    displacement_1mode,
    field,
    mode_kron,
    relative_bound_check,
)
from hubbard_phonon.errors import SizingError, ValidationError
from hubbard_phonon.cli import load_config
from hubbard_phonon.lang_firsov import (
    TRIAL_OCCUPATION,
    CoupledModel,
    active_frame,
    annihilation_residual,
    dress_state,
    dressed_ground,
    effective_hamiltonians,
    heisenberg_evolution_check,
    nb_expectation,
    overlap_formula,
    reference_model,
    verify_transform_hb,
    verify_transform_nb,
)
from hubbard_phonon.lattice_fermions import (
    HoppingMatrix,
    build_hubbard,
    build_sector_basis,
    build_spin_operators,
    spin_spaces,
)

from fock_oracles import annihilator, dense_transformed, direct_levels, transformed_levels

M6 = reference_model(n_max=6)
M12 = reference_model(n_max=12)


def build_generator(model):
    """Oracle: sparse S = sum_x n_x x phi(i g_x), so that V = expm(i alpha S)."""
    s = sp.csr_matrix((model.dim, model.dim), dtype=complex)
    for x in range(model.basis.n_sites):
        nx = sp.diags(model.nu[:, x])
        s = s + sp.kron(nx, field(model.fock, 1j * model.g[x]), format="csr")
    return s.tocsr()


def displacement_blocks(model):
    """Oracle: the dense block V_c = prod_j D(z_cj) of each configuration c,
    one at a time."""
    for zc in model.z_table():
        yield mode_kron([displacement_1mode(zj, model.fock.n_max) for zj in zc])


def unitary_V(model, method):
    """Oracle: the dense dressing unitary, as the exponential of the
    generator (``expm``) or assembled from the per-configuration
    displacement blocks (``displacement``)."""
    if method == "expm":
        return expm(1j * model.alpha * build_generator(model).toarray())
    return sp.block_diag(list(displacement_blocks(model))).toarray()


# -- full-stack oracles of the row-streamed checks -----------------------------
# Each holds whole (F, B) stacks and works on them as the checks once did;
# the checks must agree with them while holding a few boson rows.


def _oracle_trials(model, diag, w, n_trials, rng):
    """Per trial the stacks psi, V (1 x D) V^{-1} psi - D psi and
    sum_x n_x phi(w_x) psi, drawn as the checks draw them."""
    fock = model.fock
    headroom = max(fock.n_max - TRIAL_OCCUPATION, 1)
    for _ in range(n_trials):
        t = fock.random_interior(rng, headroom, model.basis.dim)
        u = model.apply_unitary(t.reshape(-1), inverse=True).reshape(t.shape)
        delta = model.apply_unitary((u * diag).reshape(-1)).reshape(t.shape)
        delta -= t * diag
        field_t = np.zeros_like(t)
        for x in range(model.basis.n_sites):
            field_t += model.nu[:, x, None] * apply_field(fock, w[x], t)
        yield t, delta, field_t


def oracle_transform_hb(model, n_trials, rng):
    r = model.alpha**2 * model.r_diag()
    return max(
        float(np.linalg.norm(delta - model.alpha * field_t - r[:, None] * t))
        for t, delta, field_t in _oracle_trials(
            model, model.fock.hb_diag(), model.lam, n_trials, rng
        )
    )


def oracle_transform_nb(model, n_trials, rng):
    """(worst residual, [linear, quadratic] least-squares coefficients)."""
    k2 = np.einsum("cx,xy,cy->c", model.nu, model.overlap_w2, model.nu)
    worst = 0.0
    ata = np.zeros((2, 2), dtype=complex)
    atb = np.zeros(2, dtype=complex)
    trials = _oracle_trials(model, model.fock.nb_diag(), model.g, n_trials, rng)
    for t, delta, k1psi in trials:
        k2psi = k2[:, None] * t
        pred = model.alpha * k1psi + 0.5 * model.alpha**2 * k2psi
        worst = max(worst, float(np.linalg.norm(delta - pred)))
        cols = (k1psi, k2psi)
        ata += [[np.vdot(ci, cj) for cj in cols] for ci in cols]
        atb += [np.vdot(ci, delta) for ci in cols]
    return worst, np.linalg.solve(ata, atb).real


def _oracle_dressed_annihilator(model, f, vec):
    """(1 x a(f) + (alpha/sqrt 2) sum_x <f, g_x> n_x x 1) @ vec."""
    t = np.asarray(vec).reshape(model.basis.dim, model.fock.dim)
    scalar = (model.alpha / np.sqrt(2.0)) * (model.nu @ (model.g @ np.conj(f)))
    out = apply_ladder(model.fock, f, t).astype(complex, copy=False)
    out += scalar[:, None] * t
    return out.reshape(-1)


def oracle_annihilation(model, state, f):
    return float(np.linalg.norm(_oracle_dressed_annihilator(model, f, state.vector())))


def oracle_effective_electronic(model):
    """Dense H_e - alpha^2 R with R_c = (1/2) sum_xy nu_x nu_y sum_j
    lambda_xj lambda_yj / omega_j, summed term by term over sites and modes."""
    w = model.fock.modes.freqs
    n = model.basis.n_sites
    r = np.zeros(model.basis.dim)
    for c, nu in enumerate(model.basis.occupations()):
        for x in range(n):
            for y in range(n):
                for j in range(w.size):
                    r[c] += 0.5 * nu[x] * nu[y] * model.lam[x, j] * model.lam[y, j] / w[j]
    he = build_hubbard(model.basis, model.hopping, model.u).toarray()
    return he - model.alpha**2 * np.diag(r)


def oracle_heisenberg(model, f, times, n_trials, rng):
    evals, evecs = np.linalg.eigh(oracle_effective_electronic(model))
    hb = model.fock.hb_diag()
    w = model.fock.modes.freqs

    def evolve(vec, t):
        y = model.apply_unitary(vec, inverse=True)
        y = y.reshape(model.basis.dim, model.fock.dim)
        ue = (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T
        y = ue @ y
        y = y * np.exp(-1j * t * hb)
        return model.apply_unitary(y.reshape(-1))

    worst = 0.0
    headroom = max(model.fock.n_max - TRIAL_OCCUPATION, 1)
    for _ in range(n_trials):
        psi = model.fock.random_interior(rng, headroom, model.basis.dim).reshape(-1)
        for t in times:
            lhs = evolve(_oracle_dressed_annihilator(model, f, evolve(psi, t)), -t)
            rhs = _oracle_dressed_annihilator(model, np.exp(1j * t * w) * f, psi)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def oracle_overlap_numeric(model, state, fs, psi_e):
    """<prod_i a^*(f_i) (psi_e x vacuum), state> on the whole product space."""
    ref = np.zeros((model.basis.dim, model.fock.dim), dtype=complex)
    ref[:, 0] = psi_e
    for fi in fs:
        ref = apply_ladder(model.fock, fi, ref, dagger=True)
    return complex(np.vdot(ref, state.vector()))


def _interior(model, rng, occ_cap=2):
    mask = np.all(model.fock.occupations() <= occ_cap, axis=1)
    v = rng.standard_normal(model.fock.dim) + 1j * rng.standard_normal(model.fock.dim)
    v *= mask
    return v / np.linalg.norm(v)


def test_channel_metadata():
    m = M6
    # per-site coupling norm b^2 = ||lambda_x / sqrt(omega)||^2 = 0.9
    assert np.max(np.abs(np.diag(m.overlap_w1) - 0.9)) < 1e-12
    # per-site boson channels are disjoint by construction
    off = m.overlap_w1 - np.diag(np.diag(m.overlap_w1))
    assert np.max(np.abs(off)) == 0.0
    # |g|^2 = integral k^(2 beta - 2) over [kappa, K] = ln 10 here
    assert abs(m.overlap_w2[0, 0] - np.log(10.0)) < 1e-12


def test_model_validation():
    with pytest.raises(ValidationError):
        CoupledModel(
            M6.basis, M6.hopping, M6.u, M6.alpha, M6.fock, M6.lam[:, :2]
        )
    with pytest.raises(SizingError):
        reference_model(modes_per_site=4, n_max=20)


def test_generator_selfadjoint():
    s = build_generator(M6)
    d = (s - s.conj().T).tocsr()
    assert d.nnz == 0 or np.max(np.abs(d.data)) < 1e-13


def test_unitary_routes_agree():
    m = reference_model(n_max=3)
    v_disp = unitary_V(m, method="displacement")
    v_expm = unitary_V(m, method="expm")
    assert np.max(np.abs(v_disp - v_expm)) < 1e-12
    assert np.max(np.abs(v_disp.conj().T @ v_disp - np.eye(m.dim))) < 1e-12


@pytest.mark.parametrize("inverse", [False, True])
def test_apply_unitary_matches_expm(inverse):
    m = reference_model(n_max=3)
    v_expm = unitary_V(m, method="expm")
    if inverse:
        v_expm = v_expm.conj().T
    rng = np.random.default_rng(43)
    v = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
    v /= np.linalg.norm(v)
    got = m.apply_unitary(v, inverse=inverse)
    assert np.max(np.abs(got - v_expm @ v)) < 1e-12


def _support_box_rows(model, rng):
    """One trial's support-box rows and the same rows zero-padded to the
    model's whole box, as (F * B) vectors."""
    box, idx, trials = lang_firsov._interior_trials(model, 1, rng)
    kept = next(trials)
    whole = np.zeros((model.basis.dim, model.fock.dim), dtype=complex)
    whole[:, idx] = kept
    return kept, whole.reshape(-1)


@pytest.mark.parametrize("n_max", [1, 3, 4, 8, 16])
@pytest.mark.parametrize("inverse", [False, True])
def test_apply_unitary_takes_support_box_rows(n_max, inverse):
    """V and V^{-1} of a trial's support-box rows are those of the
    zero-padded whole rows bit for bit, for complex and real rows: at
    n_max 1 and 3 the box is the whole box, above it 4^4 of (n_max+1)^4."""
    model = reference_model(n_max=n_max)
    kept, whole = _support_box_rows(model, np.random.default_rng(50 + n_max))
    for rows, padded in ((kept, whole), (kept.real, whole.real)):
        got = model.apply_unitary(rows, inverse=inverse)
        assert got.shape == (model.dim,) and got.dtype == padded.dtype
        assert np.array_equal(got, model.apply_unitary(padded, inverse=inverse))


@pytest.mark.parametrize("n_max", [4, 5])
@pytest.mark.parametrize("inverse", [False, True])
def test_support_box_rows_match_expm(n_max, inverse):
    """A model small enough for the dense exponential (3 sites, 2 modes),
    whose trial box (side 4) lies inside the whole box."""
    model = _random_model(3, 2, 17, 1.5, 0.8, n_max)
    v_expm = unitary_V(model, method="expm")
    if inverse:
        v_expm = v_expm.conj().T
    kept, whole = _support_box_rows(model, np.random.default_rng(44))
    assert kept.shape[1] < model.fock.dim
    got = model.apply_unitary(kept, inverse=inverse)
    assert np.max(np.abs(got - v_expm @ whole)) < 1e-12


@pytest.mark.parametrize("n_max", [3, 4, 5, 6, "overlapping"])
def test_conjugated_ladder_matches_the_dense_conjugation(n_max):
    """V_c^{-1} (a(f) + s_c) V_c per mode (:func:`_undressed_annihilator`)
    against the dense blocks of ``unitary_V(model, "displacement")`` and the
    Kronecker a(f) of :func:`fock_oracles.annihilator`, on random whole complex rows of every configuration,
    for complex f; "overlapping" is a 3-site model whose site channels
    share both of its modes, at n_max 5."""
    if n_max == "overlapping":
        model = _random_model(3, 2, 17, 1.5, 0.8, 5)
    else:
        model = reference_model(n_max=n_max)
    rng = np.random.default_rng(31)
    f = _unit_amplitudes(rng, model.fock.modes.m)
    undressed = lang_firsov._undressed_annihilator(model, f)
    a_f = annihilator(model.fock, f)
    scalar = (model.alpha / np.sqrt(2.0)) * (model.nu @ (model.g @ np.conj(f)))
    for c, block in enumerate(displacement_blocks(model)):
        row = rng.standard_normal(model.fock.dim) + 1j * rng.standard_normal(model.fock.dim)
        row /= np.linalg.norm(row)
        dressed = block @ row
        want = block.conj().T @ (a_f @ dressed + scalar[c] * dressed)
        assert np.linalg.norm(undressed(c, row) - want) <= 1e-12 * np.linalg.norm(want)


def test_commutator_ladder():
    """The algebra that closes the dressing series after two steps.

    With A_x = phi(i g_x): [A_x, H_b] = -i phi(lambda_x) and
    [A_x, phi(lambda_y)] = -i <g_x, lambda_y>, a scalar, so every third
    nested commutator vanishes identically.
    """
    m = reference_model(n_max=8)
    fock = m.fock
    rng = np.random.default_rng(41)
    v = _interior(m, rng)
    hb = sp.diags(fock.hb_diag())
    for x in range(2):
        a_x = field(fock, 1j * m.g[x])
        lam_x = field(fock, m.lam[x])
        r = (a_x @ (hb @ v) - hb @ (a_x @ v)) - (-1j) * (lam_x @ v)
        assert np.linalg.norm(r) < 1e-12
        for y in range(2):
            lam_y = field(fock, m.lam[y])
            r2 = (a_x @ (lam_y @ v) - lam_y @ (a_x @ v)) + 1j * m.overlap_w1[x, y] * v
            assert np.linalg.norm(r2) < 1e-12


def test_triple_commutator_vanishes():
    m = reference_model(n_max=8)
    rng = np.random.default_rng(42)
    s = build_generator(m)
    a = 1j * m.alpha * s
    hb = sp.kron(
        sp.identity(m.basis.dim, format="csr"),
        sp.diags(m.fock.hb_diag()),
        format="csr",
    )
    psi = np.kron(np.full(m.basis.dim, m.basis.dim**-0.5), _interior(m, rng))
    t = (
        hb @ (a @ (a @ (a @ psi)))
        - 3 * (a @ (hb @ (a @ (a @ psi))))
        + 3 * (a @ (a @ (hb @ (a @ psi))))
        - a @ (a @ (a @ (hb @ psi)))
    )
    assert np.linalg.norm(t) < 1e-12


def test_transform_energy_identity():
    r8 = verify_transform_hb(reference_model(n_max=8), n_trials=3)
    r12 = verify_transform_hb(M12, n_trials=3)
    assert r12 < r8  # truncation leakage must die out
    assert r12 < 1e-4


@pytest.mark.parametrize(
    "check",
    [
        lambda m: verify_transform_hb(m),
        lambda m: verify_transform_nb(m),
        lambda m: heisenberg_evolution_check(m, m.lam[0]),
        lambda m: relative_bound_check(m.fock, m.lam[0]),
    ],
    ids=["hb", "nb", "heisenberg", "relative_bound"],
)
def test_identity_checks_refuse_the_vacuum_only_space(check):
    """n_max 0 leaves no interior state to draw a trial from: each check
    raises instead of passing on a zero vector."""
    with pytest.raises(ValidationError, match="empty interior"):
        check(reference_model(n_max=0))


def test_transform_number_identity_and_coefficients():
    rep = verify_transform_nb(M12, n_trials=3)
    assert rep.residual < 1e-3
    assert abs(rep.linear_fit - M12.alpha) < 1e-5
    assert abs(rep.quadratic_fit - 0.5 * M12.alpha**2) < 1e-5
    # the measured quadratic coefficient is alpha^2/2, not alpha^2
    assert abs(rep.quadratic_fit - M12.alpha**2) > 0.1


def test_conjugation_identity_holds_for_any_diagonal_boson_form():
    """V (1 x D) V^{-1} = D + alpha sum_x n_x phi(d g_x) + (alpha^2/2)
    sum_xy <g_x, d g_y> n_x n_y for D = sum_j d_j n_j with random positive
    weights d, neither omega nor 1: the fit lands on (alpha, alpha^2/2) and
    the truncation leakage dies as n_max grows."""
    d = np.random.default_rng(3).uniform(0.3, 2.0, M12.fock.modes.m)
    residuals = []
    for model in (reference_model(n_max=8), M12):
        w = model.g * d
        diag = model.fock.occupations() @ d
        residual, coef = lang_firsov._conjugation_check(
            model, diag, w, w @ model.g.T, 3, np.random.default_rng(5)
        )
        residuals.append(residual)
    assert abs(coef[0] - M12.alpha) < 1e-6
    assert abs(coef[1] - 0.5 * M12.alpha**2) < 1e-6
    assert residuals[1] < residuals[0]


def test_unitary_inverse_roundtrip():
    rng = np.random.default_rng(43)
    v = rng.standard_normal(M6.dim) + 1j * rng.standard_normal(M6.dim)
    v /= np.linalg.norm(v)
    w = M6.apply_unitary(M6.apply_unitary(v), inverse=True)
    assert np.linalg.norm(w - v) < 1e-12
    assert abs(np.linalg.norm(M6.apply_unitary(v)) - 1.0) < 1e-12


def test_dress_state_matches_unitary():
    # coherent-recurrence route vs displacement applied to the vacuum; they
    # differ only through the truncated coherent tail
    he_eff = M12.effective_electronic()
    psi_e = np.linalg.eigh(he_eff.toarray())[1][:, 0]
    st = dress_state(M12, psi_e)
    vac = np.zeros(M12.fock.dim)
    vac[0] = 1.0
    direct = M12.apply_unitary(np.kron(psi_e, vac).astype(complex))
    assert np.linalg.norm(st.vector() - direct) < 1e-6
    assert st.truncation_error < 1e-9
    assert abs(sum(st.config_norms_sq()) - 1.0) < 1e-9


def test_dress_state_requires_normalized_input():
    with pytest.raises(ValidationError):
        dress_state(M6, np.ones(M6.basis.dim))


def test_dressed_ground_of_a_doublet_is_highest_weight():
    """One electron on the 2-site chain: the effective ground level is a
    spin doublet, and the vector dressed is its S_z = 1/2 state."""
    m = reference_model(n_e=1, n_max=2)
    st, rep = dressed_ground(m)
    assert rep.degeneracy == 2 and rep.s_tot == 0.5
    sx, sy, sz, _ = build_spin_operators(m.basis)
    psi = st.weights
    assert np.linalg.norm((sx + 1j * sy) @ psi) < 1e-12  # S+ psi = 0
    assert np.linalg.norm(sz @ psi - 0.5 * psi) < 1e-12


def test_dressed_annihilation_ground_and_excited():
    # the dressed state is a per-configuration coherent state, so the dressed
    # annihilator kills it for any electronic weight vector
    rng = np.random.default_rng(44)
    states = [dressed_ground(M12)[0]]
    for c in (0, 2):
        e = np.zeros(M12.basis.dim)
        e[c] = 1.0
        states.append(dress_state(M12, e))
    for st in states:
        for _ in range(3):
            f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            f /= np.linalg.norm(f)
            assert annihilation_residual(M12, st, f) < 1e-5


def test_heisenberg_covariance():
    rng = np.random.default_rng(45)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f /= np.linalg.norm(f)
    r8 = heisenberg_evolution_check(
        reference_model(n_max=8), f, times=(0.1, 1.0, 10.0), n_trials=1,
        rng=np.random.default_rng(46),
    )
    r12 = heisenberg_evolution_check(
        M12, f, times=(0.1, 1.0, 10.0), n_trials=1, rng=np.random.default_rng(46)
    )
    assert r12 < r8
    assert r12 < 5e-3


def test_direct_hamiltonian_hermitian():
    h = M6.h_direct()
    d = (h - h.conj().T).tocsr()
    assert d.nnz == 0 or np.max(np.abs(d.data)) < 1e-12


def test_spectral_equivalence_and_product_defect():
    # exact unitary equivalence shows up as truncation-limited agreement;
    # the sharp 1e-6 check at deeper truncation lives in the acceptance suite
    ha = effective_hamiltonians(M6)
    d = ha.direct_lowest(4, tol=1e-10)
    t = ha.transformed_lowest(4, tol=1e-10)
    p = ha.product_lowest(4)
    assert np.max(np.abs(d - t)) < 5e-5
    # dropping the hopping dressing shifts the spectrum by a finite amount
    assert np.max(np.abs(d - p)) > 1e-2


# -- lowest-|S_z| sector solves against full-space dense oracles --------------


def _random_model(n_sites, n_e, seed, u, alpha, n_max):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_sites, n_sites))
    return CoupledModel(
        build_sector_basis(n_sites, n_e),
        HoppingMatrix(a + a.T),
        u,
        alpha,
        TruncatedFock(ModeSet(rng.uniform(0.5, 1.5, 2)), n_max),
        rng.standard_normal((n_sites, 2)),
    )


def _copies_model(n_sites, n_e, seed, u, alpha, n_max):
    """Every site carries its own copy of one random channel (4 // n_sites
    modes of random frequency), as a discretized family does: each shell
    of equal frequencies splits into relative and centre-of-mass modes."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_sites, n_sites))
    per_site = 4 // n_sites
    return CoupledModel(
        build_sector_basis(n_sites, n_e),
        HoppingMatrix(a + a.T),
        u,
        alpha,
        TruncatedFock(ModeSet(np.tile(rng.uniform(0.5, 1.5, per_site), n_sites)), n_max),
        np.kron(np.eye(n_sites), rng.standard_normal(per_site)),
    )


@pytest.mark.parametrize("n_sites, n_e", [(2, 1), (2, 2), (3, 2), (3, 3)])
def test_overlapping_channels_read_the_general_shift(n_sites, n_e):
    """Random couplings put every site on both modes, so the channels
    overlap and no common norm b exists.  The effective model H_e - alpha^2 R
    still holds: the dressed ground state, the product levels and the
    Heisenberg check all read the term-by-term oracle's shift."""
    model = _random_model(n_sites, n_e, 31 * n_sites + n_e, 1.5, 0.8, 3)
    off = model.overlap_w1 - np.diag(np.diag(model.overlap_w1))
    assert np.max(np.abs(off)) > 0.1
    he_eff = oracle_effective_electronic(model)
    levels = np.linalg.eigvalsh(he_eff)
    state, rep = dressed_ground(model)
    assert abs(rep.e0 - levels[0]) <= 1e-12
    assert np.linalg.norm(he_eff @ state.weights - levels[0] * state.weights) <= 1e-10
    grid = np.sort(np.add.outer(levels, model.fock.hb_diag()).ravel())
    product = effective_hamiltonians(model).product_lowest(6)
    assert np.max(np.abs(product - grid[:6])) <= 1e-12
    f = _unit_amplitudes(np.random.default_rng(n_e), model.fock.modes.m)
    times = (0.1, 1.0, 10.0)
    assert _close(
        heisenberg_evolution_check(model, f, times, 2, np.random.default_rng(5)),
        oracle_heisenberg(model, f, times, 2, np.random.default_rng(5)),
    )


def _exact_ladder_levels(model, k):
    """Oracle: the k lowest sums of an eigenvalue of the term-by-term
    H_e - alpha^2 R and an occupation sum sum_j n_j omega_j, every n_j < k."""
    levels = np.linalg.eigvalsh(oracle_effective_electronic(model))
    w = model.fock.modes.freqs
    sums = [np.dot(n, w) for n in itertools.product(range(k), repeat=w.size)]
    return np.sort(np.add.outer(levels, sums).ravel())[:k]


@pytest.mark.parametrize(
    "build",
    [lambda: reference_model(n_max=2), lambda: _random_model(3, 2, 65, 1.5, 0.8, 2)],
    ids=["reference", "overlapping-channels"],
)
def test_product_levels_read_the_exact_oscillator_ladder(build):
    """The product route adds the untruncated ladder of every mode: at
    n_max 2 and k 20 the levels of the box of all modes lie up to 0.33
    (reference) and 0.81 (overlapping channels) above these."""
    model = build()
    product = effective_hamiltonians(model).product_lowest(20)
    assert np.max(np.abs(product - _exact_ladder_levels(model, 20))) <= 1e-12


@pytest.mark.parametrize("route", ["direct_lowest", "transformed_lowest", "product_lowest"])
def test_levels_past_the_cap_are_refused_before_any_solve(monkeypatch, route):
    """1,500 levels ask 1,501 levels of the reference S = 0 space (27 states
    at n_max 2) and merge them with 1,500 ladder levels: 2,251,500 numbers,
    above the coupled cap.  Each route refuses before the ladder or a solve."""
    ha = effective_hamiltonians(reference_model(n_max=2))

    def unreached(*args, **kwargs):
        raise AssertionError("reached past the size check")

    monkeypatch.setattr(lang_firsov, "eigensolve", unreached)
    monkeypatch.setattr(lang_firsov, "_free_ladder", unreached)
    with pytest.raises(SizingError, match="1500 levels need 2251500 numbers at spin 0.0"):
        getattr(ha, route)(1500)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    sites_and_electrons=st.integers(2, 3).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, 2 * n - 1))
    ),
    seed=st.integers(0, 2**32 - 1),
    u=st.floats(0.0, 4.0),
    alpha=st.floats(0.1, 1.0),
    n_max=st.integers(2, 3),
    k=st.integers(1, 6),
)
def test_sector_levels_match_full_space(sites_and_electrons, seed, u, alpha, n_max, k):
    n_sites, n_e = sites_and_electrons
    for build in (_random_model, _copies_model):
        ha = effective_hamiltonians(build(n_sites, n_e, seed, u, alpha, n_max))
        assert np.max(np.abs(ha.direct_lowest(k) - direct_levels(ha, k))) <= 1e-9
        assert np.max(np.abs(ha.transformed_lowest(k) - transformed_levels(ha, k))) <= 1e-9


def _box_levels(model, k):
    """Oracle: the lowest k levels of the full-box ``h_direct`` of every
    spin space, by ARPACK, each repeated 2S+1 times."""
    levels = []
    for space in spin_spaces(model.basis):
        h = CoupledModel(
            space, model.hopping, model.u, model.alpha, model.fock, model.lam
        ).h_direct()
        mult = int(round(2 * space.s + 1))
        vals = spla.eigsh(
            h, k=-(-k // mult), which="SA", v0=np.ones(h.shape[0]),
            return_eigenvectors=False,
        )
        levels += [e for e in vals for _ in range(mult)]
    return np.sort(levels)[:k]


def _shared_mode_model(n_max):
    """2 sites, one mode each, of one shared frequency."""
    return CoupledModel(
        build_sector_basis(2, 2),
        HoppingMatrix.chain(2, -1.0),
        1.0,
        0.5,
        TruncatedFock(ModeSet([0.8, 0.8]), n_max),
        0.7 * np.eye(2),
    )


def _overlapping_model(n_max):
    """Both sites on every mode; the two modes of frequency 0.7 split."""
    return CoupledModel(
        build_sector_basis(2, 2),
        HoppingMatrix.chain(2, -1.0),
        2.0,
        0.5,
        TruncatedFock(ModeSet([0.7, 0.7, 1.3]), n_max),
        [[0.5, 0.2, 0.3], [0.1, 0.4, -0.2]],
    )


def _rank_one_model(n_max):
    """3 sites, rank-one hopping, each site its own copy of one mode."""
    v = np.array([0.8, -1.2, 0.6])
    return CoupledModel(
        build_sector_basis(3, 3),
        HoppingMatrix(np.outer(v, v)),
        3.0,
        0.5,
        TruncatedFock(ModeSet([1.1] * 3), n_max),
        0.7 * np.eye(3),
    )


@pytest.mark.parametrize(
    "build, n_max",
    [
        (_shared_mode_model, 12),
        (lambda n_max: _copies_model(3, 2, 7, 1.0, 0.4, n_max), 8),
        (_overlapping_model, 10),
        (_rank_one_model, 10),
    ],
    ids=["shared_mode", "copies", "overlapping", "rank_one"],
)
def test_direct_route_matches_converged_full_box(build, n_max):
    """The direct route solves the active modes only and adds the free
    modes' ladder and shift.  Both production routes share that split, so
    spectral_equivalence cannot see it go wrong; this test holds it to the
    direct Hamiltonian of every mode's box, at an n_max where the box has
    converged (n_max and n_max + 2 agree to 1e-12)."""
    k = 5
    box = _box_levels(build(n_max), k)
    assert np.max(np.abs(box - _box_levels(build(n_max + 2), k))) <= 1e-12
    ha = effective_hamiltonians(build(n_max))
    assert ha.free_freqs.size and ha.shift < 0.0
    assert np.max(np.abs(ha.direct_lowest(k) - box)) <= 1e-10


@pytest.mark.parametrize(
    "n_sites, n_e", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 5)]
)
def test_factored_transformed_matvec_matches_assembled(n_sites, n_e):
    rng = np.random.default_rng(n_e)
    for build in (_random_model, _copies_model):
        ha = effective_hamiltonians(build(n_sites, n_e, 100 * n_sites + n_e, 2.0, 0.7, 2))
        dense = dense_transformed(ha)
        for s, sec in ha.sectors.items():
            # the whole sector's transformed Hamiltonian restricted by Q x 1
            lift = sp.kron(sec.basis.q, sp.identity(ha.active.dim)).toarray()
            restricted = lift.T @ dense @ lift
            for _ in range(3):
                v = rng.standard_normal(lift.shape[1])
                want = restricted @ v
                got = ha.transformed_matvec(v, s) + ha.shift * v
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_battery_never_assembles_ladder_operators(monkeypatch):
    model = reference_model(n_max=4)
    state, _ = dressed_ground(model)
    ha = effective_hamiltonians(model)

    def spy(*args, **kwargs):
        raise AssertionError("boson_fock.field called")

    # field is the one assembled boson operator; lang_firsov binds it too
    for module in (boson_fock, lang_firsov):
        monkeypatch.setattr(module, "field", spy)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    verify_transform_hb(model, n_trials=1)
    verify_transform_nb(model, n_trials=1)
    annihilation_residual(model, state, f)
    heisenberg_evolution_check(model, f, n_trials=1)
    psi_e = np.zeros(model.basis.dim)
    psi_e[0] = 1.0
    overlap_formula(model, state, [f, f.conj()], psi_e)
    relative_bound_check(model.fock, model.lam[0], n_trials=2)
    ha.transformed_matvec(rng.standard_normal(ha.transformed(0.0).shape[0]), 0.0)
    with pytest.raises(AssertionError, match="field called"):
        model.h_direct()  # the spy is live


def _plain_lanczos_levels(ha, operator, k):
    """Oracle: ARPACK on each spin's operator itself (no filter), each level
    raised by every free-mode occupation of at most k - 1 quanta per mode
    and the shift, and repeated 2S+1 times."""
    occupations = itertools.product(range(k), repeat=ha.free_freqs.size)
    ladder = [np.dot(n, ha.free_freqs) + ha.shift for n in occupations]
    levels = []
    for s in ha.sectors:
        mult = int(round(2 * s + 1))
        h = operator(s)
        vals = spla.eigsh(
            h, k=-(-k // mult), which="SA", v0=np.ones(h.shape[0]),
            return_eigenvectors=False,
        )
        vals = np.sort(np.add.outer(vals, ladder).ravel())[: -(-k // mult)]
        levels += [e for e in vals for _ in range(mult)]
    return np.sort(levels)[:k]


def test_coupled_levels_match_plain_lanczos():
    ha = effective_hamiltonians(reference_model(n_max=4))
    for levels, operator in (
        (ha.direct_lowest(5), ha.direct),
        (ha.transformed_lowest(5), ha.transformed),
    ):
        oracle = _plain_lanczos_levels(ha, operator, 5)
        assert np.max(np.abs(levels - oracle)) <= 1e-10


def test_sector_levels_restore_triplet():
    # strong u: the triplet sits just above the singlet ground state
    model = CoupledModel(
        build_sector_basis(2, 2),
        HoppingMatrix.chain(2, -1.0),
        6.0,
        0.3,
        TruncatedFock(ModeSet([0.7, 1.1]), 3),
        [[0.5, 0.2], [0.2, 0.5]],
    )
    ha = effective_hamiltonians(model)
    for levels, full in (
        (ha.direct_lowest(5), model.h_direct().toarray()),
        (ha.transformed_lowest(5), dense_transformed(ha)),
    ):
        assert np.max(np.abs(levels - np.linalg.eigvalsh(full)[:5])) <= 1e-9
        assert levels[1] - levels[0] > 1e-2
        assert np.ptp(levels[1:4]) <= 1e-10  # one S = 1 multiplet
        assert levels[4] - levels[3] > 1e-2


@pytest.mark.parametrize("n_max", [2, 4])
def test_degenerate_levels_within_one_spin_are_all_returned(n_max):
    """The reference S = 1 space is two identical one-site problems (no hop
    reaches it), so its levels pair up exactly; with weak hopping they fall
    among the lowest.  Both routes must return every copy of a pair: the
    direct one by a dense solve of its active space (75 states for S = 0
    at n_max 4), the transformed one by single-vector Lanczos."""
    ha = effective_hamiltonians(reference_model(t=-0.1, u=4.0, n_max=n_max))
    k = 12
    direct = direct_levels(ha, k)
    transformed = transformed_levels(ha, k)
    # an S = 1 pair among the k levels: six equal values
    runs = np.split(direct, np.flatnonzero(np.diff(direct) > 1e-9) + 1)
    assert [len(r) for r in runs] == [1, 3, 1, 1, 6]
    assert np.max(np.abs(ha.direct_lowest(k) - direct)) <= 1e-9
    assert np.max(np.abs(ha.transformed_lowest(k) - transformed)) <= 1e-9


def test_active_frame_splits_shared_shells_only():
    """Each reference frequency is carried by both sites' copies of the
    channel, and a hop displaces only their difference: 2 active and 2 free
    modes.  Every g_x - g_y lies in the active span; distinct frequencies
    keep every mode, unrotated."""
    for model, n_free in ((M6, 2), (_copies_model(3, 2, 7, 1.0, 0.5, 1), 1)):
        freqs = model.fock.modes.freqs
        rotation, active, free, _ = active_frame(model)
        assert free.size == n_free
        assert rotation.shape == (freqs.size, freqs.size - n_free) == (freqs.size, active.size)
        assert np.max(np.abs(rotation.T @ rotation - np.eye(active.size))) <= 1e-15
        for column, w in zip(rotation.T, active):
            assert np.all(freqs[column != 0] == w)
        for x, y in zip(*np.triu_indices(model.basis.n_sites, 1)):
            diff = model.g[x] - model.g[y]
            assert np.max(np.abs(diff - rotation @ (rotation.T @ diff))) <= 1e-14
    model = _random_model(3, 2, 5, 1.0, 0.5, 2)
    rotation, active, free, shift = active_frame(model)
    assert np.array_equal(rotation, np.eye(2))
    assert np.array_equal(active, model.fock.modes.freqs)
    assert free.size == 0 and shift == 0.0


@pytest.mark.parametrize("kappa", [1e-3, 1e-4, 1e-6, 1e-8])
def test_transformed_route_agrees_with_direct_at_small_kappa(kappa):
    """A total-quanta transformed list carried a spurious level 2.2e-2 below
    the ground level at kappa 1e-3, whose soft mode costs 0.005 a quantum.
    The active modes keep a per-mode box, so at n_max 12 the two routes
    agree to the reference config's equivalence tolerance, down to kappa
    1e-8.  Both solve 507- and 169-state active spaces, about 0.1 s a
    case."""
    ha = effective_hamiltonians(reference_model(kappa=kappa, n_max=12))
    gap = np.max(np.abs(ha.transformed_lowest(5) - ha.direct_lowest(5)))
    assert gap <= load_config(None)["tolerances"]["equivalence"]


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_small_active_boxes_return_every_level_asked_for(n_max):
    """At n_max 1 the reference S = 1 active space holds 4 states, and with
    one mode of omega 3 per site only 2, while k = 12 asks for 4 levels of
    S = 1, more than ARPACK's dim - 2: such a solve runs dense, and every
    spin gives the levels it owes.  With omega 3 the free ladder's first
    step lies above active levels that a capped solve would miss."""
    one_mode = CoupledModel(
        build_sector_basis(2, 2),
        HoppingMatrix.chain(2, -1.0),
        1.0,
        0.8,
        TruncatedFock(ModeSet([3.0, 3.0]), n_max),
        0.9 * np.eye(2),
    )
    for model, active_modes in ((reference_model(n_max=n_max), 2), (one_mode, 1)):
        ha = effective_hamiltonians(model)
        assert ha.transformed(1.0).shape[0] == (n_max + 1) ** active_modes
        for k in (5, 12):
            levels = ha.transformed_lowest(k)
            assert levels.size == k
            assert np.max(np.abs(levels - transformed_levels(ha, k))) <= 1e-9


def test_sector_operators_are_csr_below_the_dense_crossover():
    """The 6-state reference sector, far below DENSE_MAX, still gets CSR
    operators: only the eigensolver densifies."""
    basis = M6.basis
    assert basis.dim == 6
    ops = [
        build_hubbard(basis, M6.hopping, M6.u),
        *build_spin_operators(basis),
        M6.effective_electronic(),
    ]
    assert [op.format for op in ops] == ["csr"] * 6
    assert all(sp.issparse(op) for op in ops)


def test_direct_data_is_contiguous_real():
    ha = effective_hamiltonians(M6)
    data = ha.direct(0.0).data
    assert data.dtype == np.float64 and data.flags.c_contiguous


def test_overlap_formula_matches_matrix_route():
    rng = np.random.default_rng(47)
    for c in (0, 2):
        psi_e = np.zeros(M12.basis.dim)
        psi_e[c] = 1.0
        st = dress_state(M12, psi_e)
        for n in (0, 1, 2):
            fs = [
                rng.standard_normal(4) + 1j * rng.standard_normal(4)
                for _ in range(n)
            ]
            res = overlap_formula(M12, st, fs, psi_e)
            assert res.difference < 1e-9


def test_overlap_formula_needs_definite_configuration():
    st, _ = dressed_ground(M12)
    mixed = np.full(M12.basis.dim, M12.basis.dim**-0.5)
    with pytest.raises(ValidationError):
        overlap_formula(M12, st, [], mixed)


def test_number_expectation_two_routes():
    st, _ = dressed_ground(M12)
    arithmetic = nb_expectation(st)
    v = st.vector()
    nb_full = np.tile(M12.fock.nb_diag(), M12.basis.dim)
    matrix = float(np.real(np.vdot(v, nb_full * v)))
    assert abs(arithmetic - matrix) < 1e-9


# -- row-streamed checks against their full-stack oracles ----------------------


def _one_configuration(model, c):
    psi_e = np.zeros(model.basis.dim, dtype=complex)
    psi_e[c] = 1.0
    return psi_e


def _unit_amplitudes(rng, m):
    f = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return f / np.linalg.norm(f)


def _close(got, want, rel=1e-12):
    return abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("n_max", [1, 2, 3, 6, 8, "overlapping"])
def test_streamed_checks_match_full_stack_oracles(n_max):
    """At n_max 1-3 the trials' support box is the whole box, above it a
    sub-box; "overlapping" is a 3-site model whose site channels share both
    of its modes, at n_max 5."""
    if n_max == "overlapping":
        model = _random_model(3, 2, 17, 1.5, 0.8, 5)
    else:
        model = reference_model(n_max=n_max)
    assert _close(
        verify_transform_hb(model, 3, np.random.default_rng(1)),
        oracle_transform_hb(model, 3, np.random.default_rng(1)),
    )
    rep = verify_transform_nb(model, 3, np.random.default_rng(2))
    worst, coef = oracle_transform_nb(model, 3, np.random.default_rng(2))
    assert _close(rep.residual, worst)
    assert _close(rep.linear_fit, coef[0]) and _close(rep.quadratic_fit, coef[1])
    rng = np.random.default_rng(3)
    ground, _ = dressed_ground(model)
    states = [ground, dress_state(model, _one_configuration(model, 2))]
    for state in states:
        for _ in range(2):
            f = _unit_amplitudes(rng, model.fock.modes.m)
            assert _close(
                annihilation_residual(model, state, f), oracle_annihilation(model, state, f)
            )
    f = _unit_amplitudes(rng, model.fock.modes.m)
    times = (0.1, 1.0, 10.0)
    assert _close(
        heisenberg_evolution_check(model, f, times, 2, np.random.default_rng(4)),
        oracle_heisenberg(model, f, times, 2, np.random.default_rng(4)),
    )
    fs = [_unit_amplitudes(rng, model.fock.modes.m) for _ in range(2)]
    for c in range(model.basis.dim):
        psi_e = _one_configuration(model, c)
        for n in range(3):
            got = overlap_formula(model, ground, fs[:n], psi_e).numeric
            assert _close(got, oracle_overlap_numeric(model, ground, fs[:n], psi_e))


def _traced_peak(fn, *args):
    """Peak traced allocation of ``fn(*args)`` above what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_streamed_checks_hold_at_most_half_the_oracle_memory():
    """Peak traced memory of each check against its full-stack oracle, with
    every cache warmed by an untraced run of both."""
    model = reference_model(n_max=10)
    state, _ = dressed_ground(model)
    rng = np.random.default_rng(5)
    f = _unit_amplitudes(rng, model.fock.modes.m)
    fs = [_unit_amplitudes(rng, model.fock.modes.m) for _ in range(2)]
    psi_e = _one_configuration(model, int(np.argmax(np.abs(state.weights))))
    rng_of = np.random.default_rng
    pairs = {
        "transform_hb": (
            lambda: verify_transform_hb(model, 3, rng_of(6)),
            lambda: oracle_transform_hb(model, 3, rng_of(6)),
        ),
        "transform_nb": (
            lambda: verify_transform_nb(model, 3, rng_of(7)),
            lambda: oracle_transform_nb(model, 3, rng_of(7)),
        ),
        "annihilation": (
            lambda: annihilation_residual(model, state, f),
            lambda: oracle_annihilation(model, state, f),
        ),
        "heisenberg": (
            lambda: heisenberg_evolution_check(model, f, (0.1, 1.0), 2, rng_of(8)),
            lambda: oracle_heisenberg(model, f, (0.1, 1.0), 2, rng_of(8)),
        ),
        "overlap": (
            lambda: overlap_formula(model, state, fs, psi_e),
            lambda: oracle_overlap_numeric(model, state, fs, psi_e),
        ),
    }
    peaks = {}
    for name, (streamed, oracle) in pairs.items():
        streamed(), oracle()
        peaks[name] = _traced_peak(streamed), _traced_peak(oracle)
    print({name: (f"{s / 2**20:.2f}", f"{o / 2**20:.2f}") for name, (s, o) in peaks.items()})
    for name, (streamed_peak, oracle_peak) in peaks.items():
        assert streamed_peak <= 0.5 * oracle_peak, name
