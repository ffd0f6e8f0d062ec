"""Polaron dressing: generator algebra, transformation identities, dressed
states and the two assembled forms of the transformed Hamiltonian.

The displacement-block route is the production path; the matrix-exponential
route and the commutator ladder below are its independent oracles.
"""

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
from hubbard_phonon.lang_firsov import (
    TRIAL_OCCUPATION,
    CoupledModel,
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
    hopping_moves,
)

M6 = reference_model(n_max=6)
M12 = reference_model(n_max=12)


def build_generator(model):
    """Oracle: sparse S = sum_x n_x x phi(i g_x), so that V = expm(i alpha S)."""
    s = sp.csr_matrix((model.dim, model.dim), dtype=complex)
    for x in range(model.basis.n_sites):
        nx = sp.diags(model.nu[:, x])
        s = s + sp.kron(nx, field(model.fock, 1j * model.g[x]), format="csr")
    return s.tocsr()


def unitary_V(model, method):
    """Oracle: the dense dressing unitary, as the exponential of the
    generator (``expm``) or assembled from the per-configuration
    displacement blocks (``displacement``)."""
    if method == "expm":
        return expm(1j * model.alpha * build_generator(model).toarray())
    blocks = [
        mode_kron([displacement_1mode(zj, model.fock.n_max) for zj in zc])
        for zc in model.z_table()
    ]
    return sp.block_diag(blocks).toarray()


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


def test_transform_number_identity_and_coefficients():
    rep = verify_transform_nb(M12, n_trials=3)
    assert rep.residual < 1e-3
    assert abs(rep.linear_fit - rep.linear_exact) < 1e-5
    assert abs(rep.quadratic_fit - rep.quadratic_exact) < 1e-5
    # the measured quadratic coefficient is alpha^2/2, not alpha^2
    assert abs(rep.quadratic_fit - rep.alpha_squared) > 0.1


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


def _dense_transformed(model):
    """The transformed Hamiltonian assembled entry block by entry block."""
    b = model.fock.dim
    diag = np.add.outer(
        model.he.diagonal() - model.alpha**2 * model.r_diag(), model.fock.hb_diag()
    )
    h = np.diag(diag.ravel())
    for x, y, src, dst, amp in zip(*hopping_moves(model.basis, model.hopping)):
        z = (model.alpha / np.sqrt(2.0)) * (model.g[x] - model.g[y])
        d = mode_kron([displacement_1mode(zj, model.fock.n_max) for zj in z])
        h[dst * b : (dst + 1) * b, src * b : (src + 1) * b] += amp * d.real
    return h


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
    model = _random_model(n_sites, n_e, seed, u, alpha, n_max)
    ha = effective_hamiltonians(model)
    direct = np.linalg.eigvalsh(model.h_direct().toarray())[:k]
    transformed = np.linalg.eigvalsh(_dense_transformed(model))[:k]
    assert np.max(np.abs(ha.direct_lowest(k) - direct)) <= 1e-9
    assert np.max(np.abs(ha.transformed_lowest(k) - transformed)) <= 1e-9


@pytest.mark.parametrize(
    "n_sites, n_e", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 5)]
)
def test_factored_transformed_matvec_matches_assembled(n_sites, n_e):
    model = _random_model(n_sites, n_e, 100 * n_sites + n_e, 2.0, 0.7, 2)
    ha = effective_hamiltonians(model)
    dense = _dense_transformed(model)
    rng = np.random.default_rng(n_e)
    for s, sec in ha.sectors.items():
        # the whole sector's transformed Hamiltonian restricted by Q x 1
        lift = sp.kron(sec.basis.q, sp.identity(sec.fock.dim)).toarray()
        restricted = lift.T @ dense @ lift
        for _ in range(3):
            v = rng.standard_normal(sec.dim)
            want = restricted @ v
            got = ha.transformed_matvec(v, s)
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
    ha.transformed_matvec(rng.standard_normal(ha.sectors[0.0].dim), 0.0)
    with pytest.raises(AssertionError, match="field called"):
        model.h_direct()  # the spy is live


def _plain_lanczos_levels(ha, operator, k):
    """Oracle: ARPACK on each spin's operator itself (no filter), each level
    repeated 2S+1 times."""
    levels = []
    for s, sec in ha.sectors.items():
        mult = int(round(2 * s + 1))
        vals = spla.eigsh(
            operator(s), k=-(-k // mult), which="SA", v0=np.ones(sec.dim),
            return_eigenvectors=False,
        )
        levels += [e for e in vals for _ in range(mult)]
    return np.sort(levels)[:k]


def test_coupled_levels_match_plain_lanczos():
    ha = effective_hamiltonians(reference_model(n_max=4))
    for levels, operator in (
        (ha.direct_lowest(5), ha.direct),
        (ha.transformed_lowest(5), ha.transformed),
    ):
        assert np.max(np.abs(levels - _plain_lanczos_levels(ha, operator, 5))) <= 1e-10
    full = spla.eigsh(ha.model.h_direct(), k=5, which="SA", return_eigenvectors=False)
    assert np.max(np.abs(ha.direct_lowest(5) - np.sort(full))) <= 1e-10


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
        (ha.transformed_lowest(5), _dense_transformed(model)),
    ):
        assert np.max(np.abs(levels - np.linalg.eigvalsh(full)[:5])) <= 1e-9
        assert levels[1] - levels[0] > 1e-2
        assert np.ptp(levels[1:4]) <= 1e-10  # one S = 1 multiplet
        assert levels[4] - levels[3] > 1e-2


@pytest.mark.parametrize("n_max", [2, 4])
def test_degenerate_levels_within_one_spin_are_all_returned(n_max):
    """The reference S = 1 space is two identical one-site problems (no hop
    reaches it), so its levels pair up exactly; with weak hopping they fall
    among the lowest.  Both routes must return every copy of a pair, by
    single-vector Lanczos at n_max 4 (and always on the transformed route)."""
    model = reference_model(t=-0.1, u=4.0, n_max=n_max)
    ha = effective_hamiltonians(model)
    k = 12
    direct = np.linalg.eigvalsh(model.h_direct().toarray())[:k]
    transformed = np.linalg.eigvalsh(_dense_transformed(model))[:k]
    # an S = 1 pair among the k levels: six equal values
    runs = np.split(direct, np.flatnonzero(np.diff(direct) > 1e-9) + 1)
    assert [len(r) for r in runs] == [1, 3, 1, 1, 6]
    assert np.max(np.abs(ha.direct_lowest(k) - direct)) <= 1e-9
    assert np.max(np.abs(ha.transformed_lowest(k) - transformed)) <= 1e-9


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


@pytest.mark.parametrize("n_max", [6, 8])
def test_streamed_checks_match_full_stack_oracles(n_max):
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
