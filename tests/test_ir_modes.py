"""Infrared mode families: closed-form norms, quadrature discretization and
the cutoff-removal limit of Weyl expectation values.

The coupling density is F(k) = k^beta on [kappa, K] with dispersion
omega(k) = k, one independent channel per lattice site.  Everything the
quadrature produces is checked against closed antiderivatives.
"""

import numpy as np
import pytest

from hubbard_phonon import ir_modes
from hubbard_phonon.errors import (
    AccuracyError,
    DiscretizationError,
    InfraredDivergenceError,
    ValidationError,
)
from hubbard_phonon.boson_fock import ModeSet, TruncatedFock, coherent_weyl_overlap
from hubbard_phonon.lattice_fermions import HoppingMatrix, build_hubbard, build_sector_basis
from hubbard_phonon.lang_firsov import CoupledModel, dressed_ground, reference_model
from hubbard_phonon.ir_modes import (
    CutoffFamily,
    _continuum_bilinears,
    _weyl_functional,
    b_kappa,
    discretize,
    divergence_report,
    limit_state,
    norm_omega_power,
    overlap_decay_curve,
    weyl_state,
)

from fock_oracles import apply_weyl, quad_log_rule

CHAIN2 = HoppingMatrix.chain(2)


def weyl_state_matrix(model, a_e, f):
    """Oracle: <Psi, (A_e x W(f)) Psi> with the dressed ground state
    materialized on the truncated space and W(f) applied mode by mode; it
    agrees with the pairwise closed form to the coherent tail mass."""
    state, _ = dressed_ground(model)
    vec = state.vector().reshape(model.basis.dim, model.fock.dim)
    wv = apply_weyl(model.fock, np.asarray(f, dtype=complex), vec)
    return complex(np.vdot(vec.reshape(-1), (np.asarray(a_e) @ wv).reshape(-1)))


def test_norm_closed_vs_quadrature(monkeypatch):
    # the rule runs in ln k, so it also holds at tiny cutoffs, where a
    # singular integrand's mass sits next to kappa; scipy's adaptive quad in
    # ln k is its oracle, at kappa = 0 on every convergent (beta, s) and at
    # the edges beta 40 and kappa 1e-300
    for beta in (0.3, 0.5, 0.8, 40.0):
        fam = CutoffFamily(beta=beta, big_k=1.0)
        for s in (0.0, 0.5, 1.0):
            a = 2.0 * (beta - s) + 1.0
            for kappa in (0.0, 1e-300, 1e-12, 1e-8, 1e-4, 1e-2, 1e-1):
                if kappa == 0.0 and a <= 0.0:
                    continue
                nv = norm_omega_power(fam, s, kappa)
                rel = abs(nv.closed - nv.quadrature) / max(abs(nv.closed), 1e-300)
                assert rel <= 1e-10
                quad = quad_log_rule(a, np.log(kappa) if kappa else -np.inf, 0.0)
                assert abs(quad - nv.quadrature) <= 1e-13 * abs(nv.closed)
    # p + 1 = 2^-51 at kappa = 0, where the adaptive quad from -inf fails
    nv = norm_omega_power(CutoffFamily(beta=0.5 + 2.0**-52), 1.0, 0.0)
    assert abs(nv.quadrature - nv.closed) <= 1e-13 * nv.closed
    # a closed form off by 1e-9 relative fails the check
    closed = ir_modes._closed_power_integral
    monkeypatch.setattr(
        ir_modes, "_closed_power_integral", lambda *args: closed(*args) * (1.0 + 1e-9)
    )
    for kappa in (1e-300, 1e-4):
        with pytest.raises(AccuracyError, match="disagree beyond 1e-10"):
            norm_omega_power(CutoffFamily(beta=0.3), 1.0, kappa)


def test_reference_channel_anchors():
    fam = CutoffFamily(beta=0.5, big_k=1.0)
    assert abs(b_kappa(fam, 0.1) ** 2 - 0.9) < 1e-14
    assert abs(norm_omega_power(fam, 1.0, 0.1).value - np.log(10.0)) < 1e-12


def test_singularity_classes():
    assert CutoffFamily(beta=0.3).singularity_class == "PowerSingular"
    assert CutoffFamily(beta=0.5).singularity_class == "LogSingular"
    assert CutoffFamily(beta=0.8).singularity_class == "Regular"


def test_zero_cutoff_divergence():
    fam = CutoffFamily(beta=0.5, big_k=1.0)
    with pytest.raises(InfraredDivergenceError) as err:
        norm_omega_power(fam, 1.0, 0.0)
    assert err.value.divergence_class == "LogSingular"
    # beta > 1/2 keeps omega^-1 integrable down to zero
    reg = norm_omega_power(CutoffFamily(beta=0.8), 1.0, 0.0)
    assert abs(reg.value - 1.0 / 0.6) < 1e-10
    # and the plain norm (s = 0) never diverges
    assert norm_omega_power(fam, 0.0, 0.0).value == pytest.approx(0.5)


def test_discretize_moment_exactness():
    # the m-node rule must integrate omega^(-2s) |lambda|^2 exactly for
    # s in {0, 1/2, 1}; these are the only moments the models consume
    for beta in (0.3, 0.5, 0.8):
        fam = CutoffFamily(beta=beta, big_k=1.0)
        for m in (2, 3, 6):
            disc = discretize(fam, 0.01, m)
            lam = disc.couplings[0]
            k = disc.modes.freqs
            for s in (0.0, 0.5, 1.0):
                got = np.sum(np.abs(lam) ** 2 / k ** (2 * s))
                want = norm_omega_power(fam, s, 0.01).closed
                assert abs(got - want) <= 1e-11 * abs(want)


def test_discretize_validation():
    fam = CutoffFamily(beta=0.5, big_k=1.0)
    with pytest.raises(ValidationError):
        discretize(fam, 0.0, 4)
    with pytest.raises(ValidationError):
        discretize(fam, 2.0, 4)  # cutoff above K
    with pytest.raises(DiscretizationError):
        discretize(fam, 0.1, 1)  # cannot match the s = 1 moment
    with pytest.raises(DiscretizationError):
        discretize(fam, 0.1, 13)


def test_disjoint_site_channels():
    fam = CutoffFamily(beta=0.5, big_k=1.0)
    disc = discretize(fam, 0.1, 3, n_sites=2)
    lam = disc.couplings
    assert lam.shape == (2, 6)
    # site x couples only to its own block of modes
    assert np.max(np.abs(lam[0, 3:])) == 0.0
    assert np.max(np.abs(lam[1, :3])) == 0.0


def test_mode_vector_bilinears_exact():
    # for profiles F(k) = c sqrt(k) every bilinear the package forms is a
    # polynomial moment the rule integrates exactly
    fam = CutoffFamily(beta=0.5, big_k=1.0)
    kappa = 0.1
    disc = discretize(fam, kappa, 2, n_sites=2)
    cs = (0.7, 1.3)
    f = disc.mode_vector([lambda k, c=c: c * np.sqrt(k) for c in cs])
    g = disc.couplings / disc.modes.freqs
    for x, c in enumerate(cs):
        block = disc.couplings[x] != 0  # site x's own modes
        want_fg = c * (1.0 - kappa)  # integral of c sqrt(k) k^beta / k
        got_fg = np.vdot(f, g[x]).real  # g[x] vanishes off its own block
        assert abs(got_fg - want_fg) < 1e-12
        want_ff = c**2 * 0.5 * (1.0 - kappa**2)  # integral of c^2 k
        got_ff = np.vdot(f[block], f[block]).real
        assert abs(got_ff - want_ff) < 1e-12


def test_divergence_report_rates():
    rows, fitted, expected = divergence_report(CutoffFamily(beta=0.5))
    assert expected == 1.0
    assert abs(fitted - expected) < 0.02
    assert [r[0] for r in rows] == [1e-1, 1e-2, 1e-3, 1e-4]
    _, fitted_p, expected_p = divergence_report(CutoffFamily(beta=0.3))
    assert expected_p == pytest.approx(-0.4)
    assert abs(fitted_p - expected_p) < 0.05
    _, fitted_r, expected_r = divergence_report(CutoffFamily(beta=0.8))
    assert expected_r == 0.0
    assert abs(fitted_r) < 0.02


def test_weyl_state_routes_agree():
    fam = CutoffFamily(beta=0.5, big_k=1.0)
    m = CoupledModel.from_family(2, 2, CHAIN2, 1.0, 0.5, fam, 0.1,
                                 modes_per_site=2, n_max=14)
    rng = np.random.default_rng(51)
    a_e = rng.standard_normal((6, 6))
    a_e = 0.5 * (a_e + a_e.T)
    disc = discretize(fam, 0.1, 2, n_sites=2)
    f = disc.mode_vector([lambda k: 0.8 * np.sqrt(k), lambda k: 0.5 * np.sqrt(k)])
    assert abs(weyl_state(m, a_e, f) - weyl_state_matrix(m, a_e, f)) < 1e-6


def _pairwise_weyl(psi, z, a_e, f):
    """Oracle: sum over c, c2 of conj(psi_c) psi_c2 (A_e)_{c c2}
    <z_c|W(f)|z_c2>, one coherent_weyl_overlap per pair."""
    return sum(
        np.conj(psi[c]) * psi[c2] * a_e[c, c2] * coherent_weyl_overlap(z[c], z[c2], f)
        for c in range(len(psi))
        for c2 in range(len(psi))
    )


def _overlapping_model(seed):
    """2 sites on 3 shared modes of random couplings: the channels overlap."""
    rng = np.random.default_rng(seed)
    return CoupledModel(
        build_sector_basis(2, 2), CHAIN2, 1.0, 0.7,
        TruncatedFock(ModeSet(rng.uniform(0.5, 1.5, 3)), 0),
        rng.standard_normal((2, 3)),
    )


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("name", ["reference", "overlapping"])
def test_weyl_state_matches_the_pairwise_oracle(name):
    m = reference_model(n_max=0) if name == "reference" else _overlapping_model(54)
    rng = np.random.default_rng(55)
    a_e = _complex(rng, m.basis.dim, m.basis.dim)
    f = _complex(rng, m.fock.modes.m)
    state, _ = dressed_ground(m)
    want = _pairwise_weyl(state.weights, m.z_table(), a_e, f)
    assert abs(weyl_state(m, a_e, f) - want) < 1e-13


def test_regular_limit_matches_the_pairwise_oracle():
    """At kappa = 0 a regular family's clouds are finite: each site channel
    spans the g direction (norm ||g||^2(0)) and the part of f orthogonal
    to it, and the pairwise oracle over that span gives limit_state."""
    fam, alpha = CutoffFamily(beta=0.8), 0.7
    profiles = [lambda k: 0.9 * k**0.8, lambda k: 0.6 * np.sqrt(k)]
    fg, ff = _continuum_bilinears(fam, profiles)
    g2 = norm_omega_power(fam, 1.0, 0.0).closed
    basis = build_sector_basis(2, 2)
    z = np.zeros((basis.dim, 4))
    z[:, 0::2] = -(alpha / np.sqrt(2.0)) * basis.occupations() * np.sqrt(g2)
    f = np.zeros(4)
    f[0::2] = fg / np.sqrt(g2)
    f[1::2] = np.sqrt(ff - fg**2 / g2)
    h = build_hubbard(basis, CHAIN2, 1.0 - (alpha * b_kappa(fam, 0.0)) ** 2)
    psi = np.linalg.eigh(h.toarray())[1][:, 0]  # the unique singlet
    a_e = _complex(np.random.default_rng(57), basis.dim, basis.dim)
    got = limit_state(fam, CHAIN2, 2, 1.0, alpha, a_e, profiles)
    assert abs(got - _pairwise_weyl(psi, z, a_e, f)) < 1e-13


def test_singular_limit_is_the_finite_form_at_a_large_gram():
    """At W2 = 1e4 1 the cross terms between different occupation patterns
    underflow to zero and equal patterns cancel their Gram terms exactly,
    so the finite form is the singular one (W2 None) bit for bit."""
    basis = build_sector_basis(3, 3)
    nu = basis.occupations()
    rng = np.random.default_rng(56)
    psi, a_e = _complex(rng, basis.dim), _complex(rng, basis.dim, basis.dim)
    fg = rng.standard_normal(3)
    singular = _weyl_functional(psi, a_e, nu, None, fg, 0.8, 0.7)
    assert singular == _weyl_functional(psi, a_e, nu, 1e4 * np.eye(3), fg, 0.8, 0.7)
    assert abs(singular - _weyl_functional(psi, a_e, nu, np.eye(3), fg, 0.8, 0.7)) > 1e-3


def test_weyl_inputs_must_match_the_model():
    with pytest.raises(ValidationError, match="one amplitude per mode"):
        weyl_state(reference_model(n_max=0), np.eye(6), [0.3])
    with pytest.raises(ValidationError, match="one profile"):
        limit_state(CutoffFamily(beta=0.5), CHAIN2, 2, 1.0, 0.5, np.eye(6),
                    [lambda k: np.sqrt(k)])


def test_limit_state_is_kappa_limit_regular():
    # beta > 1/2: the dressed states converge in norm and the limit keeps
    # the full pairwise coherent structure.  Profiles proportional to the
    # coupling density keep every consumed bilinear an exactly matched
    # quadrature moment at any beta.
    fam = CutoffFamily(beta=0.8, big_k=1.0)
    rng = np.random.default_rng(52)
    a_e = rng.standard_normal((6, 6))
    a_e = 0.5 * (a_e + a_e.T)
    profiles = [lambda k: 0.9 * k**0.8, lambda k: 0.6 * k**0.8]
    lim = limit_state(fam, CHAIN2, 2, 1.0, 0.7, a_e, profiles)
    diffs = []
    for kappa in (1e-1, 1e-2, 1e-3):
        m = CoupledModel.from_family(2, 2, CHAIN2, 1.0, 0.7, fam, kappa,
                                     modes_per_site=2, n_max=0)
        f = discretize(fam, kappa, 2, n_sites=2).mode_vector(profiles)
        diffs.append(abs(weyl_state(m, a_e, f) - lim))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 0.1 * diffs[0]


def test_limit_state_singular_decoheres():
    # at beta = 1/2 only matrix elements between equal occupation patterns
    # survive; convergence of the functional coexists with the overlap to
    # any fixed dressed reference going to zero
    fam = CutoffFamily(beta=0.5, big_k=1.0)
    rng = np.random.default_rng(53)
    a_e = rng.standard_normal((6, 6))
    a_e = 0.5 * (a_e + a_e.T)
    profiles = [lambda k: 0.9 * np.sqrt(k), lambda k: 0.6 * np.sqrt(k)]
    lim = limit_state(fam, CHAIN2, 2, 1.0, 0.7, a_e, profiles)
    diffs, vac = [], []
    for kappa in (1e-1, 1e-2, 1e-3):
        m = CoupledModel.from_family(2, 2, CHAIN2, 1.0, 0.7, fam, kappa,
                                     modes_per_site=2, n_max=0)
        f = discretize(fam, kappa, 2, n_sites=2).mode_vector(profiles)
        diffs.append(abs(weyl_state(m, a_e, f) - lim))
        st, _ = dressed_ground(m)
        znorm2 = np.sum(np.abs(st.z) ** 2, axis=1)
        vac.append(float(np.sum(np.abs(st.weights) ** 2 * np.exp(-0.5 * znorm2))))
    assert diffs[0] > diffs[1] > diffs[2]
    assert vac[0] > vac[1] > vac[2]


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6])
def test_limit_state_resolves_a_profile_near_zero(eps):
    """The non-Fock witness f_eps = c k^(-1/2) on (eps^2, eps) with
    c = theta / ln(1/eps): <f_eps, g> = theta at every eps while
    ||f_eps||^2 = theta^2 / ln(1/eps).  At beta = 1/2 the limit state is
    sum_c |psi_c|^2 exp(-i alpha nu_c0 theta) exp(-||f||^2 / 4) for A_e = 1,
    with psi the effective ground state at u - (alpha b(0))^2."""
    fam = CutoffFamily(beta=0.5, big_k=1.0)
    theta, alpha, u = 2.0, 0.5, 1.0
    c = theta / np.log(1.0 / eps)
    profiles = [lambda k: c / np.sqrt(k) if eps**2 < k < eps else 0.0, None]
    fg, ff = _continuum_bilinears(fam, profiles)
    assert abs(fg[0] - theta) <= 1e-12
    assert abs(ff[0] - theta**2 / np.log(1.0 / eps)) <= 1e-12
    basis = build_sector_basis(2, 2)
    h = build_hubbard(basis, CHAIN2, u - (alpha * b_kappa(fam, 0.0)) ** 2)
    psi = np.linalg.eigh(h.toarray())[1][:, 0]  # the unique singlet
    nu0 = basis.occupations()[:, 0]
    want = np.sum(np.abs(psi) ** 2 * np.exp(-1j * alpha * nu0 * theta)) * np.exp(
        -0.25 * theta**2 / np.log(1.0 / eps)
    )
    got = limit_state(fam, CHAIN2, 2, u, alpha, np.eye(basis.dim), profiles)
    assert abs(got - want) <= 1e-12


def test_overlap_decay_curve_single_electron():
    # one electron: |<psi (x) vacuum, dressed ground>| = (kappa/K)^(a^2/4)
    fam = CutoffFamily(beta=0.5, big_k=1.0)
    curve = overlap_decay_curve(fam, CHAIN2, 1, 1.0, 0.5)
    for kappa, val in curve:
        assert abs(val - kappa**(0.5**2 / 4)) < 1e-12
