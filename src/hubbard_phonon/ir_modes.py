"""Infrared coupling families, their discretization and the cutoff limit.

A family carries the one-dimensional dispersion omega(k) = k and coupling
density lambda(k) = k**beta on the momentum window [kappa, K], one
independent channel per lattice site.  Discretization is moment-matched:
under u = 1/k the weighted moments become Hankel data for a small Gauss
rule, so the inner products <lambda/omega**s, lambda/omega**s> that the
transformation identities consume are reproduced exactly (up to machine
precision) by a handful of modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .boson_fock import ModeSet, coherent_weyl_overlap
from .errors import (
    AccuracyError,
    DiscretizationError,
    InfraredDivergenceError,
    ValidationError,
)
from .lang_firsov import CoupledModel, dressed_ground
from .lattice_fermions import build_hubbard, build_sector_basis
from .magnetism import effective_params, spin_ground_space

DEFAULT_KAPPAS = (1e-1, 1e-2, 1e-3, 1e-4)

__all__ = [
    "CutoffFamily",
    "NormValue",
    "norm_omega_power",
    "b_kappa",
    "Discretization",
    "discretize",
    "weyl_state",
    "limit_state",
    "overlap_decay_curve",
    "divergence_report",
    "DEFAULT_KAPPAS",
]


@dataclass(frozen=True)
class CutoffFamily:
    """Coupling density k**beta on [kappa, K] with dispersion omega(k) = k."""

    beta: float
    big_k: float = 1.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValidationError("beta must be positive")
        if self.big_k <= 0:
            raise ValidationError("momentum ceiling K must be positive")

    @property
    def singularity_class(self) -> str:
        """Behaviour of ||lambda/omega||^2 as the cutoff is removed."""
        if self.beta > 0.5:
            return "Regular"
        if self.beta == 0.5:
            return "LogSingular"
        return "PowerSingular"


@dataclass
class NormValue:
    """Closed-form and adaptive-quadrature values of a coupling norm."""

    closed: float
    quadrature: float

    @property
    def value(self) -> float:
        return self.closed


def _closed_power_integral(p: float, lo: float, hi: float) -> float:
    if abs(p + 1.0) < 1e-14:
        return float(np.log(hi / lo))
    return float((hi ** (p + 1.0) - lo ** (p + 1.0)) / (p + 1.0))


def norm_omega_power(family: CutoffFamily, s: float, kappa: float) -> NormValue:
    """||omega**(-s) lambda||^2 = int_kappa^K k**(2(beta-s)) dk, two ways.

    The closed form and an adaptive quadrature are both returned and must
    agree to 1e-10 relative.  The quadrature integrates e^((p+1) v) over
    v = ln k in (ln kappa, ln K), -inf at kappa = 0: a singular k**p puts
    its mass next to a tiny kappa, where a rule in k misses it, while the
    integrand in v is smooth at every cutoff.  At kappa = 0 a divergent
    integral raises :class:`InfraredDivergenceError` tagged with its
    divergence class.
    """
    if kappa < 0 or kappa >= family.big_k:
        raise ValidationError("kappa must lie in [0, K)")
    p = 2.0 * (family.beta - s)
    if kappa == 0.0 and p <= -1.0:
        cls = "LogSingular" if p == -1.0 else "PowerSingular"
        raise InfraredDivergenceError(
            f"integral of k**{p:g} diverges at the lower endpoint ({cls})",
            divergence_class=cls,
        )
    closed = _closed_power_integral(p, kappa, family.big_k) if kappa > 0 else float(
        family.big_k ** (p + 1.0) / (p + 1.0)
    )
    quad_val, _ = integrate.quad(
        lambda v: np.exp((p + 1.0) * v),
        np.log(kappa) if kappa > 0 else -np.inf,
        np.log(family.big_k),
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    if abs(quad_val - closed) > 1e-10 * max(1.0, abs(closed)):
        raise AccuracyError(
            f"quadrature {quad_val!r} and closed form {closed!r} disagree "
            "beyond 1e-10 relative"
        )
    return NormValue(closed=closed, quadrature=float(quad_val))


def b_kappa(family: CutoffFamily, kappa: float) -> float:
    """Per-site coupling norm b = ||lambda/sqrt(omega)|| at cutoff kappa.

    Finite for every beta > 0 down to kappa = 0.
    """
    return float(np.sqrt(norm_omega_power(family, 0.5, kappa).closed))


# -- moment-matched Gauss discretization --------------------------------------


def _u_moment(n: int, beta: float, lo: float, hi: float) -> float:
    # int u**n * u**(-2 beta - 2) du on [lo, hi]
    return _closed_power_integral(n - 2.0 * beta - 2.0, lo, hi)


def _gauss_from_moments(mom):
    mom = np.asarray(mom, dtype=float)
    q = (len(mom) - 1) // 2
    h = np.array([[mom[i + j] for j in range(q + 1)] for i in range(q + 1)])
    try:
        r = np.linalg.cholesky(h).T
    except np.linalg.LinAlgError as exc:
        raise DiscretizationError(
            "moment matrix is numerically singular; reduce the node count "
            "or narrow the momentum window"
        ) from exc
    alpha = np.empty(q)
    for i in range(q):
        alpha[i] = r[i, i + 1] / r[i, i]
        if i > 0:
            alpha[i] -= r[i - 1, i] / r[i - 1, i - 1]
    off = np.array([r[i + 1, i + 1] / r[i, i] for i in range(q - 1)])
    jac = np.diag(alpha)
    if q > 1:
        jac += np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jac)
    weights = mom[0] * vecs[0, :] ** 2
    return nodes, weights


@dataclass
class Discretization:
    """Discrete modes reproducing a family's coupling moments at cutoff kappa.

    Modes are grouped in per-site blocks of ``m_per_channel``; couplings
    vanish off the owning site's block, which makes the cross-site coupling
    overlaps exactly zero.
    """

    family: CutoffFamily
    kappa: float
    m_per_channel: int
    n_sites: int
    modes: ModeSet
    couplings: np.ndarray  # (n_sites, n_sites * m_per_channel)
    nodes: np.ndarray  # (m_per_channel,)
    weights: np.ndarray  # (m_per_channel,)

    def mode_vector(self, profiles) -> np.ndarray:
        """Discretize per-site profiles F_x(k) into one mode vector.

        The continuum object is f(k) = F_x(k) on site x's channel; its
        discrete image carries F(k_j) * sqrt(w_j) * k_j**(-beta) on node j,
        which reproduces inner products against the couplings exactly
        whenever the integrands stay inside the matched moment span.
        """
        if len(profiles) != self.n_sites:
            raise ValidationError("need one profile (or None) per site")
        m = self.m_per_channel
        out = np.zeros(self.n_sites * m, dtype=complex)
        scale = np.sqrt(self.weights) * self.nodes ** (-self.family.beta)
        for x, prof in enumerate(profiles):
            if prof is None:
                continue
            vals = np.array([prof(k) for k in self.nodes], dtype=complex)
            out[x * m : (x + 1) * m] = vals * scale
        if np.max(np.abs(out.imag)) == 0.0:
            out = out.real.astype(float)
        return out


def discretize(
    family: CutoffFamily, kappa: float, m_per_channel: int, n_sites: int = 1
) -> Discretization:
    """Gauss rule in u = 1/k for the measure k**(2 beta) dk on [kappa, K].

    Matching the first 2m u-moments makes the norms
    ||omega**(-s) lambda||^2 exact for s in {0, 1/2, 1} once m >= 2.  The
    rule populates one disjoint mode block per lattice site.
    """
    if kappa <= 0 or kappa >= family.big_k:
        raise ValidationError("discretization needs 0 < kappa < K")
    if m_per_channel < 2:
        raise DiscretizationError(
            "need at least 2 nodes per channel to match the s = 1 moment"
        )
    if m_per_channel > 12:
        raise DiscretizationError(
            "Hankel moment matrices lose positivity beyond ~12 nodes; "
            "requested count is not reachable in double precision"
        )
    lo, hi = 1.0 / family.big_k, 1.0 / kappa
    mom = [_u_moment(n, family.beta, lo, hi) for n in range(2 * m_per_channel + 1)]
    u_nodes, u_weights = _gauss_from_moments(mom)
    order = np.argsort(1.0 / u_nodes)
    k_nodes = (1.0 / u_nodes)[order]
    weights = u_weights[order]
    lam = np.sqrt(weights)

    # defensive moment audit against the closed forms
    for s, tol in ((0.0, 1e-2), (0.5, 1e-10), (1.0, 1e-10)):
        discrete = float(np.sum(weights * k_nodes ** (-2.0 * s)))
        closed = norm_omega_power(family, s, kappa).closed
        if abs(discrete - closed) > tol * max(1.0, abs(closed)):
            raise DiscretizationError(
                f"discrete moment at s = {s} misses closed form by "
                f"{abs(discrete - closed):.3e}"
            )

    m = m_per_channel
    freqs = np.tile(k_nodes, n_sites)
    couplings = np.zeros((n_sites, n_sites * m))
    for x in range(n_sites):
        couplings[x, x * m : (x + 1) * m] = lam
    return Discretization(
        family=family,
        kappa=kappa,
        m_per_channel=m,
        n_sites=n_sites,
        modes=ModeSet(freqs),
        couplings=couplings,
        nodes=k_nodes,
        weights=weights,
    )


# -- states against Weyl observables ------------------------------------------


def _pairwise_weyl(psi, z, a_e, f) -> complex:
    """sum over c, c2 of conj(psi_c) psi_c2 (A_e)_{c c2} <z_c|W(f)|z_c2>,
    the nonzero terms added in row-major order."""
    nz = np.flatnonzero(psi)
    val = 0.0 + 0.0j
    for c in nz:
        for c2 in nz:
            if a_e[c, c2] == 0:
                continue
            overlap = coherent_weyl_overlap(z[c], z[c2], f)
            val += np.conj(psi[c]) * psi[c2] * a_e[c, c2] * overlap
    return complex(val)


def weyl_state(model: CoupledModel, a_e, f):
    """<Psi, (A_e x W(f)) Psi> in the dressed ground state.

    Evaluated pairwise over configurations from coherent-state overlaps in
    closed form (:func:`coherent_weyl_overlap`), so no truncation enters.
    """
    a_e = np.asarray(a_e)
    if a_e.shape != (model.basis.dim, model.basis.dim):
        raise ValidationError("A_e must act on the electron sector")
    state, _ = dressed_ground(model)
    return _pairwise_weyl(state.weights, state.z, a_e, np.asarray(f, dtype=complex))


def _continuum_bilinears(family: CutoffFamily, profiles):
    """Per-site <f, g_x> and ||f_x||^2 for profile-specified f at kappa = 0.

    Breakpoints at K 10^-12 ... K 10^-1 let quad see a profile supported
    near k = 0, which it would otherwise sample as zero.
    """
    fg = np.zeros(len(profiles))
    ff = np.zeros(len(profiles))
    points = family.big_k * 10.0 ** -np.arange(12, 0, -1)
    for x, prof in enumerate(profiles):
        if prof is None:
            continue
        fg[x], _ = integrate.quad(
            lambda k: prof(k) * k ** (family.beta - 1.0), 0.0, family.big_k,
            limit=400, points=points,
        )
        ff[x], _ = integrate.quad(
            lambda k: prof(k) ** 2, 0.0, family.big_k, limit=400, points=points
        )
    return fg, ff


def limit_state(
    family: CutoffFamily,
    hopping,
    n_e: int,
    u: float,
    alpha: float,
    a_e,
    profiles,
):
    """Cutoff-removed value of <Psi, (A_e x W(f)) Psi>.

    The electronic vector is the ground state of the effective model at
    kappa = 0 (coupling norm b(0)).  For a regular family the boson clouds
    keep finite displacements and the full coherent pairwise sum survives;
    for singular families every cross term between distinct site-occupation
    patterns dies with the cutoff and only occupation-diagonal pairs
    contribute, each carrying its limiting phase.
    """
    n_sites = hopping.n_sites
    basis = build_sector_basis(n_sites, n_e)
    a_e = np.asarray(a_e)
    if a_e.shape != (basis.dim, basis.dim):
        raise ValidationError("A_e must act on the electron sector")
    u_eff = effective_params(u, alpha, b_kappa(family, 0.0)).u_eff
    rep = spin_ground_space(build_hubbard(basis, hopping, u_eff), basis)
    psi = rep.vectors[:, 0].astype(complex)
    nu = basis.occupations()
    fg, ff = _continuum_bilinears(family, profiles)
    ff_total = float(np.sum(ff))

    if family.singularity_class == "Regular":
        g2 = norm_omega_power(family, 1.0, 0.0).closed
        # embed each site channel in a 2-d span {g-direction, orthogonal}
        z_emb = np.zeros((basis.dim, 2 * n_sites))
        for c in range(basis.dim):
            z_emb[c, 0::2] = -(alpha / np.sqrt(2.0)) * nu[c] * np.sqrt(g2)
        f_emb = np.zeros(2 * n_sites)
        for x in range(n_sites):
            f_emb[2 * x] = fg[x] / np.sqrt(g2)
            orth = ff[x] - fg[x] ** 2 / g2
            f_emb[2 * x + 1] = np.sqrt(max(0.0, orth))
        return _pairwise_weyl(psi, z_emb, a_e, f_emb)

    # singular family: occupation classes decohere, phases survive
    damp = np.exp(-0.25 * ff_total)
    val = 0.0 + 0.0j
    keys = [tuple(row) for row in nu]
    for c in range(basis.dim):
        if psi[c] == 0:
            continue
        theta = -alpha * float(nu[c] @ fg)
        for c2 in range(basis.dim):
            if keys[c2] != keys[c] or psi[c2] == 0 or a_e[c, c2] == 0:
                continue
            val += np.conj(psi[c]) * psi[c2] * a_e[c, c2] * np.exp(1j * theta) * damp
    return complex(val)


def overlap_decay_curve(
    family: CutoffFamily,
    hopping,
    n_e: int,
    u: float,
    alpha: float,
    kappas=DEFAULT_KAPPAS,
    modes_per_site: int = 2,
    psi_ref=None,
):
    """|<psi_ref x vacuum, dressed ground>| along a cutoff sequence.

    Works entirely in coherent-cloud arithmetic, so each cutoff's model sits
    on the vacuum-only space (``n_max`` 0) and no Fock truncation enters;
    every ``modes_per_site`` from 2 to 12 runs.  The reference electronic
    vector defaults to the effective ground state at the first (largest)
    kappa.
    """
    rows = []
    for kap in kappas:
        model = CoupledModel.from_family(
            hopping.n_sites,
            n_e,
            hopping,
            u,
            alpha,
            family,
            kap,
            modes_per_site=modes_per_site,
            n_max=0,
        )
        state, rep = dressed_ground(model)
        if psi_ref is None:
            psi_ref = rep.vectors[:, 0].astype(complex)
        z2 = np.sum(np.abs(state.z) ** 2, axis=1)
        val = np.sum(np.conj(psi_ref) * state.weights * np.exp(-0.5 * z2))
        rows.append((float(kap), float(np.abs(val))))
    return rows


def divergence_report(family: CutoffFamily, kappas=DEFAULT_KAPPAS):
    """Cutoff scan of the coupling norms with a fitted divergence rate.

    Returns ``(rows, fitted_rate, expected_rate)``: per-kappa tuples
    ``(kappa, b^2, ||g||^2)``, the fitted small-kappa rate of ||g||^2 and
    its predicted value.  For a power-singular family the rate is the
    log-log slope (2 beta - 1 < 0); for the log-singular case the slope of
    ||g||^2 against ln(K/kappa) (exactly 1); a regular family reports the
    excess over the finite limit (rate 0 expected).
    """
    kappas = sorted(kappas, reverse=True)
    b2 = [norm_omega_power(family, 0.5, k).closed for k in kappas]
    g2 = [norm_omega_power(family, 1.0, k).closed for k in kappas]
    rows = [(float(k), float(b), float(g)) for k, b, g in zip(kappas, b2, g2)]
    cls = family.singularity_class
    if cls == "PowerSingular":
        fit = np.polyfit(np.log(kappas[-2:]), np.log(g2[-2:]), 1)[0]
        expected = 2.0 * family.beta - 1.0
    elif cls == "LogSingular":
        ells = np.log(family.big_k / np.asarray(kappas))
        fit = np.polyfit(ells, g2, 1)[0]
        expected = 1.0
    else:
        lim = norm_omega_power(family, 1.0, 0.0).closed
        fit = (g2[-1] - lim) / max(abs(lim), 1.0)
        expected = 0.0
    return rows, float(fit), float(expected)
