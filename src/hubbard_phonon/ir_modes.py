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

from .boson_fock import ModeSet
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
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)  # for _log_rule

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
    """Closed-form and quadrature (:func:`_log_rule`) values of a coupling norm."""

    closed: float
    quadrature: float


def _closed_power_integral(p: float, lo: float, hi: float) -> float:
    if abs(p + 1.0) < 1e-14:
        return float(np.log(hi / lo))
    return float((hi ** (p + 1.0) - lo ** (p + 1.0)) / (p + 1.0))


def _log_rule(a: float, lo: float, hi: float) -> float:
    """int_lo^hi e^(a v) dv, 8-point Gauss-Legendre on panels of |a| h <= 2."""
    w = 40.0 / abs(a) if a else np.inf  # e-folds at the larger end: all but e^-40
    lo, hi = (max(lo, hi - w), hi) if a > 0 else (lo, min(hi, lo + w))
    n = max(1, int(np.ceil(abs(a) * (hi - lo) / 2.0)))
    h = (hi - lo) / n
    v = (lo + h * np.arange(0.5, n))[:, None] + 0.5 * h * _GL_NODES
    return float(0.5 * h * (np.exp(a * v).sum(axis=0) @ _GL_WEIGHTS))


def norm_omega_power(family: CutoffFamily, s: float, kappa: float) -> NormValue:
    """||omega**(-s) lambda||^2 = int_kappa^K k**(2(beta-s)) dk, two ways.

    The closed form and a fixed Gauss-Legendre rule are both returned and
    must agree to 1e-10 relative.  The rule integrates e^((p+1) v) over
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
    lo = np.log(kappa) if kappa > 0 else -np.inf  # lo -inf needs p + 1 > 0
    quad_val = _log_rule(p + 1.0, lo, np.log(family.big_k))
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
    m = m_per_channel
    lo, hi = 1.0 / family.big_k, 1.0 / kappa
    # int u**n * u**(-2 beta - 2) du on [lo, hi]
    mom = [_closed_power_integral(n - 2.0 * family.beta - 2.0, lo, hi) for n in range(2 * m + 1)]
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


def _weyl_functional(psi, a_e, nu, w2, fg, ff, alpha) -> complex:
    """sum over c, c2 of conj(psi_c) psi_c2 (A_e)_{c c2} <z_c|W(f)|z_c2>.

    The clouds are z_c = -(alpha/sqrt 2) sum_x nu_cx g_x and W(f) shifts by
    u = i f / sqrt 2, so every term is the exponential of one (F, F) array
    built from the Gram matrix G = (alpha^2/2) nu W2 nu^T (W2 = <g_x, g_y>),
    from <z_c, u> = -(i alpha/2) nu_c . fg (fg = <g_x, f>) and from
    ff = ||f||^2:  G_cc2 - (G_cc + G_c2c2)/2 + <z_c, u> - conj(<z_c2, u>)
    - ff/4.  ``w2`` None is the singular limit ||g||^2 -> infinity: clouds
    of different occupation pattern are orthogonal, and equal patterns keep
    their phase.
    """
    p = -0.5j * alpha * (nu @ fg)
    e = p[:, None] - np.conj(p)[None, :] - 0.25 * ff
    if w2 is None:
        same = np.all(nu[:, None, :] == nu[None, :, :], axis=2)
        terms = np.where(same, np.exp(e), 0.0)
    else:
        gram = 0.5 * alpha**2 * (nu @ w2 @ nu.T)
        half = 0.5 * np.diag(gram)
        terms = np.exp(gram - half[:, None] - half[None, :] + e)
    return complex(np.conj(psi) @ (a_e * terms) @ psi)


def weyl_state(model: CoupledModel, a_e, f):
    """<Psi, (A_e x W(f)) Psi> in the dressed ground state, in closed form
    from the model's Gram matrix (:func:`_weyl_functional`): no truncation."""
    a_e = np.asarray(a_e)
    if a_e.shape != (model.basis.dim, model.basis.dim):
        raise ValidationError("A_e must act on the electron sector")
    f = np.asarray(f, dtype=complex)
    if f.shape != (model.fock.modes.m,):
        raise ValidationError("f must assign one amplitude per mode")
    state, _ = dressed_ground(model)
    w2, fg, ff = model.overlap_w2, model.g @ f, np.vdot(f, f).real
    return _weyl_functional(state.weights, a_e, model.nu, w2, fg, ff, model.alpha)


def _continuum_bilinears(family: CutoffFamily, profiles):
    """Per-site <f, g_x> and ||f_x||^2 for profile-specified f at kappa = 0.

    Breakpoints at K 10^-12 ... K 10^-1 let quad see a profile supported
    near k = 0, which it would otherwise sample as zero.
    """
    from scipy import integrate  # ir's limit is the one command that needs quad
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
    kappa = 0 (coupling norm b(0)), and the value is the closed form of
    :func:`weyl_state` at the limiting Gram data: a regular family keeps
    W2 = ||g||^2(0) 1, finite clouds and every coherent cross term; for a
    singular family (W2 None) the cross terms between distinct occupation
    patterns die with the cutoff and equal patterns keep their phase.
    """
    basis = build_sector_basis(hopping.n_sites, n_e)
    a_e = np.asarray(a_e)
    if a_e.shape != (basis.dim, basis.dim):
        raise ValidationError("A_e must act on the electron sector")
    if len(profiles) != hopping.n_sites:
        raise ValidationError("need one profile (or None) per site")
    u_eff = effective_params(u, alpha, b_kappa(family, 0.0)).u_eff
    rep = spin_ground_space(build_hubbard(basis, hopping, u_eff), basis)
    fg, ff = _continuum_bilinears(family, profiles)
    w2 = None
    if family.singularity_class == "Regular":
        w2 = norm_omega_power(family, 1.0, 0.0).closed * np.eye(hopping.n_sites)
    return _weyl_functional(
        rep.vectors[:, 0], a_e, basis.occupations(), w2, fg, np.sum(ff), alpha
    )


def overlap_decay_curve(
    family: CutoffFamily,
    hopping,
    n_e: int,
    u: float,
    alpha: float,
    kappas=DEFAULT_KAPPAS,
    modes_per_site: int = 2,
    psi_ref=None,
    discretizations=None,
):
    """|<psi_ref x vacuum, dressed ground>| along a cutoff sequence.

    Works entirely in coherent-cloud arithmetic, so each cutoff's model sits
    on the vacuum-only space (``n_max`` 0) and no Fock truncation enters;
    every ``modes_per_site`` from 2 to 12 runs.  The reference electronic
    vector defaults to the effective ground state at the first (largest)
    kappa.  A caller that has discretized the cutoffs already passes one
    :class:`Discretization` per cutoff as ``discretizations``, which then
    stand for ``kappas`` and ``modes_per_site``.
    """
    if discretizations is None:
        discretizations = [
            discretize(family, kap, modes_per_site, hopping.n_sites) for kap in kappas
        ]
    rows = []
    for disc in discretizations:
        model = CoupledModel.from_discretization(disc, n_e, hopping, u, alpha, n_max=0)
        state, rep = dressed_ground(model)
        if psi_ref is None:
            psi_ref = rep.vectors[:, 0].astype(complex)
        z2 = np.sum(np.abs(state.z) ** 2, axis=1)
        val = np.sum(np.conj(psi_ref) * state.weights * np.exp(-0.5 * z2))
        rows.append((float(disc.kappa), float(np.abs(val))))
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
