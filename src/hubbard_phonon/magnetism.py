"""Ground-state magnetism of the effective electronic model.

The boson coupling renormalizes the on-site interaction to
``u_eff = u - (alpha * b)**2`` and shifts each electron's energy by
``-(alpha * b)**2 / 2``.  Two rigorous regimes are checkable numerically:
attractive interactions on connected lattices with an even electron number
pin a unique spin singlet, while rank-one hopping at one electron below half
filling with repulsive interaction saturates the total spin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .eigensolver import CLUSTER_TOL, GroundSpaceReport, densify, ground_space
from .errors import (
    AccuracyError,
    AmbiguousDegeneracyError,
    IterationLimitError,
    ValidationError,
)
from .lattice_fermions import (
    HoppingMatrix,
    build_hubbard,
    build_sector_basis,
    number_operators,
    s_max,
    spin_spaces,
)

__all__ = [
    "EffectiveParams",
    "effective_params",
    "critical_alpha",
    "classify",
    "spin_ground_space",
    "build_tasaki_hopping",
    "RegimeCheck",
    "check_lieb_regime",
    "check_tasaki_regime",
    "SweepRecord",
    "sweep_alpha",
    "flip_brackets",
]


@dataclass
class EffectiveParams:
    u_eff: float
    chemical_shift: float
    regime: str


def effective_params(u: float, alpha: float, b: float) -> EffectiveParams:
    """Interaction and chemical-potential renormalization at coupling alpha.

    ``b`` is the coupling norm carried by each site's boson channel; the
    attractive shift is its square times alpha**2.
    """
    if b < 0:
        raise ValidationError("coupling norm b must be >= 0")
    g2 = (alpha * b) ** 2
    u_eff = u - g2
    regime = "Attractive" if u_eff < 0 else ("Free" if u_eff == 0 else "Repulsive")
    return EffectiveParams(u_eff=u_eff, chemical_shift=g2 / 2.0, regime=regime)


def critical_alpha(u: float, b: float) -> float:
    """Coupling at which u_eff crosses zero: sqrt(u) / b."""
    if u <= 0:
        raise ValidationError("critical coupling requires repulsive bare u > 0")
    if b <= 0:
        raise ValidationError("critical coupling requires coupling norm b > 0")
    return float(np.sqrt(u) / b)


def classify(report: GroundSpaceReport, n_e: int, n_sites: int) -> str:
    """Label a ground space: UniqueSinglet, Ferromagnetic or Other."""
    if report.degeneracy == 1 and report.s_tot == 0.0:
        return "UniqueSinglet"
    if report.s_tot == s_max(n_e, n_sites):
        return "Ferromagnetic"
    return "Other"


def build_tasaki_hopping(t0: float, amplitudes) -> HoppingMatrix:
    """Rank-one hopping t_xy = t0 * t_x * t_y, diagonal t0 * t_x**2 included:
    without it the single-particle levels shift and the saturated-spin
    mechanism breaks."""
    a = np.asarray(amplitudes, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValidationError("site amplitudes must be a non-empty vector")
    if np.any(a == 0.0):
        raise ValidationError("site amplitudes must be nonzero")
    if t0 == 0.0:
        raise ValidationError("overall hopping scale t0 must be nonzero")
    return HoppingMatrix(t0 * np.outer(a, a))


@dataclass
class RegimeCheck:
    applies: bool
    verified: bool
    details: str
    report: object = None


def spin_ground_space(h, basis, cluster_tol: float = CLUSTER_TOL) -> GroundSpaceReport:
    """:func:`ground_space` of a sector operator ``h`` on ``basis``, projected
    onto each total spin's highest-weight states (:func:`spin_spaces`)."""
    spaces = spin_spaces(basis)
    return ground_space([space.project(h) for space in spaces], spaces, cluster_tol)


def check_lieb_regime(
    hopping: HoppingMatrix, u_eff: float, n_e: int, cluster_tol: float = CLUSTER_TOL
) -> RegimeCheck:
    """Attractive regime: a singlet sits among the ground states.

    Hypotheses: connected hopping graph, even n_e, u_eff <= 0.  For strictly
    negative u_eff the ground state is in addition unique.  ``verified``
    reports whether the diagonalized ground space matches.
    """
    reasons = []
    if not hopping.connected:
        reasons.append("hopping graph is disconnected")
    if n_e % 2 != 0 or n_e <= 0:
        reasons.append(f"n_e = {n_e} is not a positive even number")
    if u_eff > 0:
        reasons.append(f"u_eff = {u_eff:g} is not attractive")
    if reasons:
        return RegimeCheck(False, False, "; ".join(reasons))

    basis = build_sector_basis(hopping.n_sites, n_e)
    rep = spin_ground_space(build_hubbard(basis, hopping, u_eff), basis, cluster_tol)
    ok = 0.0 in rep.spins
    details = f"spins of the ground levels = {rep.spins}"
    if u_eff < 0:
        ok = ok and rep.degeneracy == 1 and rep.s_tot == 0.0
        details += f"; degeneracy = {rep.degeneracy}, s_tot = {rep.s_tot}"
    return RegimeCheck(True, bool(ok), details, report=rep)


def check_tasaki_regime(
    t0: float, amplitudes, u_eff: float, cluster_tol: float = CLUSTER_TOL
) -> RegimeCheck:
    """Saturated-spin regime at one electron below half filling.

    Hypotheses: rank-one hopping with nonzero site amplitudes (diagonal
    included), u_eff > 0, n_e = n_sites - 1.  Verified when every ground
    vector carries s_max and the degeneracy is the full multiplet 2*s_max+1.
    """
    hopping = build_tasaki_hopping(t0, amplitudes)
    n_sites = hopping.n_sites
    n_e = n_sites - 1
    reasons = []
    if u_eff <= 0:
        reasons.append(f"u_eff = {u_eff:g} is not repulsive")
    if n_e < 1:
        reasons.append("need at least one electron")
    if reasons:
        return RegimeCheck(False, False, "; ".join(reasons))

    basis = build_sector_basis(hopping.n_sites, n_e)
    rep = spin_ground_space(build_hubbard(basis, hopping, u_eff), basis, cluster_tol)
    smax = s_max(n_e, n_sites)
    want_deg = int(round(2 * smax + 1))
    ok = rep.s_tot == smax and rep.degeneracy == want_deg
    details = (
        f"s_tot = {rep.s_tot}, degeneracy = {rep.degeneracy} "
        f"(expected {smax}, {want_deg})"
    )
    return RegimeCheck(True, bool(ok), details, report=rep)


@dataclass
class SweepRecord:
    """One grid point of :func:`sweep_alpha`; the fields are sweep.csv's columns."""

    alpha: float
    kappa: float
    u_eff: float
    e0: float
    degeneracy: int
    s_tot: object
    classification: str
    residual_flags: str


def sweep_alpha(
    hopping: HoppingMatrix,
    n_e: int,
    u: float,
    b: float,
    alphas,
    kappa: float = np.nan,
    cluster_tol: float = CLUSTER_TOL,
):
    """Classify the effective ground state along a coupling grid.

    Reported energies include the chemical shift, i.e. they are ground
    energies of the effective electronic Hamiltonian whose kinetic diagonal
    is lowered by (alpha*b)**2/2 per electron.  Each total spin's
    Hamiltonian without u and its double occupancy are projected once and
    go through :func:`eigensolver.densify` once; a grid point only adds
    u_eff times the double occupancy.  Points that fail to classify (the
    solver's own errors) are kept with classification "Error" and the
    message in ``residual_flags``; any other exception propagates.
    """
    basis = build_sector_basis(hopping.n_sites, n_e)
    spaces = spin_spaces(basis)
    h0 = build_hubbard(basis, hopping, 0.0)
    _, docc = number_operators(basis)
    blocks = [
        (densify(space.project(h0)), densify(sp.diags(docc[space.rep])))
        for space in spaces
    ]

    def one(alpha: float) -> SweepRecord:
        par = effective_params(u, alpha, b)
        rec = SweepRecord(alpha, float(kappa), par.u_eff, np.nan, 0, "", "Error", "")
        try:
            h = [h0s + par.u_eff * d for h0s, d in blocks]
            rep = ground_space(h, spaces=spaces, cluster_tol=cluster_tol)
        except (
            AccuracyError,
            AmbiguousDegeneracyError,
            IterationLimitError,
            np.linalg.LinAlgError,
        ) as exc:  # the solver's own failures; anything else is a bug
            rec.residual_flags = f"{type(exc).__name__}: {exc}"
            return rec
        rec.e0 = rep.e0 - par.chemical_shift * n_e
        rec.degeneracy = rep.degeneracy
        rec.s_tot = rep.s_tot
        rec.classification = classify(rep, n_e, hopping.n_sites)
        return rec

    return [one(float(a)) for a in alphas]


def flip_brackets(records):
    """Alpha intervals across which the classification changes, between
    consecutive classified points: an "Error" point brackets nothing."""
    done = [r for r in records if r.classification != "Error"]
    return [
        (a.alpha, b_.alpha)
        for a, b_ in zip(done, done[1:])
        if a.classification != b_.classification
    ]
