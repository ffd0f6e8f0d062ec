"""Unitary polaron dressing of a Hubbard cluster coupled to boson modes.

The coupled Hamiltonian acts on (electron sector) x (truncated Fock space),

    H = H_e x 1 + 1 x H_b + alpha * sum_x n_x x phi(lambda_x),

with real per-site coupling vectors lambda_x over the modes.  The dressing
unitary V = exp(i alpha S), S = sum_x n_x x phi(i g_x) with g_x =
lambda_x / omega, is block diagonal over electron configurations: on the
configuration c it is the pure displacement D(z_c) with

    z_c = -(alpha / sqrt 2) * sum_x nu_x(c) g_x,

nu_x(c) the site occupation.  All heavy operations below exploit this block
structure instead of materializing V.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .boson_fock import (
    ModeSet,
    TruncatedFock,
    apply_displacement,
    apply_field,
    apply_ladder,
    apply_modes,
    coherent_amplitudes_1mode,
    coherent_tail,
    displacement_1mode,
    field,
    lowering_1mode,
    mode_kron,
)
from .eigensolver import CLUSTER_TOL, eigensolve
from .errors import AccuracyError, SizingError, ValidationError
from .lattice_fermions import (
    HoppingMatrix,
    build_hubbard,
    build_sector_basis,
    hopping_moves,
    spin_spaces,
)
from .magnetism import spin_ground_space

COUPLED_DIM_CAP = 2_000_000

# Largest mode occupation of the random trial vectors of the identity checks.
TRIAL_OCCUPATION = 2

# Largest departure of R - R_active from its closed form, relative to R,
# that :func:`active_frame` accepts as rounding.
FRAME_TOL = 1e-12

__all__ = [
    "CoupledModel",
    "DressedState",
    "dress_state",
    "dressed_ground",
    "verify_transform_hb",
    "TransformNbReport",
    "verify_transform_nb",
    "active_frame",
    "EffectiveHamiltonians",
    "effective_hamiltonians",
    "annihilation_residual",
    "heisenberg_evolution_check",
    "OverlapResult",
    "overlap_formula",
    "nb_expectation",
    "reference_model",
]


class CoupledModel:
    """Electron space, boson truncation and couplings bundled together.

    ``basis`` is a whole particle-number sector (:class:`SectorBasis`) or
    one total spin's highest-weight states in it (:class:`SpinSpace`).
    ``couplings`` is any real (n_sites, m) matrix; channels of different
    sites may overlap.  Routes that never materialize a boson vector on
    this box (``ir``'s coherent clouds, ``spectrum``'s active-box solves)
    take the vacuum-only space, ``n_max`` 0.  A basis times box above
    ``COUPLED_DIM_CAP``, the cap of every box the package fills, is refused
    before anything is built.
    """

    def __init__(
        self,
        basis,
        hopping: HoppingMatrix,
        u: float,
        alpha: float,
        fock: TruncatedFock,
        couplings,
    ):
        if hopping.n_sites != basis.n_sites:
            raise ValidationError("hopping and basis disagree on n_sites")
        lam = np.asarray(couplings, dtype=float)
        if lam.shape != (basis.n_sites, fock.modes.m):
            raise ValidationError(
                "couplings must be an (n_sites, m) array of real amplitudes"
            )
        if basis.dim * fock.dim > COUPLED_DIM_CAP:
            raise SizingError(
                f"coupled dimension {basis.dim * fock.dim} exceeds "
                f"cap {COUPLED_DIM_CAP}"
            )
        self.basis = basis
        self.hopping = hopping
        self.u = float(u)
        self.alpha = float(alpha)
        self.fock = fock
        self.lam = lam
        w = fock.modes.freqs
        self.g = lam / w  # omega^{-1} lambda, row per site
        # overlap Gram matrices at the two weights that occur in identities
        self.overlap_w1 = lam @ (lam / w).T  # <lambda_x/sqrt w, lambda_y/sqrt w>
        self.overlap_w2 = self.g @ self.g.T  # <g_x, g_y>
        self.nu = basis.occupations().astype(float)
        self._z = -(self.alpha / np.sqrt(2.0)) * (self.nu @ self.g)
        self._z.flags.writeable = False
        self.he = build_hubbard(basis, hopping, u)
        self.dim = basis.dim * fock.dim

    def z_table(self) -> np.ndarray:
        """Per-configuration displacement amplitudes, shape (F, m), read-only."""
        return self._z

    def r_diag(self) -> np.ndarray:
        """Diagonal of R = (1/2) sum_xy <l_x/sqrt w, l_y/sqrt w> n_x n_y."""
        return 0.5 * np.einsum("cx,xy,cy->c", self.nu, self.overlap_w1, self.nu)

    def effective_electronic(self):
        """H_e^eff = H_e - alpha^2 R, CSR: the dressing V^{-1} H V turns the
        coupling into -alpha^2 R x 1 exactly, for every real coupling matrix.

        For disjoint channels of equal norm b this is H_e at u - (alpha b)^2
        with every electron's energy lowered by (alpha b)^2 / 2, the scalar
        form of :func:`magnetism.effective_params`.
        """
        return (self.he - sp.diags(self.alpha**2 * self.r_diag())).tocsr()

    # -- block application of V -------------------------------------------

    def displace_row(self, c: int, row, inverse: bool = False):
        """D(z_c) @ row, or D(-z_c) with ``inverse``: V (V^{-1}) on the boson
        row of configuration c, whole or on a smaller box (:func:`apply_modes`)."""
        zc = self._z[c]
        return apply_displacement(self.fock, -zc if inverse else zc, row)

    def apply_unitary(self, vec, inverse: bool = False):
        """V @ vec (or its inverse): :meth:`displace_row` on each row c, whole
        or on a smaller box.  Rows are displaced one at a time even where
        several share a z: a stack of rows outgrows the cache at large n_max
        (four complex rows at n_max 16 took 12-16 ms stacked, 7.0-7.5 ms row
        by row).
        """
        t = np.asarray(vec).reshape(self.basis.dim, -1)
        out = np.empty((self.basis.dim, self.fock.dim), np.result_type(t.dtype, np.float64))
        for c, row in enumerate(t):
            out[c] = self.displace_row(c, row, inverse)
        return out.reshape(self.dim)

    # -- direct Hamiltonian -----------------------------------------------

    def h_direct(self):
        """Sparse H = H_e x 1 + 1 x H_b + alpha sum_x n_x x phi(lambda_x)."""
        ib = sp.identity(self.fock.dim, format="csr")
        h = sp.kron(self.he, ib, format="csr")
        h = h + sp.kron(
            sp.identity(self.basis.dim, format="csr"),
            sp.diags(self.fock.hb_diag()),
            format="csr",
        )
        for x in range(self.basis.n_sites):
            nx = sp.diags(self.nu[:, x])
            h = h + self.alpha * sp.kron(nx, field(self.fock, self.lam[x]), format="csr")
        return h.tocsr()

    @classmethod
    def from_family(
        cls,
        n_sites: int,
        n_e: int,
        hopping: HoppingMatrix,
        u: float,
        alpha: float,
        family,
        kappa: float,
        modes_per_site: int = 2,
        *,
        n_max: int,
    ):
        """Build the model from a continuum coupling family at cutoff kappa."""
        from .ir_modes import discretize

        disc = discretize(family, kappa, modes_per_site, n_sites=n_sites)
        return cls.from_discretization(disc, n_e, hopping, u, alpha, n_max=n_max)

    @classmethod
    def from_discretization(
        cls, disc, n_e: int, hopping: HoppingMatrix, u: float, alpha: float, *, n_max: int
    ):
        """Build the model on the modes and couplings of a
        :class:`ir_modes.Discretization` already made."""
        basis = build_sector_basis(disc.n_sites, n_e)
        return cls(basis, hopping, u, alpha, TruncatedFock(disc.modes, n_max), disc.couplings)

    def __repr__(self):
        return (
            f"CoupledModel(F={self.basis.dim}, B={self.fock.dim}, "
            f"alpha={self.alpha})"
        )


# -- dressed states ---------------------------------------------------------


@dataclass
class DressedState:
    """V (psi_e x vacuum): coherent boson cloud per electron configuration.

    ``weights[c]`` is the electronic amplitude and ``z[c]`` the displacement
    vector of the configuration's coherent state.  ``truncation_error`` is
    the weight lost to the occupation cutoff when the state is materialized.
    The checks read the state one configuration at a time through
    :meth:`row`; :meth:`vector` stacks the rows.
    """

    weights: np.ndarray
    z: np.ndarray
    truncation_error: float
    model: CoupledModel

    def row(self, c: int) -> np.ndarray:
        """Boson row of configuration c: ``weights[c]`` times |z_c> truncated.

        Coherent amplitudes are truncated as-is (no renormalization), so the
        rows' squared norms sum to 1 - ``truncation_error`` exactly.
        """
        n_max = self.model.fock.n_max
        return self.weights[c] * mode_kron(
            [coherent_amplitudes_1mode(zj, n_max) for zj in self.z[c]]
        )

    def vector(self) -> np.ndarray:
        """Materialize on the truncated product space."""
        return np.concatenate([self.row(c) for c in range(self.model.basis.dim)])

    def config_norms_sq(self) -> np.ndarray:
        return np.abs(self.weights) ** 2


def dress_state(model: CoupledModel, psi_e) -> DressedState:
    """Dress an arbitrary electronic sector vector with its coherent clouds."""
    psi = np.asarray(psi_e, dtype=complex)
    if psi.shape != (model.basis.dim,):
        raise ValidationError("psi_e must live on the electron sector")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValidationError(f"psi_e must be normalized; got ||psi|| = {nrm}")
    z = model.z_table()
    # captured coherent mass per configuration from per-mode tails
    kept = np.prod(1.0 - coherent_tail(z, model.fock.n_max), axis=1)
    lost = float(np.sum(np.abs(psi) ** 2 * (1.0 - kept)))
    return DressedState(weights=psi, z=z, truncation_error=lost, model=model)


def dressed_ground(model: CoupledModel, cluster_tol: float = CLUSTER_TOL):
    """Ground state of the effective electronic model, dressed.

    Returns ``(state, report)``; the dressed vector is the report's first,
    a highest-weight state (S_z = S, S+ psi = 0) of the lowest ground spin.
    """
    rep = spin_ground_space(model.effective_electronic(), model.basis, cluster_tol)
    psi = rep.vectors[:, 0]
    return dress_state(model, psi / np.linalg.norm(psi)), rep


# -- transformation identities ----------------------------------------------


def verify_transform_hb(model: CoupledModel, n_trials: int = 4, rng=None) -> float:
    """Residual of V (1 x H_b) V^{-1} = 1 x H_b + alpha sum n_x x phi(l_x)
    + alpha^2 R x 1, the conjugation identity at d = omega (d g_x = l_x),
    worst over random low-occupation vectors."""
    if rng is None:
        rng = np.random.default_rng(7)
    diag = model.fock.hb_diag()
    return _conjugation_check(model, diag, model.lam, model.overlap_w1, n_trials, rng)[0]


@dataclass
class TransformNbReport:
    residual: float
    linear_fit: float  # alpha when the identity holds
    quadratic_fit: float  # alpha^2 / 2, not the single-commutator alpha^2


def verify_transform_nb(model: CoupledModel, n_trials: int = 4, rng=None):
    """Check V (1 x N_b) V^{-1} = N_b + alpha K1 + (alpha^2/2) K2, the
    conjugation identity at d = 1: K1 = sum_x n_x x phi(g_x) and
    K2 = sum_xy <g_x, g_y> n_x n_y x 1.

    Besides the identity residual the report carries a least-squares fit of
    the two coefficients from the data, so the quadratic coefficient is
    measured rather than assumed: the fit lands on alpha^2/2, half of what
    a single application of the commutator expansion would suggest.
    """
    if rng is None:
        rng = np.random.default_rng(11)
    diag = model.fock.nb_diag()
    residual, coef = _conjugation_check(model, diag, model.g, model.overlap_w2, n_trials, rng)
    return TransformNbReport(residual, float(coef[0].real), float(coef[1].real))


def _interior_trials(model: CoupledModel, n_trials: int, rng):
    """The identity checks' random trials and their support box.

    A trial holds at most TRIAL_OCCUPATION quanta per mode (n_max - 1 if
    lower); phi, a(f), D and K2 raise it by one level at most.  Returns that
    box one level larger, the flat indices of its states in the model's box
    and a generator of (F, box.dim) trials drawn on it, the normals a
    whole-box :meth:`TruncatedFock.random_interior` would draw."""
    fock = model.fock
    headroom = max(fock.n_max - TRIAL_OCCUPATION, 1)
    box = TruncatedFock(fock.modes, fock.n_max + 1 - headroom)
    idx = np.ravel_multi_index(box.occupations().T, fock.shape)
    return box, idx, (box.random_interior(rng, 1, model.basis.dim) for _ in range(n_trials))


def _conjugation_check(model: CoupledModel, diag, w, gram, n_trials: int, rng):
    """The Lang-Firsov conjugation identity V (1 x D) V^{-1} = D + alpha K1
    + (alpha^2/2) K2 for a diagonal boson form D = sum_j d_j n_j with Fock
    diagonal ``diag``: K1 = sum_x n_x x phi(w_x) with w_x = d g_x, and
    K2 = sum_xy gram_xy n_x n_y x 1 with gram_xy = <g_x, d g_y>.

    Returns the worst residual over random low-occupation trials and the
    least-squares fit of the two coefficients.  The identity is exact in the
    untruncated space; on the truncated one the residual is displacement
    leakage at the occupation edge, which dies as n_max grows.  Each
    configuration row is conjugated on its own: V^{-1} maps the support-box
    row to a whole row and V (row * diag) runs on it (the per-mode form
    sum_j d_j [D(z_j) n D(-z_j)]_j rounds 9.1e-13 from the oracle).  D psi,
    K1 psi and K2 psi are formed on the support box and subtracted there.
    """
    box, idx, trials = _interior_trials(model, n_trials, rng)
    k2 = np.einsum("cx,xy,cy->c", model.nu, gram, model.nu)
    sq = np.zeros(n_trials)  # squared residual per trial
    ata = np.zeros((2, 2), dtype=complex)
    atb = np.zeros(2, dtype=complex)
    for i, kept in enumerate(trials):
        for c, psi in enumerate(kept):
            row = model.displace_row(c, psi, inverse=True)
            delta = model.displace_row(c, row * diag)
            delta[idx] -= psi * diag[idx]
            k1psi = apply_field(box, model.nu[c] @ w, psi)  # phi is linear in its argument
            k2psi = k2[c] * psi
            cols = (k1psi, k2psi)
            ata += [[np.vdot(ci, cj) for cj in cols] for ci in cols]
            atb += [np.vdot(ci, delta[idx]) for ci in cols]
            delta[idx] -= model.alpha * k1psi + 0.5 * model.alpha**2 * k2psi
            sq[i] += np.vdot(delta, delta).real
    return float(np.sqrt(sq.max(initial=0.0))), np.linalg.solve(ata, atb)


# -- effective Hamiltonians ---------------------------------------------------


def active_frame(model: CoupledModel):
    """The polaron frame both coupled routes solve on.

    A hop x -> y displaces the bosons by (alpha/sqrt 2)(g_x - g_y).  H_b is
    unchanged by any orthogonal rotation inside a shell of equal
    frequencies, so a shell of n modes on which the site differences
    g_x - g_y span a rank 0 < r < n is rotated onto an orthonormal basis of
    that span: r active modes, and n - r free modes that no hop displaces.
    Every other shell keeps its modes, unrotated and in their order.

    No g_x - g_y reaches a free mode f, so every site has the same coupling
    lambda_f on it, where the coupling acts as alpha n_e phi(lambda_f).
    Completing the square as for the Lang-Firsov shift, the free part has
    the ladder sum_f n_f omega_f lowered by alpha^2 R_free, with R_free =
    R - R_active = (1/2) n_e^2 sum_f lambda_f^2 / omega_f on every
    configuration of the sector (checked).

    Returns ``(rotation, active, free, shift)``: the (m, m_active) isometry
    whose columns are the active modes, their frequencies, the free modes'
    and -alpha^2 R_free (0 without a split shell).
    """
    freqs = model.fock.modes.freqs
    x, y = np.triu_indices(model.basis.n_sites, 1)
    diffs = model.g[x] - model.g[y]
    columns, active, free = [], [], []
    for j, w in enumerate(freqs):
        shell = np.flatnonzero(freqs == w)
        _, sv, vt = np.linalg.svd(diffs[:, shell])
        rank = int(np.sum(sv > sv.max(initial=0.0) * max(diffs.shape) * np.finfo(float).eps))
        if not 0 < rank < shell.size:
            columns.append(np.eye(freqs.size)[j])
            active.append(w)
        elif j == shell[0]:
            rotated = np.zeros((rank, freqs.size))
            rotated[:, shell] = vt[:rank]
            columns += list(rotated)
            active += [w] * rank
            free += [w] * (shell.size - rank)
    rotation, active = np.column_stack(columns), np.array(active)
    lam = model.lam @ rotation
    # <l_x/sqrt w, l_y/sqrt w> over the free modes: lambda_f^2 / omega_f summed
    free_gram = model.overlap_w1 - lam @ (lam / active).T
    r_free = 0.5 * model.basis.n_e**2 * free_gram[0, 0]
    r_split = 0.5 * np.einsum("cx,xy,cy->c", model.nu, free_gram, model.nu)
    off = np.max(np.abs(r_split - r_free))
    if off > FRAME_TOL * max(1.0, np.max(model.r_diag())):
        raise AccuracyError(
            f"R - R_active departs from (1/2) n_e^2 sum_f lambda_f^2 / omega_f "
            f"by {off:.3e} on the sector"
        )
    return rotation, active, np.array(free), -model.alpha**2 * r_free


def _free_ladder(freqs, k: int) -> np.ndarray:
    """Lowest k values of sum_f n_f omega_f over all occupations n_f >= 0:
    the exact spectrum of free oscillators, merged one mode at a time."""
    levels = np.zeros(1)
    for w in freqs:
        levels = np.sort(np.add.outer(levels, w * np.arange(k)).ravel())[:k]
    return levels


class EffectiveHamiltonians:
    """Direct, transformed-assembled and product-form levels, per total spin.

    Every route acts on ``sectors[s]``: the model on the highest-weight
    states of spin s (:func:`spin_spaces`), with its couplings rotated onto
    the active modes of :func:`active_frame` and the box of those modes at
    ``n_max`` (the model's own when None).  The free modes split off both
    coupled Hamiltonians exactly, so ``direct_lowest`` and
    ``transformed_lowest`` add the free ladder (:func:`_free_ladder`) and
    ``shift`` to each spin's levels.  Without a split shell every mode is
    active and unrotated and the shift is 0: the box operators of all the
    modes, bit for bit.  No route reads the model's own box, so a model of
    the vacuum-only box will do.  Sizes are refused before any table or
    solve: the sector models check each spin space times the active box
    against ``COUPLED_DIM_CAP``, and :meth:`_lowest` each per-spin solve.

    ``direct`` is the CSR H_e x 1 + 1 x H_b + alpha sum_x n_x x phi(lambda_x)
    of the active modes.  ``transformed`` realizes V^{-1} (H_e x 1) V -
    alpha^2 R_active x 1 + 1 x H_b analytically: hopping terms pick up the
    displacement D((alpha/sqrt 2)(g_x - g_y)) while all diagonal pieces
    stay diagonal.  The displacement of a pair (x, y) acts on the boson
    index and its hop matrix H_xy on the configuration index, so the two
    commute: with H_xy = L R factored to its rank, the matvec displaces the
    rows of R t, not every source row.  The two spectra must match because
    the operators are exactly unitarily equivalent; each has its own
    truncation.  The product form H_e^eff x 1 + 1 x H_b drops the dressing
    of the hopping; its spectrum is NOT equal to the direct one in general
    and is exposed separately so the deviation can be measured.

    All three commute with S^2 and S_z (n_x is a spin scalar), so all act
    per total spin s, where a pair's hop matrix is Q^T H_xy Q.
    """

    def __init__(self, model: CoupledModel, n_max: int | None = None):
        self.model = model
        self.rotation, active, self.free_freqs, self.shift = active_frame(model)
        self.active = TruncatedFock(ModeSet(active), model.fock.n_max if n_max is None else n_max)
        lam = model.lam @ self.rotation
        # each sector model checks its size before any hop table is filled
        self.sectors = {
            space.s: CoupledModel(space, model.hopping, model.u, model.alpha, self.active, lam)
            for space in spin_spaces(model.basis)
        }
        n = model.basis.dim
        hops = defaultdict(lambda: np.zeros((n, n)))  # each pair's hop matrix on the sector
        for x, y, src, dst, amp in zip(*hopping_moves(model.basis, model.hopping)):
            hops[x, y][dst, src] += amp
        self._dressed = {}
        for s, sec in self.sectors.items():
            space = sec.basis
            # each pair's hop on the space factored at its numerical rank
            # (SVD) as left @ right; the factors of all pairs are stacked,
            # and each pair names its rows and its displacement
            lefts, rights, pairs = [np.zeros((space.dim, 0))], [np.zeros((0, space.dim))], []
            for (x, y), hop in hops.items():
                u, sv, vt = np.linalg.svd(space.q.T @ hop @ space.q)
                rank = int(np.sum(sv > sv[0] * space.dim * np.finfo(float).eps))
                if rank:
                    start = sum(r.shape[0] for r in rights)
                    lefts.append(u[:, :rank] * sv[:rank])
                    rights.append(vt[:rank])
                    zdiff = (sec.alpha / np.sqrt(2.0)) * (sec.g[x] - sec.g[y])
                    pairs.append((slice(start, start + rank), zdiff))
            diag = np.add.outer(sec.effective_electronic().diagonal(), self.active.hb_diag())
            self._dressed[s] = diag, np.hstack(lefts), np.vstack(rights), pairs

    def transformed_matvec(self, vec, s: float):
        diag, left, right, pairs = self._dressed[s]
        t = np.asarray(vec).reshape(diag.shape)
        y = right @ t
        for rows, zdiff in pairs:
            y[rows] = apply_displacement(self.active, zdiff, y[rows])
        out = left @ y
        out += diag * t
        return out.reshape(-1)

    def transformed(self, s: float) -> spla.LinearOperator:
        """The active operator of spin s, on (spin space) x (active box)."""
        dim = self._dressed[s][0].size
        return spla.LinearOperator(
            shape=(dim, dim),
            matvec=lambda v: self.transformed_matvec(v, s),
            dtype=np.float64,
        )

    def direct(self, s: float) -> sp.csr_matrix:
        """The direct CSR of spin s, on (spin space) x (active box)."""
        return self.sectors[s].h_direct()

    def product_lowest(self, k: int) -> np.ndarray:
        """k smallest levels of H_e^eff x 1 + 1 x H_b: per spin, those of
        H_e - alpha^2 R_active plus ``shift`` and the exact ladder of every mode."""
        freqs = self.model.fock.modes.freqs
        return self._lowest(lambda s: self.sectors[s].effective_electronic(), k, 0.0, freqs)

    def direct_lowest(self, k: int, tol: float = 0.0) -> np.ndarray:
        return self._lowest(self.direct, k, tol, self.free_freqs)

    def transformed_lowest(self, k: int, tol: float = 0.0) -> np.ndarray:
        return self._lowest(self.transformed, k, tol, self.free_freqs)

    def _lowest(self, operator, k: int, tol: float, freqs) -> np.ndarray:
        """Lowest ``k`` levels: ceil(k / (2s+1)) of every spin s (a higher spin
        can lie lower) from the levels of ``operator(s)`` plus each level
        of the exact ladder of ``freqs`` and the shift, each repeated 2s+1
        times.  One level more is solved than used, so the last one used is
        not the edge of the wanted set inside an exactly degenerate pair,
        where ARPACK's iteration count followed the BLAS thread count.
        Those ceil(k / (2s+1)) + 1 levels times the larger of the sector's
        dimension and k (the ladder merge) must stay under ``COUPLED_DIM_CAP``
        for every spin, else :class:`SizingError` before any ladder or solve.
        Without free modes fewer than k levels may exist; all are returned."""
        mults = {s: int(round(2.0 * s + 1.0)) for s in self.sectors}
        for s, mult in mults.items():
            size = (-(-k // mult) + 1) * max(self.sectors[s].dim, k)
            if size > COUPLED_DIM_CAP:
                raise SizingError(
                    f"{k} levels need {size} numbers at spin {s}, above the cap {COUPLED_DIM_CAP}"
                )
        ladder = _free_ladder(freqs, k) + self.shift
        levels = []
        for s, mult in mults.items():
            h = operator(s)
            need = -(-k // mult)
            vals, _ = eigensolve(h, k=min(need + 1, h.shape[0]), tol=tol)
            merged = np.sort(np.add.outer(vals, ladder).ravel())[:need]
            levels.append(np.repeat(merged, mult))
        return np.sort(np.concatenate(levels))[:k]


def effective_hamiltonians(model: CoupledModel, n_max: int | None = None) -> EffectiveHamiltonians:
    """The routes of ``model`` on the active box at ``n_max`` (None: the model's own)."""
    return EffectiveHamiltonians(model, n_max)


# -- dressed annihilators and dynamics ---------------------------------------


def _dressed_scalar(model: CoupledModel, f) -> np.ndarray:
    """Per-configuration scalar part of the dressed annihilator."""
    fg = model.g @ np.conj(np.asarray(f, dtype=complex))  # <f, g_x> conj'd
    return (model.alpha / np.sqrt(2.0)) * (model.nu @ fg)


def _annihilate_row(fock: TruncatedFock, f, scalar, row):
    """Dressed annihilator on one configuration row: (a(f) + scalar) @ row,
    with ``scalar`` the row's entry of :func:`_dressed_scalar`."""
    out = apply_ladder(fock, f, row).astype(complex, copy=False)
    out += scalar * row
    return out


def annihilation_residual(model: CoupledModel, state: DressedState, f) -> float:
    """Norm of the dressed annihilator applied to a dressed state.

    Vanishes identically in the untruncated space for every electronic
    vector; the returned number is pure truncation residue.  The state is
    read one configuration row at a time.
    """
    scalar = _dressed_scalar(model, f)
    sq = 0.0
    for c in np.flatnonzero(state.weights):
        res = _annihilate_row(model.fock, f, scalar[c], state.row(c))
        sq += np.vdot(res, res).real
    return float(np.sqrt(sq))


def _undressed_annihilator(model: CoupledModel, f):
    """V^{-1} a_dressed(f) V on whole boson rows, as ``apply(c, row)``.

    V_c = prod_j D(z_cj) and D(-z) is the exact inverse of D(z) on the
    truncated box, so V_c^{-1} (a(f) + s_c) V_c = s_c + sum_j conj(f_j)
    [D(-z_cj) a D(z_cj)]_j there (s_c from :func:`_dressed_scalar`), one
    (n_max+1)-square matrix per mode and distinct z."""
    fock, conj_f, z = model.fock, np.conj(np.asarray(f, dtype=complex)), model.z_table()
    d, a, scalar = displacement_1mode, lowering_1mode(fock.n_max), _dressed_scalar(model, f)
    ladder = {x: d(-x, fock.n_max) @ a @ d(x, fock.n_max) for x in set(z.flat)}

    def apply(c, row):
        out = scalar[c] * row
        for j in np.flatnonzero(conj_f):
            term = apply_modes(fock, {j: ladder[z[c, j]]}, row)
            out += np.multiply(term, conj_f[j], out=term)
        return out

    return apply


def heisenberg_evolution_check(
    model: CoupledModel, f, times=(0.1, 1.0, 10.0), n_trials: int = 3, rng=None
) -> float:
    """Free-field covariance of the dressed annihilators under the dressed
    evolution: evolving a_dressed(f) for time t must equal
    a_dressed(exp(i t omega) f).  Returns the worst residual over random
    interior vectors and the given times.

    The evolution U(t) = V (e^{-i t He_eff} x e^{-i t H_b}) V^{-1} mixes
    configurations only through e^{-i t He_eff}, one (F, F) by (F, B)
    product.  V^{-1} maps the support-box rows to whole rows, on which the
    free steps (e^{-i t H_b} as the per-mode product of e^{-i t omega_j
    n_j}), V^{-1} a_dressed(f) V (:func:`_undressed_annihilator`) and V act;
    a_dressed(f_t) psi is formed on the support box and subtracted there.
    A trial holds psi and at most two (F, B) buffers, none across ``times``.
    """
    if rng is None:
        rng = np.random.default_rng(23)
    evals, evecs = eigensolve(model.effective_electronic(), k=model.basis.dim)
    fock, undressed = model.fock, _undressed_annihilator(model, f)

    def free_step(y, t):
        """e^{-i t He_eff} x e^{-i t H_b} on an (F, B) array; the product is
        taken while no row temporary is alive, the boson phase in place."""
        y = (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T @ y
        y *= mode_kron([np.exp(-1j * t * w * np.arange(fock.n_max + 1)) for w in fock.modes.freqs])
        return y

    def residual(kept, t):
        f_t = np.exp(1j * t * fock.modes.freqs) * f
        scalar_t = _dressed_scalar(model, f_t)
        y = free_step(model.apply_unitary(kept, inverse=True).reshape(-1, fock.dim), t)
        for c, row in enumerate(y):  # V^{-1} a_dressed(f) U(t) psi
            y[c] = undressed(c, row)
        y = free_step(y, -t)
        sq = 0.0
        for c, row in enumerate(y):  # U(-t) a_dressed(f) U(t) psi - a_dressed(f_t) psi
            lhs = model.displace_row(c, row)
            lhs[idx] -= _annihilate_row(box, f_t, scalar_t[c], kept[c])
            sq += np.vdot(lhs, lhs).real
        return float(np.sqrt(sq))

    box, idx, trials = _interior_trials(model, n_trials, rng)
    return max((residual(kept, t) for kept in trials for t in times), default=0.0)


# -- overlaps and observables -------------------------------------------------


@dataclass
class OverlapResult:
    numeric: complex
    formula: complex

    @property
    def difference(self) -> float:
        return abs(self.numeric - self.formula)


def overlap_formula(model: CoupledModel, state: DressedState, fs, psi_e) -> OverlapResult:
    """Overlap of prod_i a^*(f_i) (psi_e x vacuum) with a dressed state.

    The numeric path works on the truncated space, one configuration row of
    the state at a time.  The closed-form path requires ``psi_e`` to be a
    single electron configuration (occupation eigenstate); for
    configuration c with site occupations nu it evaluates

        (-alpha/sqrt 2)^n  prod_i sum_x nu_x <f_i, g_x>
        * exp(-(alpha^2/4) sum_xy nu_x nu_y <g_x, g_y>) * weights[c].
    """
    fs = [np.asarray(fi, dtype=complex) for fi in fs]
    psi = np.asarray(psi_e, dtype=complex)
    if psi.shape != (model.basis.dim,):
        raise ValidationError("psi_e must live on the electron sector")

    # numeric: the boson row b = prod_i a^*(f_i) vacuum against each state row
    b = np.zeros(model.fock.dim, dtype=complex)
    b[0] = 1.0
    for fi in fs:
        b = apply_ladder(model.fock, fi, b, dagger=True)
    numeric = complex(
        sum(np.conj(psi[c]) * np.vdot(b, state.row(c)) for c in np.flatnonzero(psi))
    )

    # formula: occupation-definite reference only
    nz = np.nonzero(np.abs(psi) > 1e-12)[0]
    if len(nz) != 1:
        raise ValidationError(
            "closed form needs an occupation eigenstate (exactly one nonzero "
            f"amplitude); got {len(nz)} nonzero entries"
        )
    c = int(nz[0])
    nu = model.nu[c]
    phase = np.conj(psi[c])
    quad = float(nu @ model.overlap_w2 @ nu)
    val = phase * state.weights[c] * np.exp(-0.25 * model.alpha**2 * quad)
    for fi in fs:
        fg = np.conj(fi) @ model.g.T  # <f_i, g_x> for each site
        val *= (-model.alpha / np.sqrt(2.0)) * complex(nu @ fg)
    return OverlapResult(numeric=numeric, formula=complex(val))


def nb_expectation(state: DressedState) -> float:
    """<N_b> in a dressed state: sum_c |psi_c|^2 ||z_c||^2 exactly."""
    return float(np.sum(np.abs(state.weights) ** 2 * np.sum(np.abs(state.z) ** 2, axis=1)))


def reference_model(
    n_sites: int = 2,
    n_e: int = 2,
    t: float = -1.0,
    u: float = 1.0,
    alpha: float = 0.5,
    beta: float = 0.5,
    big_k: float = 1.0,
    kappa: float = 0.1,
    modes_per_site: int = 2,
    n_max: int = 12,
) -> CoupledModel:
    """Small chain coupled to a two-node discretization per site.

    The default carries per-site coupling norm b^2 = 0.9 and
    ||g_x||^2 = ln 10, which makes several closed forms easy to eyeball.
    """
    from .ir_modes import CutoffFamily

    fam = CutoffFamily(beta=beta, big_k=big_k)
    return CoupledModel.from_family(
        n_sites,
        n_e,
        HoppingMatrix.chain(n_sites, t),
        u,
        alpha,
        fam,
        kappa,
        modes_per_site=modes_per_site,
        n_max=n_max,
    )
