"""Ground-space extraction with explicit degeneracy bookkeeping.

Dense spectra are computed in full, one connected block of the matrix's
nonzero pattern at a time (for a Hubbard Hamiltonian these are the S_z
sectors); large sparse problems, and few levels of mid-sized ones, go
through ARPACK (Lanczos with implicit restarts and full reorthogonalization
of the Krylov block) on a Chebyshev polynomial filter of the matrix, whose
span Rayleigh-Ritz turns back into the matrix's eigenpairs.  Degeneracy is
decided by relative clustering at ``cluster_tol``; a cluster boundary that
falls inside the factor-2 grey zone raises instead of silently picking a
side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal, get_blas_funcs
from scipy.sparse.csgraph import connected_components

from .errors import (
    AccuracyError,
    AmbiguousDegeneracyError,
    IterationLimitError,
    ValidationError,
)

# Dense/sparse crossover for eigensolves and dense operators.
DENSE_MAX = 4096

__all__ = ["eigensolve", "multiplet_levels", "ground_space", "GroundSpaceReport"]


def _is_operator(h) -> bool:
    return isinstance(h, spla.LinearOperator)


# Relative Hermiticity tolerance, shared by the matrix and operator checks.
HERMITIAN_TOL = 1e-12


def _check_hermitian(h) -> None:
    """Hermiticity of a sparse matrix or, for a linear operator, the seeded
    two-vector probe |<x, Hy> - <Hx, y>| <= tol ||x|| ||Hy||."""
    if _is_operator(h):
        x, y = np.random.default_rng(54321).standard_normal((2, h.shape[0]))
        hx, hy = h.matvec(x), h.matvec(y)
        asym = abs(np.vdot(x, hy) - np.vdot(hx, y))
        if asym > HERMITIAN_TOL * np.linalg.norm(x) * np.linalg.norm(hy):
            raise ValidationError(
                f"linear operator is not Hermitian: |<x,Hy> - <Hx,y>| = {asym:g}"
            )
        return
    d = h - h.conj().T
    _require_hermitian(
        np.max(np.abs(d.data)) if d.nnz else 0.0,
        np.max(np.abs(h.data)) if h.nnz else 0.0,
    )


def _require_hermitian(asym, scale) -> None:
    if asym > HERMITIAN_TOL * max(1.0, scale):
        raise ValidationError(f"matrix is not Hermitian: max asymmetry {asym:g}")


def _blockwise_eigh(h, labels):
    """Full eigendecomposition of CSR ``h``, one ``np.linalg.eigh`` per block.

    ``labels`` names the connected block of each index.  A block-diagonal
    matrix's spectrum is the union of its blocks' spectra: the eigenvalues
    are merged by a stable ascending sort and each block's eigenvectors
    land, zero-padded, in their sorted columns.  A single block returns
    exactly what ``np.linalg.eigh`` does.  ``h`` is densified one block at
    a time, so the whole matrix is never dense at once.

    Hermiticity is checked on the blocks: every nonzero and its transpose
    partner lie in one block, so the blocks' largest asymmetry and entry
    are the whole matrix's.
    """
    by_label = np.argsort(labels, kind="stable")
    blocks = np.split(by_label, np.cumsum(np.bincount(labels))[:-1])
    subs = [h[idx][:, idx].toarray() for idx in blocks]
    _require_hermitian(
        max(np.max(np.abs(b - b.conj().T), initial=0.0) for b in subs),
        max(np.max(np.abs(b), initial=0.0) for b in subs),
    )
    parts = [np.linalg.eigh(b) for b in subs]
    vals = np.concatenate([w for w, _ in parts])
    order = np.argsort(vals, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    vecs = np.zeros(h.shape, dtype=parts[0][1].dtype)
    start = 0
    for idx, (w, v) in zip(blocks, parts):
        vecs[np.ix_(idx, column[start : start + w.size])] = v
        start += w.size
    return vals[order], vecs


def _lanczos_start(dim: int) -> np.ndarray:
    # fixed start vector so repeated runs produce identical iterates
    return np.random.default_rng(12345).standard_normal(dim)


# Sparse input of dimension <= DENSE_MAX still takes the Lanczos path when
# few levels are wanted: dim >= LANCZOS_MIN_DIM and k <= dim / LANCZOS_K_RATIO.
# Measured at 1 BLAS thread, the blockwise dense path over the filtered
# solve (time ratio) on one-block matrices (random sparse, dim 512-4096,
# and the direct coupled sectors at n_max 3 and 4, dim 1024 and 2500):
#   k = dim/8: 1.1-1.8, k = dim/16: 1.7-5.2, k = dim/32: 2.6-12.
# On four equal blocks, which the dense path solves one by one, the ratio
# is 0.4-0.5 at k = dim/16 and 1.1-1.6 at k = dim/32 (dim 2048, 4096).
# Below dim 512 a full eigh takes under 0.07 s.
LANCZOS_MIN_DIM = 512
LANCZOS_K_RATIO = 32

# The Lanczos path iterates on p(H), an even Chebyshev polynomial of degree
# FILTER_DEGREE that maps [cut, hi] into [-1, 1] and grows monotonically
# below the cut; cut and hi come from a BOUND_STEPS-step Lanczos run.
FILTER_DEGREE = 12
BOUND_STEPS = 48
# Ritz values of the bounds run closer than GHOST_TOL times its spectral
# span count as one.
GHOST_TOL = 1e-8
# A solve whose Ritz values reach the cut, or whose residuals exceed
# max(tol, RESIDUAL_TOL) times the spectral radius, is repeated with the
# cut and hi moved up by FILTER_WIDEN of the spectral span, at most
# FILTER_RETRIES times.  Every attempt but the last stops after
# FILTER_PROBE_ITERS ARPACK iterations and widens if it has not converged:
# a cut at or a hair above lambda_k leaves p(lambda_k) next to the top of
# [-1, 1], where ARPACK crawls.  Measured on 40 random sparse matrices of
# dimension 512-800 (k 1-8): well-placed cuts converged within 6
# iterations, cuts 1e-4 and 3e-5 above lambda_k (spectral span 70) took 52
# and 167.
RESIDUAL_TOL = 1e-8
FILTER_WIDEN = 0.1
FILTER_RETRIES = 3
FILTER_PROBE_ITERS = 30


def _dense_pays(k: int, dim: int) -> bool:
    """The dense/iterative crossover of a matrix, read from k and dim only."""
    if k >= dim - 1:
        return True
    return dim <= DENSE_MAX and (dim < LANCZOS_MIN_DIM or k * LANCZOS_K_RATIO > dim)


def _spectrum_bounds(matvec, v0, k: int):
    """``(lo, cut, hi)`` from a three-term Lanczos run started at ``v0``.

    The run keeps three vectors and no basis.  ``lo`` is its lowest Ritz
    value, ``hi`` the highest plus the last beta (an upper bound of the
    spectrum unless a level is nearly orthogonal to ``v0``), and ``cut``
    the (k+1)-th distinct Ritz value, which by interlacing lies at or above
    the k-th eigenvalue.  A run that exhausts its Krylov space has seen every
    level; with k levels or fewer the cut goes above all of them.
    """
    q = v0 / np.linalg.norm(v0)
    q_prev = np.zeros_like(q)
    alphas, betas = [], []
    beta = norm = 0.0
    for _ in range(min(v0.size, max(BOUND_STEPS, 2 * k + 2))):
        w = matvec(q)
        alpha = np.vdot(q, w).real
        w = w - alpha * q - beta * q_prev
        norm = max(norm, abs(alpha) + beta)
        beta = np.linalg.norm(w)
        alphas.append(alpha)
        betas.append(beta)
        if beta <= np.finfo(float).eps * norm:
            break
        q_prev, q = q, w / beta
    theta = eigh_tridiagonal(alphas, betas[:-1], eigvals_only=True)
    lo, hi = theta[0], theta[-1] + betas[-1]
    span = max(hi - lo, np.finfo(float).eps * max(1.0, abs(lo), abs(hi)))
    # without reorthogonalization a converged Ritz value recurs as a ghost
    # copy; a Krylov space holds one copy of each level, so count distinct
    # values only
    theta = theta[np.r_[True, np.diff(theta) > GHOST_TOL * span]]
    cut = theta[k] if theta.size > k else theta[-1] + FILTER_WIDEN * span
    return lo, cut, max(hi, cut + FILTER_WIDEN * span)


def _chebyshev_filter(matvec, cut: float, hi: float, dtype):
    """``x -> T_m((H - c) / e) x`` with [cut, hi] = [c - e, c + e].

    The three-term recurrence T_{j+1} = 2 (H - c)/e T_j - T_{j-1} runs on
    one new vector per step, the affine map folded in by in-place updates.
    """
    c, e = 0.5 * (hi + cut), 0.5 * (hi - cut)
    axpy = get_blas_funcs("axpy", dtype=dtype)

    def apply(x):
        x = np.asarray(x, dtype=dtype).reshape(-1)
        t_prev, t = x, matvec(x)
        t = axpy(x, t, a=-c)
        t *= 1.0 / e
        for _ in range(FILTER_DEGREE - 1):
            nxt = matvec(t)
            nxt *= 2.0 / e
            nxt = axpy(t, nxt, a=-2.0 * c / e)
            nxt -= t_prev
            t_prev, t = t, nxt
        return t

    return apply


def _filtered_lanczos(h, k: int, tol: float, maxiter):
    """Lowest ``k`` eigenpairs of ``h`` by ARPACK on a Chebyshev filter of it.

    ``eigsh`` takes the k largest eigenpairs of p(H) (:func:`_chebyshev_filter`
    over the bounds of :func:`_spectrum_bounds`); Rayleigh-Ritz on H turns
    their span into H's eigenpairs.  The result is accepted when every value
    lies below the cut (so none came from [cut, hi] or from above hi, where
    p also grows) and every residual ||Hv - lambda v|| is at most
    max(tol, RESIDUAL_TOL) times the spectral radius; otherwise the filter
    interval moves up, at most FILTER_RETRIES times, then AccuracyError.
    Every attempt but the last runs at most FILTER_PROBE_ITERS iterations
    and, if ARPACK has not converged by then, also widens; only the last
    runs to ``maxiter`` and raises IterationLimitError.
    """
    _check_hermitian(h)
    matvec = h.matvec if _is_operator(h) else h.dot
    dtype = np.result_type(h.dtype, np.float64)
    v0 = _lanczos_start(h.shape[0])
    lo, cut, hi = _spectrum_bounds(matvec, v0, k)
    for attempt in range(FILTER_RETRIES + 1):
        last = attempt == FILTER_RETRIES
        op = spla.LinearOperator(
            h.shape, matvec=_chebyshev_filter(matvec, cut, hi, dtype), dtype=dtype
        )
        iters = maxiter if last else min(FILTER_PROBE_ITERS, maxiter or np.inf)
        try:
            _, y = spla.eigsh(op, k=k, which="LA", tol=tol, maxiter=iters, v0=v0)
        except spla.ArpackNoConvergence as exc:
            if last:
                nc = len(exc.eigenvalues)
                raise IterationLimitError(
                    f"Lanczos converged only {nc}/{k} eigenpairs"
                ) from exc
            # p(lambda_k) lies too close to the damped band: widen as if
            # the top level had reached the cut
            top = cut
        else:
            # eigsh returns complex Hermitian Ritz vectors from eigs, which
            # does not orthonormalize them
            y = np.linalg.qr(y)[0]
            hy = h @ y
            g = y.conj().T @ hy
            vals, u = np.linalg.eigh(0.5 * (g + g.conj().T))
            vecs = y @ u
            residual = np.linalg.norm(hy @ u - vecs * vals, axis=0)
            bound = max(tol, RESIDUAL_TOL) * max(abs(lo), abs(hi), abs(vals[0]))
            if vals[-1] < cut and np.all(residual <= bound):
                return vals, vecs
            lo, top = min(lo, vals[0]), vals[-1]
        span = max(hi, top) - lo
        if top >= hi:
            # a level above hi was amplified: move hi past it
            hi = top + FILTER_WIDEN * span
        else:
            cut = max(cut, top) + FILTER_WIDEN * span
            hi = max(hi, cut) + FILTER_WIDEN * span
    raise AccuracyError(
        f"filtered Lanczos: {k} levels up to {vals[-1]:.12g} with cut {cut:.12g} "
        f"and largest residual {residual.max():.3g} (bound {bound:.3g}) after "
        f"{FILTER_RETRIES} widenings"
    )


def eigensolve(h, k: int = 6, tol: float = 0.0, maxiter=None):
    """Lowest ``k`` eigenpairs of a Hermitian matrix or linear operator.

    Returns ``(vals, vecs)`` with eigenvalues ascending and eigenvectors in
    columns.  Dense input, and sparse input unless it is larger than
    ``DENSE_MAX`` or few levels of a large enough matrix are wanted
    (``dim >= LANCZOS_MIN_DIM`` and ``k <= dim / LANCZOS_K_RATIO``), is solved
    in full by a direct method, block by block along the connected
    components of its nonzero pattern, and truncated; ``k >= dim - 1``
    always goes dense for matrices.  The rest, and every linear operator,
    goes to ARPACK on a Chebyshev filter p(H) of the matrix
    (:func:`_filtered_lanczos`).  ``tol`` and ``maxiter`` are passed to
    ``eigsh`` and so act on p(H), not on H: ``tol`` is ARPACK's relative
    accuracy of the eigenvalues of p(H) (the returned pairs of H are then
    held to residuals of max(tol, RESIDUAL_TOL) times the spectral radius),
    and ``maxiter`` counts ARPACK iterations of the final attempt, each of
    up to ncv - k filter applications of FILTER_DEGREE matvecs.  The dense
    route takes CSR (a dense array is converted once) and checks Hermiticity
    on its blocks; the Lanczos route checks the whole matrix, or probes a
    linear operator with two seeded matvecs.
    """
    dim = h.shape[0]
    if h.shape[0] != h.shape[1]:
        raise ValidationError("matrix must be square")
    if k < 1:
        raise ValidationError("k must be >= 1")
    k = min(k, dim)

    if isinstance(h, np.ndarray) or (sp.issparse(h) and _dense_pays(k, dim)):
        h = sp.csr_matrix(h)
        _, labels = connected_components(h != 0, directed=False)
        vals, vecs = _blockwise_eigh(h, labels)
        return vals[:k], vecs[:, :k]

    if _is_operator(h) and k >= dim - 1:
        raise ValidationError(
            f"k = {k} too close to dim = {dim} for the iterative path"
        )
    return _filtered_lanczos(h, k, tol, maxiter)


@dataclass
class GroundSpaceReport:
    """Certified ground-space data.

    ``s_tot`` is the spin of the eigenvalues of the ground space's S^2 Gram
    matrix (:func:`cluster_spins`) when they all snap to one s(s+1) (a
    half-integer as float), the string ``"mixed"`` when they do not, or
    None when no spin operator was supplied.
    """

    e0: float
    degeneracy: int
    vectors: np.ndarray
    gap: float
    s_tot: object = None
    spectrum_head: np.ndarray = field(default_factory=lambda: np.empty(0))


# Absolute distance from s(s+1) within which an S^2 value names a spin s.
SPIN_TOL = 1e-6

# Relative gap below which two Ritz values of one S_z sector count as one
# level (the default ground-space clustering tolerance).
MULTIPLET_TOL = 1e-8


def snap_spin(q: float):
    """The half-integer s with |q - s(s+1)| <= SPIN_TOL, or None."""
    s = 0.5 * (-1.0 + np.sqrt(max(0.0, 1.0 + 4.0 * q)))
    s_half = round(2.0 * s) / 2.0
    if abs(q - s_half * (s_half + 1.0)) > SPIN_TOL:
        return None
    return s_half


def cluster_spins(vectors, s_squared):
    """Eigenvalues ``qs`` (ascending) and eigenvectors ``u`` of V^H S^2 V for
    the orthonormal columns V of ``vectors``, and ``spins``, the
    :func:`snap_spin` of each eigenvalue."""
    qs, u = np.linalg.eigh(vectors.conj().T @ (s_squared @ vectors))
    return qs, u, [snap_spin(q) for q in qs]


def multiplet_levels(h, s_squared, k: int, tol: float = 0.0):
    """Lowest ``k`` levels of a spin-symmetric Hamiltonian from one S_z sector.

    ``h`` is the Hamiltonian restricted to the sector with the smallest
    |S_z|, which holds exactly one member of every multiplet, and
    ``s_squared`` is S^2 on that sector.  The sector's lowest ``k``
    eigenpairs are solved; their Ritz values are clustered at relative
    ``MULTIPLET_TOL``, each cluster's Gram matrix V^H S^2 V is diagonalised
    and its eigenvalues snapped to s(s+1), and each level is repeated 2s+1
    times.  A spin's energy is the Ritz energy of its Gram eigenvector
    (diag U^H E U), so two multiplets that fall within one cluster keep
    their own energies.

    Every level the solve did not reach lies at or above the last Ritz
    value, so the lowest ``k`` of the restored list are the full space's
    lowest ``k`` whenever every spin used snapped.  A cluster that does not
    snap raises :class:`AccuracyError`, except the last one of a solve that
    did not cover the sector: its multiplet may continue past the solve, so
    the sector ``k`` is doubled, as :func:`ground_space` does, up to what
    the solver takes.
    """
    dim = h.shape[0]
    k_max = dim - 2 if _is_operator(h) else dim
    k_sec = min(k, k_max)
    while True:
        vals, vecs = eigensolve(h, k=k_sec, tol=tol)
        levels = _restore_multiplets(vals, vecs, s_squared, k, k_sec == dim)
        if levels is not None:
            return levels
        if k_sec >= k_max:
            raise AccuracyError(
                f"the multiplet completing {k} levels runs past the {k_sec} "
                "sector levels the solver can compute"
            )
        k_sec = min(2 * k_sec, k_max)


def _restore_multiplets(vals, vecs, s_squared, k, complete):
    """The levels of :func:`multiplet_levels`, or None to ask for more pairs."""
    gaps = np.diff(vals) > MULTIPLET_TOL * np.maximum(1.0, np.abs(vals[:-1]))
    breaks = np.flatnonzero(gaps) + 1
    levels = []
    for a, b in zip(np.r_[0, breaks], np.r_[breaks, len(vals)]):
        qs, u, spins = cluster_spins(vecs[:, a:b], s_squared)
        if None in spins:
            if b == len(vals) and not complete:
                return None
            raise AccuracyError(
                f"levels {vals[a]:.12g}..{vals[b - 1]:.12g}: S^2 eigenvalues "
                f"{qs} are not s(s+1) within {SPIN_TOL:g}"
            )
        # Rayleigh quotients of the cluster: clipped to its range, so a
        # degenerate cluster keeps its energy bit for bit
        energies = np.clip(
            np.einsum("ij,i,ij->j", u.conj(), vals[a:b], u).real, vals[a], vals[b - 1]
        )
        for e, s in zip(energies, spins):
            levels += [e] * int(round(2.0 * s + 1.0))
        if len(levels) >= k:
            break
    return np.sort(np.asarray(levels, dtype=float))[:k]


def ground_space(
    h,
    cluster_tol: float = 1e-8,
    s_squared=None,
) -> GroundSpaceReport:
    """Ground energy, degeneracy and an orthonormal ground basis.

    An eigenvalue belongs to the ground cluster when
    ``(e - e0) <= cluster_tol * max(1, |e0|)``.  If any eigenvalue lies
    within a factor of 2 of that threshold on either side the clustering is
    declared ambiguous and :class:`AmbiguousDegeneracyError` is raised with a
    tolerance suggestion instead of returning a coin-flip degeneracy.
    With ``s_squared``, a spin s that :func:`cluster_spins` finds a number of
    times that is not a multiple of 2s+1 is part of a multiplet and raises
    :class:`AccuracyError`.
    """
    dim = h.shape[0]
    # the full spectrum of a matrix up to DENSE_MAX; otherwise 8 levels,
    # doubled until one lies safely outside the grey zone to certify where
    # the cluster ends
    full = isinstance(h, np.ndarray) or (sp.issparse(h) and dim <= DENSE_MAX)
    k = dim if full else min(8, dim - 1)
    while True:
        vals, vecs = eigensolve(h, k=k)
        scale = max(1.0, abs(vals[0]))
        if (vals[-1] - vals[0]) > 2.0 * cluster_tol * scale or k >= dim - 1:
            break
        k = min(2 * k, dim - 1)

    e0 = float(vals[0])
    rel = (vals - e0) / scale
    grey = (rel >= 0.5 * cluster_tol) & (rel <= 2.0 * cluster_tol)
    if np.any(grey):
        g = float(rel[grey][0])
        raise AmbiguousDegeneracyError(
            f"eigenvalue gap {g:.3e} (relative) sits within a factor 2 of "
            f"cluster_tol = {cluster_tol:.3e}; retry with cluster_tol "
            f"<= {g / 4:.3e} or >= {4 * g:.3e}",
            gap=g,
            suggested_tol=g / 4,
        )
    deg = int(np.sum(rel <= cluster_tol))
    # re-orthonormalize inside the cluster; eigh pairs are orthonormal to
    # machine precision already, QR just pins the guarantee
    q, _ = np.linalg.qr(vecs[:, :deg])
    gap = float(vals[deg] - e0) if deg < len(vals) else np.inf

    s_tot = None
    if s_squared is not None:
        _, _, spins = cluster_spins(q, s_squared)
        for s in set(spins) - {None}:
            if spins.count(s) % (2.0 * s + 1.0):
                raise AccuracyError(
                    f"ground space at {e0:.12g}: {spins.count(s)} states of "
                    f"spin {s:g}, not whole multiplets of {2.0 * s + 1.0:g}"
                )
        s_tot = "mixed" if None in spins or len(set(spins)) > 1 else spins[0]

    return GroundSpaceReport(
        e0=e0,
        degeneracy=deg,
        vectors=q,
        gap=gap,
        s_tot=s_tot,
        spectrum_head=np.asarray(vals[: min(len(vals), 10)], dtype=float),
    )
