"""Ground-space extraction with explicit degeneracy bookkeeping.

Dense problems compute only the eigenpairs asked for: the lowest k by
LAPACK's MRRR driver (``scipy.linalg.eigh(subset_by_index=...)``; Dhillon,
Parlett & Voemel, ACM TOMS 32, 533 (2006)), all by ``np.linalg.eigh``.
Large sparse problems, and few levels of mid-sized ones, go through ARPACK
(Lanczos with implicit restarts and full reorthogonalization of the Krylov
block) on a Chebyshev polynomial filter of the matrix, whose span
Rayleigh-Ritz turns back into the matrix's eigenpairs.  Degeneracy is
decided by relative clustering at ``cluster_tol``; a cluster boundary that
falls inside the factor-2 grey zone raises instead of silently picking a
side.  A ground space is solved one total spin at a time, on that spin's
highest-weight states, each level standing for its whole multiplet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    AccuracyError,
    AmbiguousDegeneracyError,
    IterationLimitError,
    ValidationError,
)

# Dense/sparse crossover for eigensolves and dense operators.
DENSE_MAX = 4096
# Levels a ground-space solve starts from.
HEAD_LEVELS = 10
# Relative gap below which two levels belong to one ground cluster.
CLUSTER_TOL = 1e-8

__all__ = ["eigensolve", "ground_space", "GroundSpaceReport"]


def densify(h):
    """``h`` as a dense array if it is sparse with at most DENSE_MAX rows,
    else ``h`` itself: the blocks a ground-space solve runs dense."""
    if sp.issparse(h) and h.shape[0] <= DENSE_MAX:
        return h.toarray()
    return h


# Relative Hermiticity tolerance, shared by the matrix and operator checks.
HERMITIAN_TOL = 1e-12


def _check_input(h) -> None:
    """Refuse ``h`` unless it is finite and Hermitian.  A matrix is read
    entry by entry: max |H - H^dag| <= tol max(1, max |H|).  A linear
    operator is probed with two seeded matvecs, which must come back
    finite: |<x, Hy> - <Hx, y>| <= tol ||x|| ||Hy||, ||Hy|| by BLAS nrm2,
    which scales as it sums and so does not overflow where sqrt(y . y) does."""
    def peak(a):
        return abs(a.tocsr()).max() if sp.issparse(a) else np.abs(a).max(initial=0.0)

    if isinstance(h, spla.LinearOperator):
        x, y = np.random.default_rng(54321).standard_normal((2, h.shape[0]))
        hx, hy = h.matvec(x), h.matvec(y)
        scale = np.maximum(peak(hx), peak(hy))
        asym = abs(np.vdot(x, hy) - np.vdot(hx, y))
        bound = np.linalg.norm(x) * sla.get_blas_funcs("nrm2", (hy,))(hy)
        refusal = f"linear operator is not Hermitian: |<x,Hy> - <Hx,y>| = {asym:g}"
    else:
        scale, asym = peak(h), peak(h - h.conj().T)
        bound = max(1.0, scale)
        refusal = f"matrix is not Hermitian: max asymmetry {asym:g}"
    if not np.isfinite(scale):  # np.linalg.eigh may not raise, subset eigh ValueError
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    if asym > HERMITIAN_TOL * bound:
        raise ValidationError(refusal)


# Sparse input of dimension <= DENSE_MAX still takes the Lanczos path when
# few levels are wanted: dim >= LANCZOS_MIN_DIM and k <= dim / LANCZOS_K_RATIO.
# Measured at 1 BLAS thread, the dense path over the filtered solve (time
# ratio) on connected matrices (random sparse, dim 512-4096, and the direct
# coupled sectors at n_max 3 and 4, dim 1024 and 2500):
#   k = dim/8: 1.1-1.8, k = dim/16: 1.7-5.2, k = dim/32: 2.6-12.
# The reference model's direct blocks, ms dense/filtered at k = 6: 243 states
# 2.5/4.5, 300 4.9/4.8, 363 5.9/3.8, 507 15.1/5.4 (S = 0); 225 5.6/3.2, 256 8.8/4.6 (S = 1).
LANCZOS_MIN_DIM = 256
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
        if not np.isfinite(beta):  # the norm squares w's entries
            raise OverflowError("Lanczos norms square values too large for double arithmetic")
        alphas.append(alpha)
        betas.append(beta)
        if beta <= np.finfo(float).eps * norm:
            break
        q_prev, q = q, w / beta
    theta = sla.eigh_tridiagonal(alphas, betas[:-1], eigvals_only=True)
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
    axpy = sla.get_blas_funcs("axpy", dtype=dtype)

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


def _filtered_lanczos(h, k: int, tol: float):
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
    runs to ARPACK's default iteration limit and raises IterationLimitError.
    """
    matvec = h.matvec if isinstance(h, spla.LinearOperator) else h.dot
    dtype = np.result_type(h.dtype, np.float64)
    v0 = np.random.default_rng(12345).standard_normal(h.shape[0])  # reruns iterate alike
    lo, cut, hi = _spectrum_bounds(matvec, v0, k)
    for attempt in range(FILTER_RETRIES + 1):
        last = attempt == FILTER_RETRIES
        op = spla.LinearOperator(
            h.shape, matvec=_chebyshev_filter(matvec, cut, hi, dtype), dtype=dtype
        )
        iters = None if last else FILTER_PROBE_ITERS
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


def eigensolve(h, k: int = 6, tol: float = 0.0):
    """Lowest ``k`` eigenpairs of a Hermitian matrix or linear operator.

    Returns ``(vals, vecs)`` with eigenvalues ascending and eigenvectors in
    columns.  Dense input, and sparse input unless it is larger than
    ``DENSE_MAX`` or few levels of a large enough matrix are wanted
    (``dim >= LANCZOS_MIN_DIM`` and ``k <= dim / LANCZOS_K_RATIO``), is
    densified once and solved dense for the pairs asked for only:
    ``k < dim - 1`` by ``scipy.linalg.eigh(subset_by_index=[0, k - 1])``,
    otherwise all of them by ``np.linalg.eigh``, then truncated.
    ``k >= dim - 1`` always goes dense, a linear operator applied to the
    identity first (ARPACK needs k < dim - 1).  The rest, and every other
    linear operator, goes to ARPACK on a Chebyshev filter p(H) of the matrix
    (:func:`_filtered_lanczos`).  ``tol`` is passed to ``eigsh`` and so acts
    on p(H), not on H: it is ARPACK's relative accuracy of the eigenvalues
    of p(H), and the returned pairs of H are then held to residuals of
    max(tol, RESIDUAL_TOL) times the spectral radius.  Every path passes
    :func:`_check_input` once, on the matrix or operator it solves.
    """
    dim = h.shape[0]
    if h.shape[0] != h.shape[1]:
        raise ValidationError("matrix must be square")
    if k < 1:
        raise ValidationError("k must be >= 1")
    k = min(k, dim)
    if isinstance(h, spla.LinearOperator) and k >= dim - 1:
        h = h.matmat(np.eye(dim))
    _check_input(h)

    if isinstance(h, np.ndarray) or (sp.issparse(h) and _dense_pays(k, dim)):
        a = h if isinstance(h, np.ndarray) else h.toarray()
        if k < dim - 1:
            return sla.eigh(a, subset_by_index=[0, k - 1])
        vals, vecs = np.linalg.eigh(a)
        return vals[:k], vecs[:, :k]
    return _filtered_lanczos(h, k, tol)


@dataclass
class GroundSpaceReport:
    """Certified ground-space data, solved per total spin.

    ``spins`` lists the spin of each level in the ground cluster,
    ``vectors`` holds one highest-weight vector per level (lifted to the
    configuration basis) and ``degeneracy`` counts each level 2s+1 times;
    ``s_tot`` is the one spin of the cluster (a half-integer as float) or
    ``"mixed"``.
    """

    e0: float
    degeneracy: int
    vectors: np.ndarray
    s_tot: object
    spins: tuple


def _low_levels(h, cluster_tol: float, top=None, norm: float = 0.0):
    """Eigenpairs far enough up to certify where the ground cluster ends.
    The block goes through :func:`densify` once.  Every block starts at
    HEAD_LEVELS levels, doubled until one lies safely outside the grey zone
    or the spectrum is whole.  Given ``top``, a dense block returns no levels
    if a Cholesky factorization of h - sigma completes, sigma being ``top``
    plus its backward error n (n + 1) eps (``norm`` + |top|): all levels then
    lie above ``top`` (Higham, Accuracy and Stability, Thm 10.7)."""
    dim = h.shape[0]
    h = densify(h)
    if top is not None and isinstance(h, np.ndarray):
        sigma = top + dim * (dim + 1) * np.finfo(float).eps * (norm + abs(top))
        a = np.array(h, order="F")  # shifted and factored in place
        a.flat[:: dim + 1] -= sigma
        potrf = sla.get_lapack_funcs("potrf", (a,))
        if potrf(a, lower=True, overwrite_a=True, clean=False)[1] == 0:
            return np.empty(0), np.empty((dim, 0))
    k = min(HEAD_LEVELS, dim)
    while True:
        vals, vecs = eigensolve(h, k=k)
        scale = max(1.0, abs(vals[0]))
        if (vals[-1] - vals[0]) > 2.0 * cluster_tol * scale or k == dim:
            return vals, vecs
        k = min(2 * k, dim)


def ground_space(blocks, spaces, cluster_tol: float = CLUSTER_TOL, lead=None) -> GroundSpaceReport:
    """Ground energy, degeneracy and an orthonormal ground basis of a
    spin-symmetric Hamiltonian given one Hermitian matrix per total spin.

    ``blocks[i]`` (dense or sparse) acts on the highest-weight states of
    ``spaces[i]``, which carries the spin ``s`` and the isometry ``q`` into
    the configuration basis.  Each block is solved through
    :func:`eigensolve` and the levels are merged, each standing for 2s+1
    states.  ``lead`` names a block to solve first; every other dense block
    is then solved only if a Cholesky factorization cannot prove its levels
    above the grey zone's top e0 + 2 cluster_tol max(1, |e0|), e0 the lowest
    level solved so far (:func:`_low_levels`); sparse blocks above DENSE_MAX
    are always solved.  The report is the one without ``lead``.

    An eigenvalue belongs to the ground cluster when
    ``(e - e0) <= cluster_tol * max(1, |e0|)``.  If any eigenvalue lies
    within a factor of 2 of that threshold on either side the clustering is
    declared ambiguous and :class:`AmbiguousDegeneracyError` is raised with a
    tolerance suggestion instead of returning a coin-flip degeneracy.  The
    levels carry an absolute error of about eps ||H||; when that exceeds the
    grey zone's floor, 0.5 * cluster_tol * max(1, |e0|), no clustering can
    be trusted and :class:`AccuracyError` is raised.  ||H||, the largest
    absolute row sum, bounds every level: if it is not finite, LinAlgError.
    """
    mult = [int(round(2.0 * space.s + 1.0)) for space in spaces]
    norms = [float(abs(b).sum(axis=1).max()) for b in blocks]
    if not np.all(np.isfinite(norms)):
        raise np.linalg.LinAlgError("a block's largest absolute row sum ||H|| is not finite")
    solved, low = [None] * len(blocks), np.inf
    for i in sorted(range(len(blocks)), key=lambda i: i != lead):
        top = None if lead in (None, i) else low + 2.0 * cluster_tol * max(1.0, abs(low))
        solved[i] = _low_levels(blocks[i], cluster_tol, top, norms[i])
        low = np.min(solved[i][0], initial=low)
    vals = np.sort(np.concatenate([v for v, _ in solved]))
    e0 = float(vals[0])
    scale = max(1.0, abs(e0))
    norm = max(norms)
    if np.finfo(float).eps * norm > 0.5 * cluster_tol * scale:
        raise AccuracyError(
            f"levels near {e0:.6g} carry an error of eps ||H|| = "
            f"{np.finfo(float).eps * norm:.3e} above the grey-zone floor "
            f"{0.5 * cluster_tol * scale:.3e} of cluster_tol = {cluster_tol:.3e}"
        )
    rel = (vals - e0) / scale
    grey = (rel >= 0.5 * cluster_tol) & (rel <= 2.0 * cluster_tol)
    if np.any(grey):
        g = float(rel[grey][0])
        raise AmbiguousDegeneracyError(
            f"eigenvalue gap {g:.3e} (relative) sits within a factor 2 of "
            f"cluster_tol = {cluster_tol:.3e}; retry with cluster_tol "
            f"<= {g / 4:.3e} or >= {4 * g:.3e}",
            suggested_tol=g / 4,
        )
    ground, spins, degeneracy = [], [], 0
    for space, (v, vecs), w in zip(spaces, solved, mult):
        m = int(np.sum((v - e0) / scale <= cluster_tol))
        ground.append(space.q @ vecs[:, :m])
        spins += [space.s] * m
        degeneracy += m * w
    # re-orthonormalize inside the cluster; eigh pairs are orthonormal to
    # machine precision already, QR just pins the guarantee
    q, _ = np.linalg.qr(np.hstack(ground))
    return GroundSpaceReport(
        e0=e0,
        degeneracy=degeneracy,
        vectors=q,
        s_tot=spins[0] if len(set(spins)) == 1 else "mixed",
        spins=tuple(spins),
    )
