"""Ground-space extraction with explicit degeneracy bookkeeping.

Dense spectra are computed in full, one connected block of the matrix's
nonzero pattern at a time (for a Hubbard Hamiltonian these are the S_z
sectors); large sparse problems go through ARPACK (Lanczos with implicit
restarts and full reorthogonalization of the Krylov block).  Degeneracy is
decided by relative clustering at ``cluster_tol``; a cluster boundary that
falls inside the factor-2 grey zone raises instead of silently picking a
side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import (
    AccuracyError,
    AmbiguousDegeneracyError,
    IterationLimitError,
    ValidationError,
)

# Dense/sparse crossover for assembly, eigensolves and dense operators.
DENSE_MAX = 4096

__all__ = ["eigensolve", "multiplet_levels", "ground_space", "GroundSpaceReport"]


def _is_operator(h) -> bool:
    return isinstance(h, spla.LinearOperator)


# Relative Hermiticity tolerance, shared by the matrix and operator checks.
HERMITIAN_TOL = 1e-12


def _check_hermitian(h) -> None:
    """Hermiticity of a sparse matrix or, by probe, of a linear operator."""
    if _is_operator(h):
        _probe_hermitian(h)
        return
    d = h - h.conj().T
    _require_hermitian(
        np.max(np.abs(d.data)) if d.nnz else 0.0,
        np.max(np.abs(h.data)) if h.nnz else 0.0,
    )


def _require_hermitian(asym, scale) -> None:
    if asym > HERMITIAN_TOL * max(1.0, scale):
        raise ValidationError(f"matrix is not Hermitian: max asymmetry {asym:g}")


def _probe_hermitian(op) -> None:
    """Seeded two-vector test |<x, Hy> - <Hx, y>| <= tol ||x|| ||Hy||."""
    rng = np.random.default_rng(54321)
    x, y = rng.standard_normal((2, op.shape[0]))
    hx, hy = op.matvec(x), op.matvec(y)
    asym = abs(np.vdot(x, hy) - np.vdot(hx, y))
    if asym > HERMITIAN_TOL * np.linalg.norm(x) * np.linalg.norm(hy):
        raise ValidationError(
            f"linear operator is not Hermitian: |<x,Hy> - <Hx,y>| = {asym:g}"
        )


def _blockwise_eigh(dense, labels):
    """Full eigendecomposition, one ``np.linalg.eigh`` per labelled block.

    ``labels`` names the connected block of each index.  A block-diagonal
    matrix's spectrum is the union of its blocks' spectra: the eigenvalues
    are merged by a stable ascending sort and each block's eigenvectors
    land, zero-padded, in their sorted columns.  A single block returns
    exactly what ``np.linalg.eigh`` does.

    Hermiticity is checked on the blocks: every nonzero and its transpose
    partner lie in one block, so the blocks' largest asymmetry and entry
    are the whole matrix's.
    """
    by_label = np.argsort(labels, kind="stable")
    blocks = np.split(by_label, np.cumsum(np.bincount(labels))[:-1])
    subs = [dense[np.ix_(idx, idx)] for idx in blocks]
    _require_hermitian(
        max(np.max(np.abs(b - b.conj().T), initial=0.0) for b in subs),
        max(np.max(np.abs(b), initial=0.0) for b in subs),
    )
    parts = [np.linalg.eigh(b) for b in subs]
    vals = np.concatenate([w for w, _ in parts])
    order = np.argsort(vals, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    vecs = np.zeros(dense.shape, dtype=parts[0][1].dtype)
    start = 0
    for idx, (w, v) in zip(blocks, parts):
        vecs[np.ix_(idx, column[start : start + w.size])] = v
        start += w.size
    return vals[order], vecs


def _lanczos_start(dim: int) -> np.ndarray:
    # fixed start vector so repeated runs produce identical iterates
    return np.random.default_rng(12345).standard_normal(dim)


def eigensolve(h, k: int = 6, tol: float = 0.0, maxiter=None):
    """Lowest ``k`` eigenpairs of a Hermitian matrix or linear operator.

    Returns ``(vals, vecs)`` with eigenvalues ascending and eigenvectors in
    columns.  Dense input (or sparse of dimension <= ``DENSE_MAX``) is
    solved in full by a direct method, block by block along the connected
    components of its nonzero pattern, and truncated; larger sparse input
    and linear operators use shift-free Lanczos on the small end of the
    spectrum.  Linear operators are probed for Hermiticity with two seeded
    matvecs before the solve.
    """
    dim = h.shape[0]
    if h.shape[0] != h.shape[1]:
        raise ValidationError("matrix must be square")
    if k < 1:
        raise ValidationError("k must be >= 1")
    k = min(k, dim)

    if isinstance(h, np.ndarray) or (
        sp.issparse(h) and (dim <= DENSE_MAX or k >= dim - 1)
    ):
        # csgraph on a dense array builds masked arrays; a CSR pattern is cheap
        _, labels = connected_components(sp.csr_matrix(h != 0), directed=False)
        dense = h if isinstance(h, np.ndarray) else h.toarray()
        vals, vecs = _blockwise_eigh(dense, labels)
        return vals[:k], vecs[:, :k]

    _check_hermitian(h)
    if _is_operator(h) and k >= dim - 1:
        raise ValidationError(
            f"k = {k} too close to dim = {dim} for the iterative path"
        )
    try:
        vals, vecs = spla.eigsh(
            h,
            k=k,
            which="SA",
            tol=tol,
            maxiter=maxiter,
            v0=_lanczos_start(dim),
        )
    except spla.ArpackNoConvergence as exc:
        nc = len(exc.eigenvalues)
        raise IterationLimitError(
            f"Lanczos converged only {nc}/{k} eigenpairs", residual=None
        ) from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


@dataclass
class GroundSpaceReport:
    """Certified ground-space data.

    ``s_tot`` is the common total spin of the ground vectors (a half-integer
    as float), the string ``"mixed"`` when they do not share one, or None
    when no spin operator was supplied.
    """

    e0: float
    degeneracy: int
    vectors: np.ndarray
    gap: float
    cluster_tol: float
    s_tot: object = None
    spectrum_head: np.ndarray = field(default_factory=lambda: np.empty(0))


def snap_spin(q: float, tol_spin: float):
    """The half-integer s with |q - s(s+1)| <= tol_spin, or None."""
    s = 0.5 * (-1.0 + np.sqrt(max(0.0, 1.0 + 4.0 * q)))
    s_half = round(2.0 * s) / 2.0
    if abs(q - s_half * (s_half + 1.0)) > tol_spin:
        return None
    return s_half


def _spin_label(vectors, s_squared, tol_spin):
    qs = np.array([np.vdot(v, s_squared @ v).real for v in vectors.T])
    if np.max(np.abs(qs - qs[0])) > tol_spin:
        return "mixed"
    s = snap_spin(qs[0], tol_spin)
    return "mixed" if s is None else s


# Relative gap below which two Ritz values of one S_z sector count as one
# level (the default ground-space clustering tolerance).
MULTIPLET_TOL = 1e-8

# Absolute distance from s(s+1) within which an S^2 value names a spin s.
SPIN_TOL = 1e-6


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
        v = vecs[:, a:b]
        qs, u = np.linalg.eigh(v.conj().T @ (s_squared @ v))
        spins = [snap_spin(q, SPIN_TOL) for q in qs]
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
    tol_spin: float = SPIN_TOL,
    k_probe: int = 8,
) -> GroundSpaceReport:
    """Ground energy, degeneracy and an orthonormal ground basis.

    An eigenvalue belongs to the ground cluster when
    ``(e - e0) <= cluster_tol * max(1, |e0|)``.  If any eigenvalue lies
    within a factor of 2 of that threshold on either side the clustering is
    declared ambiguous and :class:`AmbiguousDegeneracyError` is raised with a
    tolerance suggestion instead of returning a coin-flip degeneracy.
    """
    dim = h.shape[0]
    use_dense = isinstance(h, np.ndarray) or (sp.issparse(h) and dim <= DENSE_MAX)

    if use_dense:
        vals, vecs = eigensolve(h, k=dim)
    else:
        k = min(max(k_probe, 2), dim - 1)
        while True:
            vals, vecs = eigensolve(h, k=k)
            scale = max(1.0, abs(vals[0]))
            # need at least one eigenvalue safely outside the grey zone to
            # certify where the cluster ends
            if (vals[-1] - vals[0]) > 2.0 * cluster_tol * scale or k >= dim - 1:
                break
            k = min(2 * k, dim - 1)

    e0 = float(vals[0])
    scale = max(1.0, abs(e0))
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
    inside = rel <= cluster_tol
    deg = int(np.sum(inside))
    vecs_in = vecs[:, :deg]
    # re-orthonormalize inside the cluster; eigh pairs are orthonormal to
    # machine precision already, QR just pins the guarantee
    q, _ = np.linalg.qr(vecs_in)
    gap = float(vals[deg] - e0) if deg < len(vals) else np.inf

    s_tot = None
    if s_squared is not None:
        s_tot = _spin_label(q, s_squared, tol_spin)

    return GroundSpaceReport(
        e0=e0,
        degeneracy=deg,
        vectors=q,
        gap=gap,
        cluster_tol=cluster_tol,
        s_tot=s_tot,
        spectrum_head=np.asarray(vals[: min(len(vals), 10)], dtype=float),
    )
