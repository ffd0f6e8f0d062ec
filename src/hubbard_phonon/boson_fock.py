"""Truncated bosonic Fock spaces, fields, Weyl operators, coherent states.

Modes are ordered; the occupation lattice is flattened in row-major order so
mode 0 is the slowest index.  Annihilation is antilinear in its argument:
``a(f) = sum_j conj(f_j) a_j``.  The field is ``phi(f) = (a(f) + a(f)^*) /
sqrt(2)`` and the Weyl operator ``W(f) = exp(i phi(f))``, which factorizes
over modes as a product of displacements ``D(i f_j / sqrt(2))``.

Operators are applied without being assembled: :func:`apply_ladder`,
:func:`apply_field` and :func:`apply_displacement` work one mode axis at a
time on a vector or on each row of a ``(k, dim)`` stack.  The sparse
:func:`field` exists for the one product that is a matrix, the coupled
Hamiltonian; it places the same ladder entries as :func:`apply_field` on
the diagonals of an assembled matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.special import gammainc

from .errors import SizingError, ValidationError

FOCK_DIM_CAP = 2_000_000

__all__ = [
    "ModeSet",
    "TruncatedFock",
    "field",
    "apply_ladder",
    "apply_field",
    "displacement_1mode",
    "coherent_amplitudes_1mode",
    "coherent_tail",
    "mode_kron",
    "apply_displacement",
    "coherent_weyl_overlap",
    "relative_bound_check",
]


class ModeSet:
    """Finite family of boson modes with positive frequencies."""

    def __init__(self, freqs):
        w = np.asarray(freqs, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValidationError("freqs must be a non-empty 1-d array")
        if np.any(w <= 0):
            raise ValidationError("mode frequencies must be strictly positive")
        self.freqs = w
        self.m = w.size

    def __repr__(self):
        return f"ModeSet(m={self.m})"


class TruncatedFock:
    """Occupation-number truncation of the boson Fock space.

    Every mode keeps levels 0..n_max.  Operators that raise occupation are
    exact on vectors supported strictly below the truncation edge.  At
    ``n_max`` 0 the space holds the vacuum alone: a model that only does
    coherent-cloud arithmetic takes it, and no size cap can fire.
    """

    def __init__(self, modes: ModeSet, n_max: int):
        if n_max < 0:
            raise ValidationError("n_max must be >= 0")
        self.modes = modes
        self.n_max = int(n_max)
        dim = (self.n_max + 1) ** modes.m
        if dim > FOCK_DIM_CAP:
            raise SizingError(
                f"Fock dimension {dim} exceeds cap {FOCK_DIM_CAP}"
            )
        self.dim = dim
        self.shape = (self.n_max + 1,) * modes.m
        self._occ = None
        self._root_occ = None
        self._masks = {}

    def occupations(self):
        """Occupation table, shape (dim, m)."""
        if self._occ is None:
            idx = np.unravel_index(np.arange(self.dim), self.shape)
            self._occ = np.stack(idx, axis=1).astype(np.int32)
        return self._occ

    def _root_occupations(self):
        """sqrt(n_j) per mode, shape (m, dim): the ladder matrix elements."""
        if self._root_occ is None:
            self._root_occ = np.sqrt(self.occupations().T.astype(np.float64))
        return self._root_occ

    def interior_mask(self, headroom: int):
        """States whose every mode occupation is <= n_max - headroom.

        Cached per headroom; the mask is read-only.
        """
        mask = self._masks.get(headroom)
        if mask is None:
            mask = np.all(self.occupations() <= self.n_max - headroom, axis=1)
            mask.flags.writeable = False
            self._masks[headroom] = mask
        return mask

    def hb_diag(self):
        return self.occupations() @ self.modes.freqs

    def nb_diag(self):
        return self.occupations().sum(axis=1).astype(float)

    def random_interior(self, rng, headroom: int, rows: int):
        """Unit-norm complex (rows, dim) stack, zero outside the interior mask;
        normals are drawn only for the kept states, real parts first."""
        mask = self.interior_mask(headroom)
        kept = rng.standard_normal((2, rows, np.count_nonzero(mask)))
        v = np.zeros((rows, self.dim), dtype=complex)
        v.real[:, mask] = kept[0]
        v.imag[:, mask] = kept[1]
        v /= np.linalg.norm(v)
        return v

    def __repr__(self):
        return f"TruncatedFock(m={self.modes.m}, n_max={self.n_max}, dim={self.dim})"


def _amplitudes(space: TruncatedFock, f) -> np.ndarray:
    """f as a float or complex array with one entry per mode."""
    f = np.asarray(f)
    f = f.astype(np.result_type(f.dtype, np.float64))
    if f.shape != (space.modes.m,):
        raise ValidationError("f must assign one amplitude per mode")
    return f


def field(space: TruncatedFock, f) -> sp.csr_matrix:
    """Hermitian field phi(f) = (a(f) + a(f)^*) / sqrt(2) as a CSR matrix.

    a_j links the states ``post = (n_max+1)^(m-1-j)`` entries apart with
    weight sqrt(n_j) of the upper state (:func:`_apply_ladder_terms`), so
    each mode with f_j != 0 fills the diagonal ``post`` above the main one
    with conj(f_j) sqrt(n_j) / sqrt 2 and the one ``post`` below with its
    conjugate; the zeros at block edges are not stored.
    """
    f = _amplitudes(space, f)
    m = space.modes.m
    root = space._root_occupations()
    diagonals, offsets = [], []
    for j in range(m):
        if f[j] == 0:
            continue
        post = (space.n_max + 1) ** (m - 1 - j)
        upper = (np.conj(f[j]) * root[j, post:]) * (1 / np.sqrt(2.0))
        diagonals += [upper, np.conj(upper)]
        offsets += [post, -post]
    if not offsets:
        return sp.csr_matrix((space.dim, space.dim), dtype=f.dtype)
    return sp.diags(diagonals, offsets, shape=(space.dim, space.dim), format="csr")


def _apply_ladder_terms(space: TruncatedFock, block, lower, upper, scale=1.0):
    """sum_j (lower_j a_j + upper_j a_j^dagger) @ block, times ``scale``.

    Each row of the block is a flat vector over the occupation lattice, on
    which a_j links the states ``post = (n_max+1)^(m-1-j)`` entries apart
    with weight sqrt(n_j) of the upper state (0 across a block edge, where
    n_j = 0).  So every term is one shifted, weighted slice; modes whose
    coefficient is 0 are skipped.  The terms are summed in the column order
    of the assembled CSR matrix (raisings from mode 0 on, then lowerings
    from the last mode back), with the same per-entry weights, so for real
    coefficients the result repeats the sparse product's roundings.
    """
    m = space.modes.m
    t = np.asarray(block)
    rows = t.reshape(-1, space.dim)
    coefs = [c for c in (lower, upper) if c is not None]
    dtype = np.result_type(t.dtype, *coefs, np.float64)
    out = np.zeros(rows.shape, dtype)
    prod = np.empty(rows.shape, dtype)
    root = space._root_occupations()
    terms = []
    if upper is not None:
        terms += [(j, upper[j], True) for j in range(m)]
    if lower is not None:
        terms += [(j, lower[j], False) for j in reversed(range(m))]
    for j, c, raising in terms:
        if c == 0:
            continue
        post = (space.n_max + 1) ** (m - 1 - j)
        w = ((c * root[j, post:]) * scale).astype(dtype, copy=False)
        p = prod[:, post:]
        if raising:
            np.multiply(w, rows[:, :-post], out=p)
            out[:, post:] += p
        else:
            np.multiply(w, rows[:, post:], out=p)
            out[:, :-post] += p
    return out.reshape(t.shape)


def apply_ladder(space: TruncatedFock, f, block, dagger: bool = False):
    """a(f) @ block, or a^*(f) @ block with ``dagger``, without assembling.

    ``block`` is a vector or a (k, dim) stack whose rows are acted on.  The
    result is real for real f and a real block.
    """
    f = _amplitudes(space, f)
    if dagger:
        return _apply_ladder_terms(space, block, None, f)
    return _apply_ladder_terms(space, block, np.conj(f), None)


def apply_field(space: TruncatedFock, f, block):
    """phi(f) @ block = (a(f) + a^*(f)) @ block / sqrt 2, without assembling."""
    f = _amplitudes(space, f)
    return _apply_ladder_terms(space, block, np.conj(f), f, 1 / np.sqrt(2.0))


@lru_cache(maxsize=256, typed=True)
def displacement_1mode(z: complex, n_max: int) -> np.ndarray:
    """Dense single-mode displacement exp(z a^dagger - conj(z) a), read-only."""
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    d = expm(z * a.conj().T - np.conj(z) * a)
    d.flags.writeable = False
    return d


def coherent_amplitudes_1mode(z: complex, n_max: int) -> np.ndarray:
    """Amplitudes z^n / sqrt(n!) * exp(-|z|^2/2), levels 0..n_max."""
    c = np.zeros(n_max + 1, dtype=complex)
    c[0] = np.exp(-0.5 * abs(z) ** 2)
    for n in range(1, n_max + 1):
        c[n] = c[n - 1] * z / np.sqrt(n)
    return c


def coherent_tail(z, n_max: int):
    """Weight a truncation at n_max cuts from |z>: the Poisson(|z|^2) tail.

    Elementwise in z; the incomplete gamma function keeps tiny tails exact.
    """
    return gammainc(n_max + 1, np.abs(z) ** 2)


def mode_kron(factors):
    """Kronecker product of per-mode vectors or matrices, mode 0 slowest."""
    out = np.ones((1,) * np.ndim(factors[0]), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def apply_displacement(space: TruncatedFock, z, block):
    """Apply prod_j D(z_j) to a vector or to each row of a (k, dim) stack.

    Per mode with z_j != 0 this is one matrix product: ``D @ t`` on the
    (n_max+1, rest) slices of the mode's axis, or ``t @ D.T`` on the last
    mode.  A complex block under a real D is contracted as its interleaved
    real and imaginary parts, so every product runs on real BLAS.
    """
    z = np.asarray(z)
    m = space.modes.m
    if z.shape != (m,):
        raise ValidationError("z must assign one displacement per mode")
    shape = np.shape(block)
    n = space.n_max + 1
    t = np.asarray(block)
    for j in range(m):
        if z[j] == 0:
            continue
        d = displacement_1mode(z[j], space.n_max)
        post = n ** (m - 1 - j)
        if post == 1:
            t = t.reshape(-1, n) @ d.T
        elif np.iscomplexobj(t) and not np.iscomplexobj(d):
            re_im = np.ascontiguousarray(t).reshape(-1, n, post).view(np.float64)
            t = np.matmul(d, re_im).view(t.dtype)
        else:
            t = np.matmul(d, t.reshape(-1, n, post))
    return t.reshape(shape)


def coherent_weyl_overlap(z, w, f) -> complex:
    """Exact <z| W(f) |w> between normalized coherent states.

    Uses W(f)|w> = e^{(u conj(w) - conj(u) w)/2} |w + u> with u = i f / sqrt 2
    and the coherent overlap formula; everything reduces to inner products,
    so no truncation enters.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    u = 1j * np.asarray(f, dtype=complex) / np.sqrt(2.0)
    ph = 0.5 * (np.sum(u * np.conj(w)) - np.sum(np.conj(u) * w))
    shifted = w + u
    ov = np.exp(
        -0.5 * np.vdot(z, z) - 0.5 * np.vdot(shifted, shifted) + np.vdot(z, shifted)
    )
    return complex(np.exp(ph) * ov)


def relative_bound_check(space: TruncatedFock, f, n_trials: int = 50, rng=None):
    """Margin of the field bound against the free energy form.

    For states away from the truncation edge checks
    ``||phi(f) psi|| <= (1/sqrt 2) (2 ||f/sqrt(omega)|| ||H_b^(1/2) psi||
    + ||f|| ||psi||)`` and returns the largest (signed) violation margin; a
    nonpositive result means the bound held on every trial.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    f = np.asarray(f, dtype=complex)
    w = space.modes.freqs
    f_over_sqrt_w = np.linalg.norm(f / np.sqrt(w))
    f_norm = np.linalg.norm(f)
    hb = space.hb_diag()
    worst = -np.inf
    for _ in range(n_trials):
        psi = space.random_interior(rng, 1, 1)[0]
        lhs = np.linalg.norm(apply_field(space, f, psi))
        hb_half = np.sqrt(np.sum(hb * np.abs(psi) ** 2))
        rhs = (2.0 * f_over_sqrt_w * hb_half + f_norm * 1.0) / np.sqrt(2.0)
        worst = max(worst, lhs - rhs)
    return worst
