"""Truncated bosonic Fock spaces, fields, Weyl operators, coherent states.

Modes are ordered; the occupation lattice is flattened in row-major order so
mode 0 is the slowest index.  Annihilation is antilinear in its argument:
``a(f) = sum_j conj(f_j) a_j``.  The field is ``phi(f) = (a(f) + a(f)^*) /
sqrt(2)`` and the Weyl operator ``W(f) = exp(i phi(f))``, which factorizes
over modes as a product of displacements ``D(i f_j / sqrt(2))``.

Operators are applied without being assembled: :func:`apply_ladder`,
:func:`apply_field` and :func:`apply_modes` (behind :func:`apply_displacement`;
it maps rows on a smaller box to whole rows) work one mode axis at a time on
a vector or on each row of a ``(k, dim)`` stack.  The sparse :func:`field`,
for the one product that is a matrix, the coupled Hamiltonian, places the
same ladder entries as :func:`apply_field` on the diagonals of a matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from .errors import ValidationError

__all__ = [
    "ModeSet",
    "TruncatedFock",
    "field",
    "apply_ladder",
    "apply_field",
    "lowering_1mode",
    "displacement_1mode",
    "coherent_amplitudes_1mode",
    "coherent_tail",
    "mode_kron",
    "apply_modes",
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
    ``n_max`` 0 the space holds the vacuum alone: a model that builds no
    boson vector on its own box takes it.  Nothing is allocated until it
    is read, and no cap is checked here: every box the package fills is, or
    lies in, that of a capped :class:`lang_firsov.CoupledModel`.  The
    occupation table and the H_b and N_b diagonals are cached read-only.
    """

    def __init__(self, modes: ModeSet, n_max: int):
        if n_max < 0:
            raise ValidationError("n_max must be >= 0")
        self.modes = modes
        self.n_max = int(n_max)
        self.dim = (self.n_max + 1) ** modes.m
        self.shape = (self.n_max + 1,) * modes.m
        self._cache = {}

    def _cached(self, key, make):
        """make(), computed once per key and kept read-only."""
        if key not in self._cache:
            self._cache[key] = make()
            self._cache[key].flags.writeable = False
        return self._cache[key]

    def occupations(self):
        """Occupation table, shape (dim, m)."""
        return self._cached(
            "occ", lambda: np.indices(self.shape, np.int32).reshape(self.modes.m, -1).T.copy()
        )

    def hb_diag(self):
        """Diagonal of H_b = sum_j omega_j n_j."""
        return self._cached("hb", lambda: self.occupations() @ self.modes.freqs)

    def nb_diag(self):
        """Diagonal of N_b = sum_j n_j."""
        return self._cached("nb", lambda: self.occupations().sum(axis=1).astype(float))

    def random_interior(self, rng, headroom: int, rows: int):
        """Unit-norm complex (rows, dim) stack of normals, real parts first,
        written in C order into the sub-box where every mode holds at most
        n_max - headroom; an empty one raises :class:`ValidationError`."""
        side = self.n_max + 1 - headroom
        if side < 1:
            raise ValidationError(f"n_max {self.n_max} leaves an empty interior")
        kept = rng.standard_normal((2, rows) + (side,) * self.modes.m)
        v = np.zeros((rows, self.dim), dtype=complex)
        box = v.reshape((rows,) + self.shape)[(slice(None),) + (slice(side),) * self.modes.m]
        box.real, box.imag = kept
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
    m, n = space.modes.m, space.n_max + 1
    diagonals, offsets = [], []
    for j in range(m):
        if f[j] == 0:
            continue
        post = n ** (m - 1 - j)
        root = np.repeat(np.tile(np.sqrt(np.arange(n, dtype=float)), n**j), post)  # sqrt(n_j)
        upper = (np.conj(f[j]) * root[post:]) * (1 / np.sqrt(2.0))
        diagonals += [upper, np.conj(upper)]
        offsets += [post, -post]
    if not offsets:
        return sp.csr_matrix((space.dim, space.dim), dtype=f.dtype)
    return sp.diags(diagonals, offsets, shape=(space.dim, space.dim), format="csr")


def _apply_ladder_terms(space: TruncatedFock, block, lower, upper, scale=1.0):
    """sum_j (lower_j a_j + upper_j a_j^dagger) @ block, times ``scale``.

    For mode j each row of the block is viewed as (pre, n, post) with
    n = n_max + 1 levels on the middle axis, where a_j lowers the level by
    one with weight sqrt(k) of the upper level k.  So every term is one
    product of the level slice shifted by one with the length-(n - 1)
    weight vector (c sqrt(k)) * scale along the level axis; modes whose
    coefficient is 0 are skipped.  The terms are summed in the column order
    of the assembled CSR matrix (raisings from mode 0 on, then lowerings
    from the last mode back), with the same per-entry weights, so for real
    coefficients the result repeats the sparse product's roundings.
    """
    m, n = space.modes.m, space.n_max + 1
    t = np.asarray(block)
    rows = t.reshape(-1, space.dim)
    coefs = [c for c in (lower, upper) if c is not None]
    dtype = np.result_type(t.dtype, *coefs, np.float64)
    out = np.zeros(rows.shape, dtype)
    root = np.sqrt(np.arange(1, n, dtype=float))[:, None]  # sqrt(k), upper level k
    terms = []
    if upper is not None:
        terms += [(j, upper[j], True) for j in range(m)]
    if lower is not None:
        terms += [(j, lower[j], False) for j in reversed(range(m))]
    for j, c, raising in terms:
        if c == 0:
            continue
        post = n ** (m - 1 - j)
        src, dst = rows.reshape(-1, n, post), out.reshape(-1, n, post)
        w = ((c * root) * scale).astype(dtype, copy=False)
        if raising:
            dst[:, 1:] += w * src[:, :-1]
        else:
            dst[:, :-1] += w * src[:, 1:]
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


def lowering_1mode(n_max: int) -> np.ndarray:
    """Dense single-mode lowering a on levels 0..n_max: a|k> = sqrt(k)|k-1>."""
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)


@lru_cache(maxsize=256, typed=True)
def displacement_1mode(z: complex, n_max: int) -> np.ndarray:
    """Dense single-mode displacement exp(z a^dagger - conj(z) a), read-only;
    D(-z), the exponential of minus the same truncated generator, is its
    exact inverse on the truncated mode."""
    a = lowering_1mode(n_max)
    d = expm(z * a.T - np.conj(z) * a)
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
    from scipy.special import gammainc  # sweep never reaches a truncation
    return gammainc(n_max + 1, np.abs(z) ** 2)


def mode_kron(factors):
    """Kronecker product of per-mode vectors or matrices, mode 0 slowest."""
    out = np.ones((1,) * np.ndim(factors[0]), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def apply_modes(space: TruncatedFock, mats, block):
    """prod_j M_j, ``mats`` mapping mode j to an (n_max+1)-square M_j (else
    the identity), on a vector or each row of a (k, s^m) stack: rows on a
    box of side s <= n_max + 1, zero outside it, come back as whole rows.

    Per mode one product contracts only the first s columns of M_j, ``M @ t``
    on the (rest, s, post) view or ``t @ M.T`` on the last mode: a box row
    costs about (s / (n_max+1))^(m-1) of a whole one and, where BLAS sums
    over k in order, equals the zero-padded call bit for bit.  A complex
    block under a real M runs on real BLAS as interleaved parts."""
    m, n = space.modes.m, space.n_max + 1
    t = np.asarray(block)
    lead, size = t.shape[:-1], t.shape[-1] if t.ndim else 0
    side = int(round(size ** (1.0 / m)))
    if side**m != size or not 1 <= side <= n:
        raise ValidationError(f"rows of {size} entries lie on no box of side <= {n}")
    for j in range(m):
        post = side ** (m - 1 - j)
        d = mats.get(j)
        if d is None and side == n:
            continue
        d = (np.eye(n) if d is None else d)[:, :side]  # the identity pads exactly
        if post == 1:
            t = t.reshape(-1, side) @ d.T
        elif np.iscomplexobj(t) and not np.iscomplexobj(d):
            re_im = np.ascontiguousarray(t).reshape(-1, side, post).view(np.float64)
            t = np.matmul(d, re_im).view(t.dtype)
        else:
            t = np.matmul(d, t.reshape(-1, side, post))
    return t.reshape(lead + (space.dim,))


def apply_displacement(space: TruncatedFock, z, block):
    """prod_j D(z_j) on rows, whole or on a box: :func:`apply_modes`."""
    z = np.asarray(z)
    if z.shape != (space.modes.m,):
        raise ValidationError("z must assign one displacement per mode")
    mats = {j: displacement_1mode(zj, space.n_max) for j, zj in enumerate(z) if zj != 0}
    return apply_modes(space, mats, block)


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
