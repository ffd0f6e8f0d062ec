"""Fermionic sector bases and Hubbard Hamiltonians on small clusters.

Spin orbitals are packed into integers: orbital ``p = 2*x + s`` for site
``x`` and spin ``s`` (0 = up, 1 = down), so a basis state is a bit word over
``2 * n_sites`` bits.  Operators carry the usual fermionic sign
``(-1)**(number of occupied orbitals below p)``; one kernel (:func:`_moves`)
applies it to a whole word array at once, and every one-body operator here
(hopping, S+, the full-Fock c and c+) is built from it.

Every operator built here from hopping, u and site occupations is a spin
scalar, so it can be solved one total spin S at a time on the highest-weight
states of S (2 S_z = 2S and S+ psi = 0), where each spin-S level occurs once
(:class:`SpinSpace`; R. Pauncz, *Spin Eigenfunctions*, Plenum 1979).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np
import scipy.sparse as sp
from scipy.linalg import null_space
from scipy.sparse.csgraph import connected_components

from .errors import SizingError, ValidationError

# Hard cap on sector dimension; beyond this exact diagonalization is hopeless
# on one node anyway.
DIM_CAP = 200_000

__all__ = [
    "HoppingMatrix",
    "SectorBasis",
    "build_sector_basis",
    "SpinSpace",
    "spin_spaces",
    "fock_operator",
    "hopping_moves",
    "build_hubbard",
    "number_operators",
    "build_spin_operators",
    "s_max",
]


class HoppingMatrix:
    """Real symmetric hopping amplitudes, diagonal included.

    The matrix is stored mirrored from its upper triangle so symmetry holds
    exactly.  ``connected`` refers to the graph whose edges are the nonzero
    off-diagonal amplitudes.
    """

    def __init__(self, mat):
        a = np.asarray(mat, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("hopping matrix must be square")
        if a.shape[0] < 1:
            raise ValidationError("hopping matrix must have at least one site")
        if not np.all(np.isfinite(a)):
            raise ValidationError("hopping amplitudes must be finite")
        asym = np.max(np.abs(a - a.T))
        scale = np.max(np.abs(a))
        if asym > 1e-12 * max(1.0, scale):
            raise ValidationError(
                "hopping matrix must be symmetric: max|t - t.T| = %g" % asym
            )
        self.mat = np.triu(a) + np.triu(a, 1).T
        self.n_sites = a.shape[0]

    @classmethod
    def chain(cls, n_sites, t=-1.0):
        """Open chain with nearest-neighbour amplitude ``t``."""
        a = np.zeros((n_sites, n_sites))
        for x in range(n_sites - 1):
            a[x, x + 1] = t
            a[x + 1, x] = t
        return cls(a)

    @property
    def connected(self) -> bool:
        # diagonal entries are self-loops and join nothing
        n, _ = connected_components(sp.csr_matrix(self.mat != 0), directed=False)
        return n == 1

    def __repr__(self):
        return f"HoppingMatrix(n_sites={self.n_sites})"


class SectorBasis:
    """Occupation basis of the fixed particle-number sector.

    ``states`` is the array of bit words in increasing order, so the row of
    a word ``w`` is ``np.searchsorted(states, w)``.
    """

    def __init__(self, n_sites, n_e, states):
        self.n_sites = n_sites
        self.n_e = n_e
        self.states = states
        self.dim = len(states)

    def spin_occupations(self):
        """Up and down occupation tables, each shape (dim, n_sites), in {0,1}."""
        w = self.states.reshape(-1, 1)
        p = 2 * np.arange(self.n_sites)
        up, dn = (w >> p) & 1, (w >> (p + 1)) & 1
        return up.astype(np.int64), dn.astype(np.int64)

    def occupations(self):
        """Site occupation table, shape (dim, n_sites), entries in {0,1,2}."""
        up, dn = self.spin_occupations()
        return up + dn

    def __repr__(self):
        return f"SectorBasis(n_sites={self.n_sites}, n_e={self.n_e}, dim={self.dim})"


def build_sector_basis(n_sites: int, n_e: int) -> SectorBasis:
    """Enumerate all ``n_e``-electron words over ``2*n_sites`` spin orbitals."""
    if n_sites < 1:
        raise ValidationError("n_sites must be >= 1")
    if not 0 <= n_e <= 2 * n_sites:
        raise ValidationError(
            f"n_e = {n_e} outside [0, {2 * n_sites}] for n_sites = {n_sites}"
        )
    dim = comb(2 * n_sites, n_e)
    if dim > DIM_CAP:
        raise SizingError(f"sector dimension {dim} exceeds cap {DIM_CAP}")
    words = sorted(
        sum(1 << p for p in orbs) for orbs in combinations(range(2 * n_sites), n_e)
    )
    # words of 63 or more bits stay exact as Python integers
    dtype = np.int64 if 2 * n_sites < 63 else object
    return SectorBasis(n_sites, n_e, np.array(words, dtype=dtype))


def _parity_below(words, p):
    """(-1)**(occupied orbitals strictly below p), elementwise: the bits
    below p are folded onto bit 0 by xor, for int64 and Python-int words."""
    p = np.asarray(p).astype(words.dtype)
    below = words & ((1 << p) - 1)
    for k in reversed(range((int(np.max(p, initial=0)) - 1).bit_length())):
        below = below ^ (below >> (1 << k))
    return (1 - 2 * (below & 1)).astype(np.int64)


def _moves(words, p, q):
    """Every nonzero matrix element of the terms c+_{p[i]} c_{q[i]}, p != q.

    ``words`` is a sorted word array.  Returns ``(src, i, dst, sign)``: term
    ``i`` takes row ``src`` to row ``dst`` with the fermionic sign, the
    parity below q of the source times the parity below p after c_q.  The
    moves come in the order (src, i).
    """
    p, q = (np.asarray(a).astype(words.dtype) for a in (p, q))
    bp, bq = 1 << p, 1 << q
    src, i = np.nonzero((words.reshape(-1, 1) & (bp | bq)) == bq)  # q full, p empty
    after = words[src] ^ bq[i]
    sign = _parity_below(words[src], q[i]) * _parity_below(after, p[i])
    return src, i, np.searchsorted(words, after | bp[i]), sign


def fock_operator(n_sites: int, x: int, s: int, dagger: bool = True):
    """Dense creation/annihilation matrix on the full Fock space (dim 4**n).

    Intended for small-lattice algebra checks; refuses n_sites > 4.
    """
    if n_sites > 4:
        raise SizingError("full Fock operators limited to n_sites <= 4")
    if not 0 <= x < n_sites or s not in (0, 1):
        raise ValidationError(f"orbital ({x},{s}) outside lattice of {n_sites} sites")
    p = 2 * x + s
    w = np.arange(4**n_sites)
    w = w[(w >> p & 1) == (0 if dagger else 1)]
    m = np.zeros((4**n_sites, 4**n_sites))
    m[w ^ (1 << p), w] = _parity_below(w, p)
    return m


def hopping_moves(basis: SectorBasis, hopping: HoppingMatrix):
    """Every nonzero term of sum_{x != y, s} t_xy c+_xs c_ys on the sector.

    Returns arrays ``(x, y, src, dst, amp)``: move j takes basis state
    ``src[j]`` to ``dst[j]`` with amplitude ``t_xy`` times the fermionic
    sign.  Moves come in the order (src, x, y, spin).
    """
    t = hopping.mat
    x, y = np.nonzero((t != 0.0) & ~np.eye(basis.n_sites, dtype=bool))
    x, y, s = np.repeat(x, 2), np.repeat(y, 2), np.tile([0, 1], len(x))
    src, i, dst, sign = _moves(basis.states, 2 * x + s, 2 * y + s)
    return x[i], y[i], src, dst, t[x[i], y[i]] * sign


def _assemble(dim, rows, cols, vals):
    """CSR of entries at distinct positions; built sorted, skipping COO."""
    order = np.lexsort((cols, rows))
    indptr = np.searchsorted(rows[order], np.arange(dim + 1))
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=(dim, dim))


def build_hubbard(basis: SectorBasis, hopping: HoppingMatrix, u: float):
    """Sector Hamiltonian sum_{xys} t_xy c+_xs c_ys + u sum_x n_x+ n_x-.

    Diagonal hopping amplitudes t_xx enter as site potentials t_xx * n_x.
    Returns CSR at every dimension; on a :class:`SpinSpace`, the sector's
    Hamiltonian projected there.
    """
    if isinstance(basis, SpinSpace):
        return basis.project(build_hubbard(basis.sector, hopping, u))
    if hopping.n_sites != basis.n_sites:
        raise ValidationError(
            f"hopping is {hopping.n_sites}-site but basis has {basis.n_sites} sites"
        )
    t = hopping.mat
    up, dn = basis.spin_occupations()
    diag = np.zeros(basis.dim)
    for x in range(basis.n_sites):
        diag += t[x, x] * (up[:, x] + dn[:, x]) + u * up[:, x] * dn[:, x]
    # zero diagonal entries stay out of the sparse pattern
    nz = np.flatnonzero(diag)
    _, _, src, dst, amp = hopping_moves(basis, hopping)
    rows, cols = np.concatenate([nz, dst]), np.concatenate([nz, src])
    return _assemble(basis.dim, rows, cols, np.concatenate([diag[nz], amp]))


def number_operators(basis: SectorBasis):
    """Diagonals of the site-occupation and double-occupancy operators.

    Returns ``(occ, docc)`` with ``occ[x]`` the diagonal of n_x (shape
    (n_sites, dim)) and ``docc`` the diagonal of sum_x n_x+ n_x-.  All four
    operators are diagonal in the occupation basis, so the diagonals carry
    the full matrices.
    """
    up, dn = basis.spin_occupations()
    return (up + dn).T.astype(float), (up * dn).sum(axis=1).astype(float)


def build_spin_operators(basis: SectorBasis):
    """Total-spin components and S^2 on the sector.

    Returns ``(sx, sy, sz, s_squared)``, CSR at every dimension.  S^2 is
    assembled in ladder form S- S+ + Sz^2 + Sz, which keeps it real; sy is
    the only complex matrix.
    """
    up, dn = basis.spin_occupations()
    sz_diag = 0.5 * (up - dn).sum(axis=1)
    # S+ = sum_x c+_{x,up} c_{x,down}
    x = np.arange(basis.n_sites)
    src, _, dst, sign = _moves(basis.states, 2 * x, 2 * x + 1)
    splus = _assemble(basis.dim, dst, src, sign.astype(float))
    sminus = splus.T.tocsr()
    sz = sp.diags(sz_diag).tocsr()
    s_squared = (sminus @ splus + sp.diags(sz_diag**2 + sz_diag)).tocsr()
    sx = 0.5 * (splus + sminus)
    sy = -0.5j * (splus - sminus)
    return sx, sy, sz, s_squared


class SpinSpace:
    """The highest-weight states of total spin ``s`` in a particle-number sector.

    The columns of ``q`` (CSR, shape (sector.dim, dim)) are orthonormal
    states with 2 S_z = 2s and S+ psi = 0.  S+ keeps every site's
    occupation, so each column lies on one occupation pattern, that of the
    configuration ``rep[j]``: n_x, the double occupancy and the Hubbard
    diagonal stay diagonal here, with the entries of ``rep``.
    """

    def __init__(self, sector: SectorBasis, s: float, q, rep):
        self.sector = sector
        self.s = s
        self.q = q
        self.rep = rep
        self.n_sites = sector.n_sites
        self.n_e = sector.n_e
        self.dim = q.shape[1]

    def occupations(self):
        """Site occupation of each column's pattern, shape (dim, n_sites)."""
        return self.sector.occupations()[self.rep]

    def project(self, op):
        """Q^T op Q for a sector operator whose diagonal is fixed by the
        occupation pattern and whose other entries change the pattern, as
        for every operator built from hopping, u and n_x.  The diagonal is
        carried over exactly, not through Q."""
        d = op.diagonal()
        off = self.q.T @ (op - sp.diags(d)) @ self.q
        return (off + sp.diags(d[self.rep])).tocsr()


def spin_spaces(basis: SectorBasis):
    """The :class:`SpinSpace` of every total spin of the sector, lowest first.

    Built once per (n_sites, n_e) until ``spin_spaces.cache_clear()``; later
    calls return the same tuple, whose ``q`` and ``rep`` are read-only.
    Q is built one occupation pattern at a time, as the null space of the
    pattern's block of S+ from 2 S_z = 2s to 2s + 2 (taken from
    :func:`build_spin_operators`).  In this bit order S+ = sum_x c+_{x,up}
    c_{x,down} moves no electron past an occupied orbital, so every entry
    of the block is +1 and the block depends only on the number of singly
    occupied sites: its null space is computed once per (count, s).
    """
    return _spin_spaces(basis.n_sites, basis.n_e)


@lru_cache(maxsize=16)
def _spin_spaces(n_sites: int, n_e: int):
    basis = build_sector_basis(n_sites, n_e)
    up, dn = basis.spin_occupations()
    groups = {}  # (occupation pattern, 2 S_z) -> configurations, in basis order
    patterns = map(tuple, (up + dn).tolist())
    for i, key in enumerate(zip(patterns, (up - dn).sum(axis=1).tolist())):
        groups.setdefault(key, []).append(i)
    sx = build_spin_operators(basis)[0]  # S+ = 2 sx from 2 S_z to 2 S_z + 2
    nulls, spaces = {}, []
    for two_s in range(basis.n_e % 2, int(2 * s_max(basis.n_e, basis.n_sites)) + 1, 2):
        parts = []  # each pattern's configurations and null-space basis
        for (pattern, two_sz), a in groups.items():
            if two_sz != two_s:
                continue
            key = (pattern.count(1), two_s)
            if key not in nulls:
                b = groups.get((pattern, two_s + 2))
                nulls[key] = np.eye(1) if b is None else null_space(2.0 * sx[b][:, a].toarray())
            parts.append((a, nulls[key]))
        q = sp.block_diag([null for _, null in parts], format="coo")
        rows = np.concatenate([a for a, _ in parts])[q.row]
        q = sp.csr_matrix((q.data, (rows, q.col)), shape=(basis.dim, q.shape[1]))
        rep = np.concatenate([[a[0]] * null.shape[1] for a, null in parts])
        for arr in (q.data, q.indices, q.indptr, rep):
            arr.flags.writeable = False
        spaces.append(SpinSpace(basis, two_s / 2.0, q, rep))
    return tuple(spaces)


spin_spaces.cache_clear = _spin_spaces.cache_clear


def s_max(n_e: int, n_sites: int) -> float:
    """Largest total spin reachable with n_e electrons on n_sites sites."""
    if not 0 <= n_e <= 2 * n_sites:
        raise ValidationError(f"n_e = {n_e} outside [0, {2 * n_sites}]")
    return min(n_e, 2 * n_sites - n_e) / 2.0
