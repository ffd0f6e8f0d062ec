"""Test oracles for ladders, Weyl operators, the transformed Hamiltonian and
the coupling norms.

``ladder`` and ``annihilator`` assemble a_j and a(f) as sparse Kronecker
products.  ``apply_weyl`` applies W(f) mode by mode through the package's
``apply_displacement`` and warns when the displaced vacuum loses more tail
mass than ``TAIL_BOUND`` to the truncation.  ``dense_transformed`` assembles
the transformed Hamiltonian on the active modes entry block by entry block,
and ``transformed_levels`` adds the free modes' ladder to its levels by
brute force.  ``dense_direct`` and ``direct_levels`` do the same for the
direct Hamiltonian, whose free modes also lower every level by the ground
energy of their displaced oscillators.  ``quad_log_rule`` is the adaptive
quadrature in ln k that the norm check's fixed rule replaced.
"""

import itertools
import warnings

import numpy as np
import scipy.sparse as sp
from scipy import integrate
from scipy.linalg import null_space

from hubbard_phonon.boson_fock import (
    apply_displacement,
    coherent_tail,
    displacement_1mode,
    field,
    mode_kron,
)
from hubbard_phonon.errors import ValidationError
from hubbard_phonon.lattice_fermions import hopping_moves

# Coherent tail mass a truncation may cut; above it, warn.
TAIL_BOUND = 1e-8


class TruncationWarning(UserWarning):
    """A truncated-space operation lost more weight than the stated bound."""


def ladder(space, j):
    """Oracle: sparse (a_j, a_j^dagger), the single-mode annihilator
    sqrt(n) on the first superdiagonal embedded between identities."""
    n1 = space.n_max + 1
    a1 = sp.csr_matrix(np.diag(np.sqrt(np.arange(1.0, n1)), 1))
    left = sp.identity(n1**j, format="csr")
    right = sp.identity(n1 ** (space.modes.m - 1 - j), format="csr")
    a = sp.kron(sp.kron(left, a1), right).tocsr()
    return a, a.T.tocsr()


def annihilator(space, f):
    """Oracle: sparse a(f) = sum_j conj(f_j) a_j from the Kronecker ladders."""
    f = np.asarray(f)
    f = f.astype(np.result_type(f.dtype, np.float64))
    out = sp.csr_matrix((space.dim, space.dim), dtype=f.dtype)
    for j in range(space.modes.m):
        if f[j] != 0:
            out = out + np.conj(f[j]) * ladder(space, j)[0]
    return out


def weyl_displacement(space, f):
    """Per-mode displacements i f / sqrt 2 of W(f), tail-checked."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (space.modes.m,):
        raise ValidationError("f must assign one amplitude per mode")
    u = 1j * f / np.sqrt(2.0)
    tail = float(coherent_tail(u, space.n_max).sum())
    if tail > TAIL_BOUND:
        warnings.warn(
            f"Weyl displacement tail mass {tail:.3e} exceeds bound "
            f"{TAIL_BOUND:.1e} at n_max = {space.n_max}",
            TruncationWarning,
            stacklevel=3,
        )
    return u


def apply_weyl(space, f, vec):
    """Matrix-free W(f) @ vec (or on each row of a (k, dim) stack)."""
    return apply_displacement(space, weyl_displacement(space, f), vec)


def dense_transformed(ha):
    """The transformed Hamiltonian of ``ha.model``'s whole sector on the
    active modes, assembled entry block by entry block: the full model's
    H_e - alpha^2 R plus the active modes' H_b on the diagonal, and each hop
    times the Kronecker product of its per-mode displacements off it."""
    model, fock = ha.model, ha.active
    b = fock.dim
    diag = np.add.outer(
        model.he.diagonal() - model.alpha**2 * model.r_diag(), fock.hb_diag()
    )
    h = np.diag(diag.ravel())
    for x, y, src, dst, amp in zip(*hopping_moves(model.basis, model.hopping)):
        z = ((model.alpha / np.sqrt(2.0)) * (model.g[x] - model.g[y])) @ ha.rotation
        d = mode_kron([displacement_1mode(zj, fock.n_max) for zj in z])
        h[dst * b : (dst + 1) * b, src * b : (src + 1) * b] += amp * d.real
    return h


def _ladder(ha, k):
    """sum_f n_f omega_f over every free-mode occupation of at most k - 1
    quanta per mode."""
    occupations = itertools.product(range(k), repeat=ha.free_freqs.size)
    return [np.dot(n, ha.free_freqs) for n in occupations]


def transformed_levels(ha, k):
    """Lowest k transformed levels: every level of :func:`dense_transformed`
    plus every free-mode occupation of at most k - 1 quanta per mode."""
    active = np.linalg.eigvalsh(dense_transformed(ha))
    return np.sort(np.add.outer(active, _ladder(ha, k)).ravel())[:k]


def dense_direct(ha):
    """The direct Hamiltonian of ``ha.model``'s whole sector on the active
    modes, assembled dense: H_e x 1 + 1 x H_b + alpha sum_x n_x x
    phi(lambda_x), with lambda_x rotated onto the active modes."""
    model, fock = ha.model, ha.active
    lam = model.lam @ ha.rotation
    h = np.kron(model.he.toarray(), np.eye(fock.dim))
    h += np.kron(np.eye(model.basis.dim), np.diag(fock.hb_diag()))
    for x in range(model.basis.n_sites):
        h += model.alpha * np.kron(np.diag(model.nu[:, x]), field(fock, lam[x]).toarray())
    return h


def free_modes(ha):
    """(m, m_free) orthonormal columns of the free modes, each shell's
    spelled out as the orthonormal complement of its active columns, and
    their frequencies."""
    freqs, active = ha.model.fock.modes.freqs, ha.active.modes.freqs
    columns, free_freqs = [], []
    for w in np.unique(ha.free_freqs):
        shell = freqs == w
        modes = np.zeros((freqs.size, int(np.sum(ha.free_freqs == w))))
        modes[shell] = null_space(ha.rotation[shell][:, active == w].T)
        columns.append(modes)
        free_freqs += [w] * modes.shape[1]
    return np.hstack([np.zeros((freqs.size, 0))] + columns), np.array(free_freqs)


def free_ground_energy(ha):
    """Ground energy of the free modes' oscillators, sum_f [omega_f n_f +
    alpha n_e phi(lambda_f)]: -(alpha n_e lambda_f)^2 / (2 omega_f) summed,
    with the free modes of :func:`free_modes` and lambda_f read from every
    site."""
    model = ha.model
    modes, free_freqs = free_modes(ha)
    lam_f = model.lam @ modes  # (n_sites, free modes)
    assert np.max(np.ptp(lam_f, axis=0), initial=0.0) <= 1e-12
    return -np.sum((model.alpha * model.basis.n_e * lam_f[0]) ** 2 / (2.0 * free_freqs))


def direct_levels(ha, k):
    """Lowest k direct levels: every level of :func:`dense_direct` plus every
    free-mode occupation of at most k - 1 quanta per mode, plus the free
    modes' ground energy."""
    active = np.linalg.eigvalsh(dense_direct(ha)) + free_ground_energy(ha)
    return np.sort(np.add.outer(active, _ladder(ha, k)).ravel())[:k]


def quad_log_rule(a, lo, hi):
    """int_lo^hi e^(a v) dv by scipy's adaptive quad, to 1e-13 relative."""
    val, _ = integrate.quad(
        lambda v: np.exp(a * v), lo, hi, epsabs=0.0, epsrel=1e-13, limit=200
    )
    return val
