"""Test oracles for Weyl operators and the transformed Hamiltonian.

``apply_weyl`` applies W(f) mode by mode through the package's
``apply_displacement`` and warns when the displaced vacuum loses more tail
mass than ``TAIL_BOUND`` to the truncation.  ``dense_transformed`` assembles
the transformed Hamiltonian on the active modes entry block by entry block,
and ``transformed_levels`` adds the free modes' ladder to its levels by
brute force.
"""

import itertools
import warnings

import numpy as np

from hubbard_phonon.boson_fock import (
    apply_displacement,
    coherent_tail,
    displacement_1mode,
    mode_kron,
)
from hubbard_phonon.errors import ValidationError
from hubbard_phonon.lattice_fermions import hopping_moves

# Coherent tail mass a truncation may cut; above it, warn.
TAIL_BOUND = 1e-8


class TruncationWarning(UserWarning):
    """A truncated-space operation lost more weight than the stated bound."""


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


def transformed_levels(ha, k):
    """Lowest k transformed levels: every level of :func:`dense_transformed`
    plus every free-mode occupation of at most k - 1 quanta per mode."""
    active = np.linalg.eigvalsh(dense_transformed(ha))
    occupations = itertools.product(range(k), repeat=ha.free_freqs.size)
    ladder = [np.dot(n, ha.free_freqs) for n in occupations]
    return np.sort(np.add.outer(active, ladder).ravel())[:k]
