"""Test oracles for Weyl operators on a truncated Fock space.

``apply_weyl`` applies W(f) mode by mode through the package's
``apply_displacement`` and warns when the displaced vacuum loses more tail
mass than ``TAIL_BOUND`` to the truncation.
"""

import warnings

import numpy as np

from hubbard_phonon.boson_fock import apply_displacement, coherent_tail
from hubbard_phonon.errors import ValidationError

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
