"""Per-layer timing and counting, installed from outside the package.

Every public function the CLI reaches in a layer is replaced by a wrapper
that adds its wall time and call count to a :class:`Tracer`.  The package's
modules import each other with ``from .x import y``, so one function object
is bound under several module names; :func:`install` replaces it under every
name it finds in every ``hubbard_phonon`` module and then checks that no
module still holds the unwrapped object.

The dense and iterative eigensolver paths are observed where ``eigensolve``
calls them (``np.linalg.eigh`` and ``spla.eigsh`` as looked up in the
``eigensolver`` module), so the choice between them is the program's own
and the traced path is the untraced one.  ARPACK matvecs are counted by
handing ``eigsh`` a counting operator that calls the operator ``eigsh``
would have built itself.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla


class Tracer:
    """Cumulative per-layer statistics of one traced pass."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.keys = defaultdict(set)
        self.stack = []

    def add(self, name, value=1.0):
        self.stats[name] += value

    def peak(self, name, value):
        self.stats[name] = max(self.stats[name], float(value))

    def metrics(self):
        out = dict(self.stats)
        for name, keys in self.keys.items():
            out[name] = float(len(keys))
        out["eigensolver.eigsh.self_s"] = out.get("eigensolver.eigsh.s", 0.0) - out.get(
            "eigensolver.eigsh.matvec_s", 0.0
        )
        return out


def _wrap(tracer, prefix, fn, split=None, after=None):
    """Time and count ``fn`` under ``prefix``.

    ``split(args, kwargs)`` names a sub-stat (``real`` gives ``real_calls``
    and ``real_s``); ``after(tracer, args, kwargs, result)`` records extra
    statistics from the call.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tag = f"{split(args, kwargs)}_" if split else ""
        tracer.add(f"{prefix}.{tag}calls")
        tracer.stack.append(prefix)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.add(f"{prefix}.{tag}s", time.perf_counter() - t0)
            tracer.stack.pop()
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    return wrapper


class _ModuleProxy(types.ModuleType):
    """A module whose listed attributes are replaced; the rest delegate."""

    def __init__(self, real, **overrides):
        super().__init__(real.__name__)
        self.__dict__.update(overrides)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


def _dense_eigh(tracer, real_eigh):
    def eigh(a, *args, **kwargs):
        tracer.peak("eigensolver.eigh.max_dim", a.shape[0])
        return real_eigh(a, *args, **kwargs)

    return _wrap(tracer, "eigensolver.eigh", eigh)


def _counting_eigsh(tracer, real_eigsh):
    def eigsh(a, *args, **kwargs):
        inner = spla.aslinearoperator(a)

        def matvec(x):
            t0 = time.perf_counter()
            y = inner.matvec(x)
            tracer.add("eigensolver.eigsh.matvec_s", time.perf_counter() - t0)
            tracer.add("eigensolver.eigsh.matvecs")
            return y

        counted = spla.LinearOperator(a.shape, matvec=matvec, dtype=a.dtype)
        return real_eigsh(counted, *args, **kwargs)

    return _wrap(tracer, "eigensolver.eigsh", eigsh)


# -- statistics recorded after a call -----------------------------------------


def _csv_bytes(tracer, args, kwargs, out):
    tracer.add("cli.write_csv.bytes", Path(args[0]).stat().st_size)


def _basis_dim(tracer, args, kwargs, out):
    tracer.peak("lattice_fermions.build_sector_basis.dim", out.dim)


def _sweep_points(tracer, args, kwargs, out):
    tracer.add("magnetism.sweep_alpha.points", len(out))
    tracer.add(
        "magnetism.sweep_alpha.errors",
        sum(r.classification == "Error" for r in out),
    )


def _displacement_key(tracer, args, kwargs, out):
    z, n_max = args
    tracer.keys["boson_fock.displacement_1mode.distinct"].add((complex(z), int(n_max)))


def _direct_nnz(tracer, args, kwargs, out):
    tracer.peak("lang_firsov.h_direct.nnz", out.nnz)


def _ground_space_solve(tracer, args, kwargs, out):
    # still on the stack when eigensolve was called from inside ground_space
    if "eigensolver.ground_space" in tracer.stack:
        tracer.add("eigensolver.ground_space.eigensolve_calls")


def _vector_kind(args, kwargs):
    return "complex" if np.iscomplexobj(args[1]) else "real"


# (module, attribute, metric prefix, split, after); a dotted attribute is a
# method on a class of that module.
LAYERS = [
    ("cli", "load_config", "cli.load_config", None, None),
    ("cli", "write_csv", "cli.write_csv", None, _csv_bytes),
    ("lattice_fermions", "build_sector_basis", "lattice_fermions.build_sector_basis", None, _basis_dim),
    ("lattice_fermions", "build_hubbard", "lattice_fermions.build_hubbard", None, None),
    ("lattice_fermions", "build_spin_operators", "lattice_fermions.build_spin_operators", None, None),
    ("eigensolver", "eigensolve", "eigensolver.eigensolve", None, _ground_space_solve),
    ("eigensolver", "ground_space", "eigensolver.ground_space", None, None),
    ("magnetism", "sweep_alpha", "magnetism.sweep_alpha", None, _sweep_points),
    ("boson_fock", "displacement_1mode", "boson_fock.displacement_1mode", None, _displacement_key),
    ("boson_fock", "field", "boson_fock.field", None, None),
    ("boson_fock", "relative_bound_check", "boson_fock.relative_bound_check", None, None),
    ("lang_firsov", "CoupledModel.from_family", "lang_firsov.from_family", None, None),
    ("lang_firsov", "CoupledModel.h_direct", "lang_firsov.h_direct", None, _direct_nnz),
    ("lang_firsov", "CoupledModel.apply_unitary", "lang_firsov.apply_unitary", _vector_kind, None),
    ("lang_firsov", "effective_hamiltonians", "lang_firsov.effective_hamiltonians", None, None),
    ("lang_firsov", "EffectiveHamiltonians.transformed_matvec", "lang_firsov.transformed_matvec", None, None),
    ("lang_firsov", "EffectiveHamiltonians.direct_lowest", "lang_firsov.direct_lowest", None, None),
    ("lang_firsov", "EffectiveHamiltonians.transformed_lowest", "lang_firsov.transformed_lowest", None, None),
    ("lang_firsov", "verify_transform_hb", "lang_firsov.verify_transform_hb", None, None),
    ("lang_firsov", "verify_transform_nb", "lang_firsov.verify_transform_nb", None, None),
    ("lang_firsov", "heisenberg_evolution_check", "lang_firsov.heisenberg_evolution_check", None, None),
    ("lang_firsov", "dressed_ground", "lang_firsov.dressed_ground", None, None),
    ("lang_firsov", "annihilation_residual", "lang_firsov.annihilation_residual", None, None),
    ("lang_firsov", "overlap_formula", "lang_firsov.overlap_formula", None, None),
    ("ir_modes", "discretize", "ir_modes.discretize", None, None),
    ("ir_modes", "norm_omega_power", "ir_modes.norm_omega_power", None, None),
    ("ir_modes", "overlap_decay_curve", "ir_modes.overlap_decay_curve", None, None),
    ("ir_modes", "limit_state", "ir_modes.limit_state", None, None),
    ("ir_modes", "weyl_state", "ir_modes.weyl_state", None, None),
]


def _package_modules():
    return [
        m
        for name, m in sys.modules.items()
        if (name == "hubbard_phonon" or name.startswith("hubbard_phonon.")) and m
    ]


def install(tracer):
    """Wrap every layer in :data:`LAYERS` for ``tracer``, for the process's life."""
    modules = _package_modules()
    for mod_name, attr, prefix, split, after in LAYERS:
        home = sys.modules[f"hubbard_phonon.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, prefix, raw.__func__, split, after))
            else:
                wrapped = _wrap(tracer, prefix, raw, split, after)
            setattr(cls, meth, wrapped)
            continue
        original = getattr(home, attr)
        wrapped = _wrap(tracer, prefix, original, split, after)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
        stale = [m.__name__ for m in modules if any(v is original for v in vars(m).values())]
        if stale:
            raise RuntimeError(f"{prefix}: unwrapped binding left in {stale}")

    eig = sys.modules["hubbard_phonon.eigensolver"]
    linalg = _ModuleProxy(np.linalg, eigh=_dense_eigh(tracer, np.linalg.eigh))
    eig.np = _ModuleProxy(np, linalg=linalg)
    eig.spla = _ModuleProxy(spla, eigsh=_counting_eigsh(tracer, spla.eigsh))
