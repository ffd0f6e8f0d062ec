"""Output checks: the CSVs a pass wrote, judged by the config's tolerances.

Values are compared with those recorded from the package at the commit
that introduced the benchmark (``expected.json``), never byte for byte:
runs at different BLAS thread counts differ in the last digits.  Values
that depend on the verify seed are held to their thresholds instead, and
the ``ferro6`` sweep, whose hopping comes from the seed, is held to closed
forms.  Three physics gates apply on top: every verify row passes, the
direct and transformed levels agree within ``equivalence``, and the ferro6
sweep has exactly one flip bracket, containing sqrt(u) / b(kappa).

Each check returns ``(attempted, failed, notes)``.  An operation is one
spectrum level, verify row, ir row or sweep grid point (the ferro6 flip
bracket counts as one more); a nonzero exit fails all of a subcommand's
operations.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

EXPECTED = Path(__file__).with_name("expected.json")

# verify rows whose measured value does not depend on --seed
DETERMINISTIC = ("car_two_site", "number_expectation_routes", "spectral_equivalence")

# the tolerance each verify row must be held to
VERIFY_TOLERANCE = {
    "transform_energy": "transform",
    "transform_number": "transform",
    "number_quadratic_coefficient": "coefficient",
    "dressed_annihilation": "annihilation",
    "heisenberg_covariance": "heisenberg",
    "overlap_closed_form": "overlap",
    "number_expectation_routes": "overlap",
    "spectral_equivalence": "equivalence",
    "field_relative_bound": "bound_margin",
}


def read_csv(path):
    """``(meta, rows)`` of a CSV the CLI wrote; rows are dicts of strings."""
    meta, lines = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = val
        else:
            lines.append(line.split(","))
    header, body = lines[0], lines[1:]
    return meta, [dict(zip(header, row)) for row in body]


def load_expected(workload):
    return json.loads(EXPECTED.read_text()).get(workload, {})


def _close(a, b, tol):
    return abs(float(a) - float(b)) <= tol


def check_spectrum(path, cfg, expected):
    tol = cfg["tolerances"]["equivalence"]
    meta, rows = read_csv(path)
    want_meta, want_rows = expected["meta"], expected["rows"]
    notes = []
    for key, want in want_meta.items():
        got = meta.get(key)
        numeric = key in ("b_kappa", "u_eff", "electronic_e0")
        if got is None or (not _close(got, want, tol) if numeric else got != want):
            notes.append(f"spectrum meta {key}: {got} != {want}")
    failed = 0
    for i, want in enumerate(want_rows):
        ok = not notes and i < len(rows)
        if ok:
            got = rows[i]
            ok = (
                int(got["level"]) == i
                and _close(got["energy_direct"], got["energy_transformed"], tol)
                and all(_close(got[k], want[k], tol) for k in want if k != "level")
            )
        if not ok:
            failed += 1
            notes.append(f"spectrum level {i} off")
    return len(want_rows), failed, notes


def check_verify(path, cfg, expected):
    tols = cfg["tolerances"]
    _, rows = read_csv(path)
    got = {r["check"]: r for r in rows}
    notes = []
    for name in expected["checks"]:
        row = got.get(name)
        if row is None:
            notes.append(f"verify {name}: missing")
            continue
        measured, threshold = float(row["measured"]), float(row["threshold"])
        want_threshold = tols[VERIFY_TOLERANCE[name]] if name in VERIFY_TOLERANCE else 1e-14
        if row["status"] != "pass" or not measured <= threshold:
            notes.append(f"verify {name}: {measured:.3e} > {threshold:.1e}")
        elif threshold != want_threshold:
            notes.append(f"verify {name}: threshold {threshold} != {want_threshold}")
        elif name in expected["deterministic"] and not _close(
            measured, expected["deterministic"][name], threshold
        ):
            notes.append(
                f"verify {name}: {measured:.6e} moved from "
                f"{expected['deterministic'][name]:.6e}"
            )
    extra = sorted(set(got) - set(expected["checks"]))
    if extra:
        notes.append(f"verify: unexpected rows {extra}")
    n = len(expected["checks"])
    return n, min(len(notes), n), notes


def check_ir(path, cfg, expected):
    tol = cfg["tolerances"]["overlap"]
    meta, rows = read_csv(path)
    want_meta, want_rows = expected["meta"], expected["rows"]
    notes = []
    if meta.get("singularity_class") != want_meta["singularity_class"]:
        notes.append("ir singularity_class changed")
    if not _close(meta["fitted_rate"], want_meta["fitted_rate"], cfg["tolerances"]["coefficient"]):
        notes.append(f"ir fitted_rate {meta['fitted_rate']}")
    if abs(complex(meta["limit_value"]) - complex(want_meta["limit_value"])) > tol:
        notes.append(f"ir limit_value {meta['limit_value']}")
    failed = 0
    for i, want in enumerate(want_rows):
        ok = not notes and i < len(rows)
        if ok:
            got = rows[i]
            ok = float(got["kappa"]) == float(want["kappa"]) and all(
                _close(got[k], want[k], tol * max(1.0, abs(float(want[k]))))
                for k in want
                if k != "kappa"
            )
        if not ok:
            failed += 1
            notes.append(f"ir row {i} off")
    return len(want_rows), failed, notes


def check_sweep(path, cfg, expected=None):
    """Closed forms for the rank-one sweep at one electron below half filling.

    For u_eff > 0 the ground space is the saturated ferromagnet at energy
    0 before the chemical shift; below it some other state lies lower.
    """
    tol = cfg["tolerances"]["equivalence"]
    modes, grid = cfg["modes"], cfg["coupling"]["alpha_grid"]
    n_e, u = cfg["electrons"]["n_e"], float(cfg["interaction"]["u"])
    two_beta = 2.0 * modes["beta"]
    b = np.sqrt((modes["big_k"] ** two_beta - modes["kappa"] ** two_beta) / two_beta)
    s_max = n_e / 2.0
    n_points = int(round((grid["stop"] - grid["start"]) / grid["step"])) + 1
    meta, rows = read_csv(path)
    notes = []
    for i in range(n_points):
        alpha = grid["start"] + i * grid["step"]
        g2 = (alpha * b) ** 2
        shifted = -0.5 * g2 * n_e
        ok = i < len(rows)
        if ok:
            r = rows[i]
            e0, u_eff = float(r["e0"]), float(r["u_eff"])
            ok = _close(r["alpha"], alpha, 1e-9) and _close(u_eff, u - g2, tol)
            if ok and u_eff > 0:
                ok = (
                    r["classification"] == "Ferromagnetic"
                    and int(r["degeneracy"]) == int(2 * s_max + 1)
                    and float(r["s_tot"]) == s_max
                    and _close(e0, shifted, tol)
                )
            elif ok:
                ok = r["classification"] not in ("Ferromagnetic", "Error") and e0 <= shifted + tol
        if not ok:
            notes.append(f"sweep point {i} (alpha {alpha:.4g}) off")
    brackets = [b_ for b_ in meta.get("flip_brackets", "").split(";") if b_]
    alpha_c = np.sqrt(u) / b
    lo_hi = [tuple(float(x) for x in b_.strip("[]").split(",")) for b_ in brackets]
    if len(lo_hi) != 1 or not lo_hi[0][0] < alpha_c < lo_hi[0][1]:
        notes.append(f"sweep flip brackets {brackets} miss alpha_c = {alpha_c:.6g}")
    return n_points + 1, len(notes), notes


CHECKS = {
    "spectrum": check_spectrum,
    "verify": check_verify,
    "ir": check_ir,
    "sweep": check_sweep,
}


def expected_ops(sub, cfg, expected):
    if sub == "sweep":
        grid = cfg["coupling"]["alpha_grid"]
        return int(round((grid["stop"] - grid["start"]) / grid["step"])) + 2
    return len(expected["checks"] if sub == "verify" else expected["rows"])
