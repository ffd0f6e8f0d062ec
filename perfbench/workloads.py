"""The benchmark's workloads, the layer predictions and the exact counts.

Each workload is a config plus the CLI subcommands it runs, in order.  The
config is made from the workload seed; the same seed gives the same file.
"""

from __future__ import annotations

import numpy as np
import yaml

WORKLOADS = {
    # The case the paper's battery certifies.  Most of its time is ARPACK
    # on the direct CSR and on the transformed operator, so an eigensolver
    # or transformed_matvec change shows here.
    "reference": ("spectrum", "verify", "ir"),
    # The same physics at n_max 16 (dimension 501,126), the README's setting
    # for the annihilation check.  Above 200k dimensions verify runs no
    # coupled eigensolve; complex apply_unitary calls dominate and memory is
    # highest, so a displacement change shows here and an ARPACK change
    # must not.
    "annihilation16": ("verify",),
    # 6-site rank-one hopping, n_e 5, sector dimension 792, seeded
    # amplitudes.  Only the electronic layers run (dense eigh dominates);
    # no coupled space is built.
    "ferro6": ("sweep",),
}

# How often one pass repeats ``ir`` (about 10 ms a call); the pass reports
# the median.
IR_REPEATS = 15

# Layer metrics and the end-to-end time each should move, with the
# workloads on which it moves it.  On those workloads the traced run fails
# if the metric reads 0; elsewhere the prediction is no change.
PREDICTIONS = [
    (
        ["lang_firsov.apply_unitary.complex_s", "boson_fock.displacement_1mode.calls"],
        "verify_s",
        ("reference", "annihilation16"),
    ),
    (
        [
            "lang_firsov.transformed_matvec.s",
            "eigensolver.eigsh.matvecs",
            "eigensolver.eigsh.self_s",
        ],
        "spectrum_s and verify_s",
        ("reference",),
    ),
    (
        [
            "eigensolver.eigh.s",
            "eigensolver.ground_space.calls",
            "eigensolver.ground_space.eigensolve_calls",
        ],
        "sweep_s",
        ("ferro6",),
    ),
    (
        ["lang_firsov.h_direct.s", "lang_firsov.h_direct.nnz"],
        "spectrum_s, verify_s and peak_rss_mb",
        ("reference",),
    ),
    (
        [
            "ir_modes.discretize.calls",
            "ir_modes.discretize.s",
            "ir_modes.norm_omega_power.calls",
            "ir_modes.norm_omega_power.s",
            "ir_modes.overlap_decay_curve.s",
            "ir_modes.limit_state.s",
            "ir_modes.weyl_state.s",
        ],
        "ir_s",
        ("reference",),
    ),
    (
        [
            "lattice_fermions.build_sector_basis.s",
            "lattice_fermions.build_sector_basis.dim",
            "lattice_fermions.build_hubbard.calls",
            "lattice_fermions.build_hubbard.s",
            "lattice_fermions.build_spin_operators.s",
        ],
        "sweep_s",
        ("ferro6",),
    ),
]

# Counts that must repeat exactly between two traced passes of one workload.
EXACT_COUNTS = [
    "boson_fock.displacement_1mode.calls",
    "boson_fock.displacement_1mode.distinct",
    "eigensolver.eigsh.matvecs",
    "lang_firsov.apply_unitary.real_calls",
    "lang_firsov.apply_unitary.complex_calls",
    "magnetism.sweep_alpha.points",
]


def predicted_nonzero(workload):
    return [
        name
        for names, _, workloads in PREDICTIONS
        if workload in workloads
        for name in names
    ]


def ferro6_amplitudes(seed):
    """Six rank-one amplitudes: magnitudes in [0.5, 1.5], random signs."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, 6) * rng.choice([-1.0, 1.0], 6)


def write_config(root, workload, seed, dest):
    """Write the workload's config to ``dest`` and return its path."""
    ref_path = root / "configs" / "reference.yaml"
    if workload == "reference":
        return ref_path
    cfg = yaml.safe_load(ref_path.read_text())
    if workload == "annihilation16":
        cfg["modes"]["n_max"] = 16
    else:
        cfg["lattice"] = {
            "n_sites": 6,
            "hopping": {
                "kind": "rank_one",
                "amplitudes": [float(a) for a in ferro6_amplitudes(seed)],
            },
        }
        cfg["electrons"] = {"n_e": 5}
    path = dest / f"{workload}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path
