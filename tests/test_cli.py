"""Command-line entry points: config validation, CSV layout, exit codes."""

import contextlib
import csv
import ctypes
import importlib
import io
import math
import os
import pkgutil
import subprocess
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import hubbard_phonon
from hubbard_phonon import cli, eigensolver, ir_modes, magnetism
from hubbard_phonon.boson_fock import TruncatedFock
from hubbard_phonon.cli import main, validate_config, load_config
from hubbard_phonon.errors import AmbiguousDegeneracyError, ValidationError
from hubbard_phonon.lang_firsov import dressed_ground, effective_hamiltonians, nb_expectation

from fock_oracles import direct_levels, quad_log_rule, transformed_levels

FAST_VERIFY = """
modes:
  n_max: 8
tolerances:
  transform: 5.0e-3
  annihilation: 1.0e-3
  heisenberg: 1.0e-1
"""

TASAKI = """
lattice:
  n_sites: 3
  hopping:
    kind: rank_one
    t0: 1.0
    amplitudes: [1.0, 1.0, 1.0]
electrons:
  n_e: 2
coupling:
  alpha_grid: {start: 1.0, stop: 1.1, step: 0.02}
"""


def _read_csv(path):
    meta, rows = {}, []
    body = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
        else:
            body.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return meta, rows


def test_validate_config_collects_messages():
    cfg = load_config(None)
    cfg["electrons"]["n_e"] = 99
    cfg["modes"]["kappa"] = 0.0
    cfg["modes"]["per_site"] = 1
    msgs = validate_config(cfg)
    assert len(msgs) == 3
    assert any("n_e" in m for m in msgs)
    assert any("kappa" in m for m in msgs)
    assert any("per_site" in m for m in msgs)


@pytest.mark.parametrize("t0", [0, 0.0, -0.0])
def test_validation_refuses_a_zero_hopping_scale(t0):
    """t0 0 would validate and then fail while the hopping is built."""
    cfg = load_config(None)
    cfg["lattice"]["hopping"] = {"kind": "rank_one", "t0": t0, "amplitudes": [1.0, 1.0]}
    assert validate_config(cfg) == ["lattice.hopping.t0 must be a nonzero number"]


def test_defaults_match_reference_config():
    ref = Path(__file__).resolve().parents[1] / "configs" / "reference.yaml"
    assert load_config(None) == load_config(ref)


def test_list_alpha_grid_runs_sweep(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        TASAKI.replace(
            "alpha_grid: {start: 1.0, stop: 1.1, step: 0.02}",
            "alpha_grid: [0.2, 0.5, 1.0, 1.5]",
        )
    )
    out = tmp_path / "runs"
    rc = main(["--config", str(cfg), "--out", str(out), "sweep"])
    assert rc == 0
    _, rows = _read_csv(out / "sweep.csv")
    assert [float(r["alpha"]) for r in rows] == [0.2, 0.5, 1.0, 1.5]


@pytest.mark.parametrize("grid", ["[]", "[0.2, fast]", "[true]", "fast", "0.5", "null"])
def test_malformed_alpha_grid_exits_2(tmp_path, capsys, grid):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"coupling:\n  alpha_grid: {grid}\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "sweep"])
    assert rc == 2
    assert "config error: coupling.alpha_grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, key",
    [
        ("solver:\n  levels: abc\n", "solver.levels"),
        ("solver:\n  levels: 2.5\n", "solver.levels"),
        (
            "lattice:\n  n_sites: 2\n  hopping:\n    kind: matrix\n"
            "    matrix: [[0, -1], [-1]]\n",
            "lattice.hopping.matrix",
        ),
    ],
    ids=["levels-string", "levels-fraction", "ragged-matrix"],
)
def test_bad_levels_and_ragged_matrix_exit_2(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "spectrum"])
    assert rc == 2
    assert f"config error: {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "hopping, key",
    [
        ("kind: chain\n    t: abc\n", "lattice.hopping.t "),
        (
            "kind: rank_one\n    amplitudes: [x, 1.0]\n",
            "lattice.hopping.amplitudes",
        ),
        (
            "kind: rank_one\n    t0: abc\n    amplitudes: [1.0, 1.0]\n",
            "lattice.hopping.t0",
        ),
        (
            "kind: rank_one\n    t0: 0\n    amplitudes: [1.0, 1.0]\n",
            "lattice.hopping.t0 must be a nonzero number",
        ),
    ],
    ids=["chain-t", "rank-one-amplitude", "rank-one-t0", "rank-one-t0-zero"],
)
def test_non_numeric_hopping_scalars_exit_2(tmp_path, capsys, hopping, key):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"lattice:\n  n_sites: 2\n  hopping:\n    {hopping}")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "sweep"])
    assert rc == 2
    assert f"config error: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("kappas", ["[]", "[0.1]", "[0.1, 0.1]", "[0.1, 0.01, 0.01]"])
def test_kappas_need_two_distinct_cutoffs(tmp_path, capsys, kappas):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"modes:\n  kappas: {kappas}\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "ir"])
    assert rc == 2
    assert "config error: modes.kappas" in capsys.readouterr().err


# 3 sites, 2 electrons, n_max 1: 15 x 64 = 960 coupled states, 9 x 64 = 576
# with S_z = 0, and spin spaces of 6 x 64 = 384 (S = 0) and 3 x 64 = 192
SMALL_VERIFY = "lattice: {n_sites: 3}\nelectrons: {n_e: 2}\nmodes: {n_max: 1}\n"


@pytest.mark.parametrize("cap, runs", [(400, True), (300, False)])
def test_equivalence_gate_reads_the_sector_dimension(
    tmp_path, capsys, monkeypatch, cap, runs
):
    monkeypatch.setattr(cli, "EQUIVALENCE_DIM_CAP", cap)
    cfg = tmp_path / "small.yaml"
    cfg.write_text(SMALL_VERIFY)
    out = tmp_path / "o"
    main(["--config", str(cfg), "--out", str(out), "verify"])
    _, rows = _read_csv(out / "verify.csv")
    names = [r["check"] for r in rows]
    assert ("spectral_equivalence" in names) == runs
    assert len(names) == 9 + runs  # a skip adds no row
    skips = [l for l in capsys.readouterr().out.splitlines() if "SKIP" in l]
    if runs:
        assert skips == []
    else:
        assert skips == [
            "SKIP spectral_equivalence: largest spin space times the box of all "
            f"modes holds 384 states, above the cap {cap}"
        ]


# 3-site chain, n_e 3, n_max 6: 20 x 7^6 = 2,352,980 states on the box of
# all six modes, above the coupled cap; the routes solve (8 and 1 spin
# states) x 7^4 on the four active modes
CHAIN3 = "lattice: {n_sites: 3}\nelectrons: {n_e: 3}\nmodes: {n_max: 6}\n"


@pytest.mark.parametrize(
    "text, command, message",
    [
        (
            "coupling:\n  alpha_grid: {start: 0.2, stop: 1.0e+300,"
            " step: 1.0e-300}",
            "sweep",
            "coupling.alpha_grid must have at most",
        ),
        ("coupling:\n  alpha: 1.0e+200\n", "ir", "a value overflowed"),
        ("modes:\n  beta: 3.0\n  big_k: 1.0e+300\n", "ir", "a value overflowed"),
        ("modes:\n  beta: 3.0\n  big_k: 1.0e+300\n", "sweep", "a value overflowed"),
        # one site has no hop and so no free mode: its 2 x 2 box holds 4
        # levels, and spectrum asks for 5
        (
            "lattice: {n_sites: 1}\nelectrons: {n_e: 2}\nmodes: {n_max: 1}\n",
            "spectrum",
            "solver.levels = 5 exceeds the 4 levels",
        ),
        # 1000 levels lie far below the 2,352,980 states of the box of all
        # modes, but would ask 501 levels of the 19,208-state S = 1/2 space
        (CHAIN3 + "solver: {levels: 1000}\n", "spectrum", "1000 levels need 9623208 numbers"),
        # verify checks the whole sector on the active box: 20 x 18^4 states
        # at n_max 17, though each spin space times that box is under the cap
        (
            "lattice: {n_sites: 3}\nelectrons: {n_e: 3}\nmodes: {n_max: 17}\n",
            "verify",
            "coupled dimension 2099520 exceeds cap",
        ),
        # the S = 1/2 space of 8,820 states times 2^16 active states is
        # refused before a 48,620 x 48,620 hop table is allocated
        (
            "lattice: {n_sites: 9}\nelectrons: {n_e: 9}\nmodes: {n_max: 1}\n",
            "spectrum",
            "coupled dimension 578027520 exceeds cap",
        ),
    ],
    ids=[
        "grid-size", "alpha-overflow", "big-k-ir", "big-k-sweep", "levels", "levels-solved",
        "coupled-cap", "nine-sites",
    ],
)
def test_accepted_config_that_cannot_run_exits_2(
    tmp_path, capsys, text, command, message
):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: " in err and message in err
    assert "Traceback" not in err


def test_spectrum_levels_beyond_the_box_of_all_modes_are_exact(tmp_path):
    """With free modes the routes return exact levels past the box of all
    modes: at n_max 1 that box holds 6 x 16 = 96 states, and 120 levels
    still match the brute-force levels of the active box plus the free
    ladder."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes: {n_max: 1}\nsolver: {levels: 120}\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
    _, rows = _read_csv(out / "spectrum.csv")
    assert len(rows) == 120
    ha = effective_hamiltonians(cli.build_model(load_config(cfg)), 1)
    routes = {"energy_direct": direct_levels, "energy_transformed": transformed_levels}
    for route, oracle in routes.items():
        levels = np.array([float(r[route]) for r in rows])
        assert np.max(np.abs(levels - oracle(ha, 120))) <= 1e-12


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    def ambiguous(*args, **kwargs):
        raise AmbiguousDegeneracyError("gap inside the grey zone")

    monkeypatch.setattr(cli, "spin_ground_space", ambiguous)
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes:\n  n_max: 2\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "spectrum"])
    assert rc == 3
    assert "verification error: gap inside the grey zone" in capsys.readouterr().err


def test_stalled_lanczos_exits_3(tmp_path, capsys, monkeypatch):
    """A Lanczos solve that never converges ends in exit 3 and a
    ``verification error:`` line, not in a traceback."""
    calls = []

    def eigsh(*args, **kwargs):
        calls.append(kwargs["maxiter"])
        raise spla.ArpackNoConvergence("stalled", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(eigensolver.spla, "eigsh", eigsh)
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes:\n  n_max: 2\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "spectrum"])
    err = capsys.readouterr().err
    assert calls and calls[-1] is None
    assert rc == 3
    assert "verification error: Lanczos converged only 0/" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("strict, code", [(False, 0), (True, 3)])
def test_sweep_point_failure_is_reported(tmp_path, capsys, monkeypatch, strict, code):
    calls = []

    def second_fails(h, **kwargs):
        calls.append(h)
        if len(calls) == 2:
            raise AmbiguousDegeneracyError("gap inside the grey zone")
        return real(h, **kwargs)

    real = magnetism.ground_space
    monkeypatch.setattr(magnetism, "ground_space", second_fails)
    cfg = tmp_path / "c.yaml"
    cfg.write_text("coupling:\n  alpha_grid: [0.2, 0.4, 0.6]\n")
    out = tmp_path / "o"
    flags = ["--strict"] * strict
    rc = main(["--config", str(cfg), "--out", str(out), *flags, "sweep"])
    assert rc == code
    captured = capsys.readouterr()
    assert "alpha = 0.4: AmbiguousDegeneracyError: gap inside the grey zone" in captured.err
    meta, rows = _read_csv(out / "sweep.csv")
    labels = [r["classification"] for r in rows]
    assert labels[1] == "Error" and labels[0] == labels[2]
    # the failed point is no flip: its classified neighbours agree
    assert "flips at []" in captured.out
    assert meta["flip_brackets"] == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--threads", "2", "sweep"], "invalid choice: '2'"),
        (["--threads=2", "sweep"], "unrecognized arguments: --threads=2"),
    ],
)
def test_threads_flag_is_refused(tmp_path, capsys, argv, message):
    """sweep solves its grid serially; a --threads flag is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path)] + argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(hubbard_phonon.__path__))
)
def test_every_exported_name_resolves(module):
    """``from hubbard_phonon.<module> import *`` binds every name of the
    module's ``__all__``; a stale export raises AttributeError."""
    namespace = {}
    exec(f"from hubbard_phonon.{module} import *", namespace)
    exported = getattr(importlib.import_module(f"hubbard_phonon.{module}"), "__all__", [])
    assert set(exported) <= set(namespace)


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("electrons:\n  n_e: 99\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "spectrum"])
    assert rc == 2
    assert "n_e" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("- just\n- a list\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "spectrum"])
    assert rc == 2


def test_spectrum_csv(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes:\n  n_max: 6\nsolver:\n  levels: 4\n")
    out = tmp_path / "runs"
    rc = main(["--config", str(cfg), "--out", str(out), "spectrum"])
    assert rc == 0
    meta, rows = _read_csv(out / "spectrum.csv")
    assert "config_sha256" in meta
    assert len(rows) == 4
    cols = set(rows[0])
    assert {"level", "energy_direct", "energy_transformed", "energy_product"} <= cols
    # the two unitarily equivalent routes agree far better than the product
    d0 = abs(float(rows[0]["energy_direct"]) - float(rows[0]["energy_transformed"]))
    assert d0 < 1e-4


@pytest.mark.parametrize("n_max, warns", [(2, True), (6, False)])
def test_spectrum_warns_when_its_routes_disagree(tmp_path, capsys, n_max, warns):
    """At n_max 2 the two routes' truncations part by ~5e-3, at n_max 6 by
    less than the equivalence tolerance 1e-6: one WARN line says so in the
    first case only, and the CSV and the exit code are written as ever."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"modes:\n  n_max: {n_max}\nsolver:\n  levels: 3\n")
    out = tmp_path / "runs"
    assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("WARN")]
    _, rows = _read_csv(out / "spectrum.csv")
    gap = max(abs(float(r["energy_direct"]) - float(r["energy_transformed"])) for r in rows)
    assert (gap > 1e-6) == warns
    want = f"WARN spectrum: direct and transformed levels differ by {gap:.3e} > 1.0e-06"
    assert lines == ([want] if warns else [])


def test_three_site_spectrum_solves_on_the_active_box(tmp_path, capsys):
    """Neither spectrum nor verify builds the box of all modes, so the size
    caps bound only the spaces they solve and check on.  verify passes
    every row it writes on configs/chain3.yaml (n_max 12, whose box of all
    modes holds 96.5 million states) and skips spectral_equivalence."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(CHAIN3)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
    assert "WARN" not in capsys.readouterr().out
    _, rows = _read_csv(out / "spectrum.csv")
    assert len(rows) == 5
    gap = max(abs(float(r["energy_direct"]) - float(r["energy_transformed"])) for r in rows)
    assert gap <= 1e-6
    chain3 = Path(__file__).resolve().parents[1] / "configs" / "chain3.yaml"
    assert main(["--config", str(chain3), "--out", str(out), "verify"]) == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text and "SKIP spectral_equivalence" in text
    _, rows = _read_csv(out / "verify.csv")
    assert len(rows) == 9 and {r["status"] for r in rows} == {"pass"}


def test_no_command_fills_the_box_of_all_modes(tmp_path, monkeypatch):
    """spectrum, verify and ir on the reference config build no box (and so
    no CoupledModel) of all four modes at modes.n_max 12: the coupled
    routes and checks run on the polaron frame's active and free boxes of
    two modes each.  So verify runs at n_max 40 too, where the box of all
    modes would hold 6 x 41^4 = 16,954,566 coupled states."""
    boxes = []
    init = TruncatedFock.__init__

    def spy(self, modes, n_max):
        boxes.append((modes.m, n_max))
        init(self, modes, n_max)

    monkeypatch.setattr(TruncatedFock, "__init__", spy)
    for command in ("spectrum", "verify", "ir"):
        assert main(["--out", str(tmp_path / "o"), command]) == 0
    assert (2, 12) in boxes and (4, 12) not in boxes
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes: {n_max: 40}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o40"), "verify"]) == 0
    assert (4, 40) not in boxes


def test_sweep_csv_and_flip(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(TASAKI)
    out = tmp_path / "runs"
    rc = main(["--config", str(cfg), "--out", str(out), "sweep"])
    assert rc == 0
    meta, rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 6
    labels = [r["classification"] for r in rows]
    assert labels[0] == "Ferromagnetic" and labels[-1] == "UniqueSinglet"
    assert meta["flip_brackets"].strip()
    flip_at = [i for i in range(1, 6) if labels[i] != labels[i - 1]]
    assert len(flip_at) == 1
    i = flip_at[0]
    crit = 1.0540925533894598
    assert float(rows[i - 1]["alpha"]) < crit < float(rows[i]["alpha"])


def _seeded_amplitudes(seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, 6) * rng.choice([-1.0, 1.0], 6)


@pytest.mark.parametrize(
    "amps",
    [_seeded_amplitudes(1), [1.0, -0.8, 1.2, 0.9, -1.1, 0.7]],
    ids=["seed-1", "fixed"],
)
def test_ferro6_sweep_reruns_are_byte_identical(tmp_path, amps):
    """The benchmark's seed-1 ferro6 sweep (spin spaces of 210, 84 and 6
    states, solved for a few levels each) writes the same bytes twice, and
    so does a fixed 6-site rank-one lattice; neither writes an Error row,
    which --strict would turn into exit 3."""
    cfg = tmp_path / "ferro6.yaml"
    cfg.write_text(yaml.safe_dump({
        "lattice": {
            "n_sites": 6,
            "hopping": {"kind": "rank_one", "amplitudes": [float(a) for a in amps]},
        },
        "electrons": {"n_e": 5},
    }))
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["--config", str(cfg), "--out", str(out), "--strict", "sweep"]) == 0
    first, second = ((out / "sweep.csv").read_bytes() for out in runs)
    assert first == second
    _, rows = _read_csv(runs[0] / "sweep.csv")
    assert {r["classification"] for r in rows} == {"Ferromagnetic", "Other"}


def test_ferro6_sweep_screens_the_empty_spins(tmp_path, monkeypatch):
    """The seed-1 ferro6 sweep solves each point's lead spin and screens the
    others with a Cholesky factorization: at most 110 eigensolves over its
    91 points and three spin spaces, where solving every space took 273."""
    amps = _seeded_amplitudes(1)
    cfg = tmp_path / "ferro6.yaml"
    cfg.write_text(yaml.safe_dump({
        "lattice": {
            "n_sites": 6,
            "hopping": {"kind": "rank_one", "amplitudes": [float(a) for a in amps]},
        },
        "electrons": {"n_e": 5},
    }))
    calls = []
    real = eigensolver.eigensolve

    def counting(h, *args, **kwargs):
        calls.append(h.shape[0])
        return real(h, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "eigensolve", counting)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "sweep"]) == 0
    _, rows = _read_csv(tmp_path / "o" / "sweep.csv")
    assert len(rows) == 91
    assert len(rows) <= len(calls) <= 110


def test_sweep_csv_quotes_a_message_with_a_comma(tmp_path):
    flags = 'AccuracyError: levels near -1, "cut" 0.5'
    rec = magnetism.SweepRecord(0.5, 0.1, 0.8, float("nan"), 0, "", "Error", flags)
    header = [f.name for f in fields(magnetism.SweepRecord)]
    cli.write_csv(tmp_path / "sweep.csv", {"version": "x"}, header, [astuple(rec)])
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "# version: x"
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == header and len(rows[1]) == 8
    assert rows[1][-1] == flags


@pytest.mark.parametrize(
    "text", [FAST_VERIFY, "modes: {n_max: 16}\n"], ids=["n_max-8", "n_max-16"]
)
def test_verify_passes_and_is_deterministic(tmp_path, capsys, text):
    """Two runs agree byte for byte and pass: at n_max 8 on loose
    tolerances, and at n_max 16, the annihilation check's setting, on the
    default ones, where verify maps the trials' support boxes (side 4 of
    17) to whole rows."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["--config", str(cfg), "--out", str(out1), "verify"])
    text1 = capsys.readouterr().out
    rc2 = main(["--config", str(cfg), "--out", str(out2), "verify"])
    text2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert "FAIL" not in text1
    assert text1 == text2
    assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()


@pytest.mark.parametrize("n_max", [6, 8])
def test_number_routes_row_matches_the_full_stack_oracle(tmp_path, capsys, monkeypatch, n_max):
    """The matrix route of number_expectation_routes reads each factor's
    dressed ground state one configuration row at a time; the oracle
    materializes it.  The row adds the two factors' differences of two O(1)
    numbers, so the sums must agree to the last bit for the row to agree to
    1e-12 (row-wise sums do not, at n_max 8)."""
    monkeypatch.setattr(cli, "EQUIVALENCE_DIM_CAP", 0)  # no coupled eigensolve
    cfg = tmp_path / "c.yaml"
    cfg.write_text(FAST_VERIFY.replace("n_max: 8", f"n_max: {n_max}"))
    main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"])
    _, rows = _read_csv(tmp_path / "o" / "verify.csv")
    got = float(next(r["measured"] for r in rows if r["check"] == "number_expectation_routes"))
    conf = load_config(cfg)
    factors = effective_hamiltonians(cli.build_model(conf), n_max).factors()
    assert len(factors) == 2
    want = 0.0
    for model, _ in factors:
        state, _ = dressed_ground(model, float(conf["solver"]["cluster_tol"]))
        vec = state.vector().reshape(model.basis.dim, model.fock.dim)
        matrix = float(np.sum(model.fock.nb_diag() * np.abs(vec) ** 2))
        want += abs(nb_expectation(state) - matrix)
    assert want > 0.0
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("n_e", [3, 4])
def test_verify_identity_rows_converge_above_half_filling(tmp_path, n_e):
    """One free mode holds a shell's whole centre-of-mass cloud, |z|^2 ~
    n_e^2, so the free box grows past n_max until its coherent tail is no
    larger than the worst per-mode tail on the box of all modes.  With it
    the reference physics at n_max 12 passes the identity rows above half
    filling; held at n_max, transform_number read 7.3e-5 at n_e 3 and 1.6e-3
    at n_e 4 (threshold 5e-5).  heisenberg_covariance reads 0.004-0.013
    here over seeds 0-4, on the box of all modes as on the factors, against
    5e-3, so the exit code is not asserted."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"electrons: {{n_e: {n_e}}}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"]) in (0, 3)
    _, rows = _read_csv(tmp_path / "o" / "verify.csv")
    status = {r["check"]: r["status"] for r in rows}
    for name in ("transform_energy", "transform_number", "dressed_annihilation"):
        assert status[name] == "pass"
    assert status["number_quadratic_coefficient"] == status["spectral_equivalence"] == "pass"


def test_verify_strict_failure_exit(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(FAST_VERIFY.replace("annihilation: 1.0e-3", "annihilation: 1.0e-30"))
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"])
    assert rc == 3
    assert "FAIL dressed_annihilation" in capsys.readouterr().out


def test_verify_reads_cluster_tol(tmp_path, capsys):
    """At cluster_tol 0.5 the dressed ground state's gap falls in the grey
    zone, so verify must stop there instead of using the 1e-8 default."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes: {n_max: 2}\nsolver: {cluster_tol: 0.5}\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"])
    assert rc == 3
    assert "verification error: eigenvalue gap" in capsys.readouterr().err


def test_ir_csv(tmp_path):
    out = tmp_path / "runs"
    rc = main(["--out", str(out), "ir"])
    assert rc == 0
    meta, rows = _read_csv(out / "ir.csv")
    assert meta["singularity_class"] == "LogSingular"
    assert abs(float(meta["fitted_rate"]) - 1.0) < 0.02
    assert len(rows) == 4
    ov = [float(r["overlap_modulus"]) for r in rows]
    assert ov[0] > ov[1] > ov[2] > ov[3]
    wl = [float(r["weyl_minus_limit"]) for r in rows]
    assert wl[0] > wl[1] > wl[2]


def test_ir_runs_every_per_site_on_the_vacuum_space(tmp_path):
    """ir builds no boson space, so per_site 6-12 (up to 24 modes) run, and
    the moment-matched norms make their rows those of per_site 2."""

    def values(per_site):
        cfg = tmp_path / f"ps{per_site}.yaml"
        cfg.write_text(f"modes: {{per_site: {per_site}}}\n")
        out = tmp_path / f"ps{per_site}"
        assert main(["--config", str(cfg), "--out", str(out), "ir"]) == 0
        _, rows = _read_csv(out / "ir.csv")
        return np.array([[float(v) for v in r.values()] for r in rows])

    want = values(2)
    for per_site in (6, 9, 12):
        assert np.max(np.abs(values(per_site) - want)) <= 1e-10


def test_ir_scans_a_power_singular_family_to_tiny_cutoffs(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes: {beta: 0.3, kappas: [1.0e-2, 1.0e-8]}\n")
    out = tmp_path / "runs"
    assert main(["--config", str(cfg), "--out", str(out), "ir"]) == 0
    meta, rows = _read_csv(out / "ir.csv")
    assert meta["singularity_class"] == "PowerSingular"
    assert abs(float(meta["fitted_rate"]) - (2 * 0.3 - 1)) < 0.02
    assert len(rows) == 2


BAD_CONFIGS = [
    ("lattice: 5\n", "lattice"),
    ("electrons:\n", "electrons"),
    ("tolerances: 3\n", "tolerances"),
    ("lattice:\n  hopping: 7\n", "lattice.hopping"),
    ("modes: {nmax: 2}\n", "modes.nmax"),
    ("tolerances: {transfrom: 1.0e-3}\n", "tolerances.transfrom"),
    ("modes: {beta: .nan}\n", "modes.beta"),
    ("interaction: {u: .inf}\n", "interaction.u"),
    ("coupling: {alpha: .nan}\n", "coupling.alpha"),
    ("modes: {kappa: .nan}\n", "modes.kappa"),
    ("solver: {cluster_tol: .inf}\n", "solver.cluster_tol"),
    ("lattice: {n_sites: true}\n", "lattice.n_sites"),
    ("electrons: {n_e: true}\n", "electrons.n_e"),
    ("modes: {n_max: true}\n", "modes.n_max"),
    ("modes: {per_site: true}\n", "modes.per_site"),
    ("solver: {levels: true}\n", "solver.levels"),
    ("electrons: {n_e: 0}\n", "electrons.n_e"),
    ("lattice: {hopping: {kind: matrix, matrix: [[0, 1], [2, 0]]}}\n", "lattice.hopping.matrix"),
]


@pytest.mark.parametrize("text, key", BAD_CONFIGS, ids=[k for _, k in BAD_CONFIGS])
@pytest.mark.parametrize("command", ["sweep", "ir"])
def test_malformed_sections_keys_and_values_exit_2(
    tmp_path, capsys, text, key, command
):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {key}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


TYPE_ERRORS = [
    ("lattice: {n_sites: true}\n", "lattice.n_sites must be an integer"),
    ("modes: {n_max: 2.5}\n", "modes.n_max must be an integer"),
    ("interaction: {u: x}\n", "interaction.u must be a number"),
    ("coupling: {alpha: .inf}\n", "coupling.alpha must be a number"),
    ("modes: {kappas: [0.1, .nan]}\n", "modes.kappas must be a list of numbers"),
    ("lattice: {hopping: {kind: 5}}\n", "lattice.hopping.kind must be a string"),
    ("coupling: {alpha_grid: [true]}\n", "coupling.alpha_grid must be a list of numbers"),
    (
        "lattice: {hopping: {kind: rank_one, t0: x, amplitudes: [1.0, 1.0]}}\n",
        "lattice.hopping.t0 must be a number",
    ),
]


@pytest.mark.parametrize("text, message", TYPE_ERRORS, ids=[m.split()[0] for _, m in TYPE_ERRORS])
def test_a_value_of_another_type_than_its_reference_entry_exits_2(
    tmp_path, capsys, text, message
):
    """The load types each value by the reference entry it replaces, or t0,
    which the reference lacks, by its EXTRA_KEYS entry, and refuses the
    first mismatch: one line names the entry and no --out is made."""
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "sweep"])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_an_integer_for_a_float_entry_is_the_float(tmp_path):
    """u: 1 loads as the float 1.0, so its run, config hash included, is the
    u: 1.0 run byte for byte."""
    csvs = []
    for u in ("1", "1.0"):
        cfg = tmp_path / f"u{u}.yaml"
        cfg.write_text(f"interaction: {{u: {u}}}\n")
        loaded = load_config(cfg)["interaction"]["u"]
        assert loaded == 1.0 and type(loaded) is float
        assert main(["--config", str(cfg), "--out", str(tmp_path / u), "sweep"]) == 0
        csvs.append((tmp_path / u / "sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize(
    "hopping",
    [
        "kind: rank_one, t0: {one}, amplitudes: [1.0, -1.0, 2.0]",
        "kind: rank_one, amplitudes: [{one}, -{one}, {two}]",
        "kind: matrix, matrix: [[0, -{one}, 0], [-{one}, 0, -{two}], [0, -{two}, 0]]",
    ],
    ids=["t0", "amplitudes", "matrix"],
)
def test_integer_optional_hopping_keys_are_the_floats(tmp_path, hopping):
    """The load types the optional hopping keys like every other entry, so
    integers written there are stored as floats: the run, config hash
    included, is the float spelling's byte for byte."""
    csvs = []
    for one, two in (("1", "2"), ("1.0", "2.0")):
        cfg = tmp_path / f"h{one}.yaml"
        cfg.write_text(
            "lattice: {n_sites: 3, hopping: {" + hopping.format(one=one, two=two) + "}}\n"
            "electrons: {n_e: 2}\n"
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / one), "sweep"]) == 0
        csvs.append((tmp_path / one / "sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


OPTIONAL_TYPE_ERRORS = {
    "t0-string": ("t0: x", "t0 must be a number"),
    "t0-bool": ("t0: true", "t0 must be a number"),
    "amplitudes-scalar": ("amplitudes: 5", "amplitudes must be a list of numbers"),
    "amplitudes-string": ("amplitudes: [x, 1.0]", "amplitudes must be a list of numbers"),
    "matrix-flat": ("matrix: [1, 2]", "matrix must be a table of numbers"),
    "matrix-string": ("matrix: [[0, x], [1, 0]]", "matrix must be a table of numbers"),
}


@pytest.mark.parametrize("kind", ["chain", "rank_one", "matrix"])
@pytest.mark.parametrize("name", OPTIONAL_TYPE_ERRORS)
def test_a_mistyped_optional_hopping_key_exits_2_under_every_kind(tmp_path, capsys, name, kind):
    """t0, amplitudes and matrix are typed at load under every kind, also one
    that ignores the key: exactly one line names the key, and no --out is
    made."""
    entry, message = OPTIONAL_TYPE_ERRORS[name]
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"lattice: {{hopping: {{kind: {kind}, {entry}}}}}\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "sweep"])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: lattice.hopping.{message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["spectrum", "verify", "sweep", "ir"])
@pytest.mark.parametrize("n_sites", [1415, 1_000_000])
def test_too_many_sites_for_a_dense_hopping_exit_2(tmp_path, capsys, n_sites, command):
    """The hopping matrix holds n_sites^2 numbers, so n_sites^2 above the
    coupled cap of 2,000,000 is refused before --out is made or any such
    array is allocated; 1,000,000 sites asked numpy for 7.28 TiB and ended
    in a MemoryError traceback."""
    cfg = tmp_path / "big.yaml"
    cfg.write_text(f"lattice: {{n_sites: {n_sites}}}\nelectrons: {{n_e: 2}}\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "config error: lattice.n_sites must be an integer in [1, 1414]\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["spectrum", "verify", "sweep", "ir"])
@pytest.mark.parametrize("key, opening, closing", [("modes", "[", "]"), ("x", "{a: ", "}")])
def test_a_deeply_nested_config_exits_2(tmp_path, capsys, key, opening, closing, command):
    """A config 3,000 levels deep, of lists under a key of the reference or
    of mappings under a key it lacks, overruns the YAML parser's recursion:
    one config error line and exit 2 before --out is made, no traceback."""
    cfg = tmp_path / "deep.yaml"
    cfg.write_text(f"{key}: {opening * 3000}1{closing * 3000}\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
    assert rc == 2
    assert capsys.readouterr().err == "config error: config nests too deeply to parse\n"
    assert not (tmp_path / "o").exists()


def test_the_largest_lattice_validates():
    cfg = load_config(None)
    cfg["lattice"]["n_sites"] = 1414
    assert validate_config(cfg) == []


@pytest.mark.parametrize("command", ["spectrum", "verify", "sweep", "ir"])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    """numpy's generators take non-negative seeds only: a negative --seed
    ends in argparse's exit 2 before --out is made, not in a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "-1", "--out", str(tmp_path / "o"), command])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed must be a non-negative integer" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


EDGE_CONFIGS = {
    "no-electrons": "electrons: {n_e: 0}\n",
    "one-electron": "electrons: {n_e: 1}\n",
    "full-filling": "electrons: {n_e: 4}\n",
    "one-site": "lattice: {n_sites: 1}\nelectrons: {n_e: 1}\n",
    "no-coupling": "coupling: {alpha: 0}\n",
    "attractive": "interaction: {u: -3}\n",
    "no-hopping": "lattice: {hopping: {t: 0}}\n",
    "rank-one": "lattice:\n  n_sites: 3\n  hopping: {kind: rank_one, amplitudes: "
    "[1, -1, 0.5]}\nelectrons: {n_e: 2}\n",
    # edges of the norm check's rule: an integrand k**80, a cutoff whose
    # discretization moments overflow, cutoffs below 1e-13 in ir's scan
    "beta-40": "modes: {beta: 40}\n",
    "tiny-kappa": "modes: {kappa: 1.0e-300}\n",
    "tiny-kappas": "modes: {kappas: [1.0e-14, 1.0e-15]}\n",
}
# exit codes of the rule's edge configs other than 0: verify's identity
# checks fail at n_max 2, and 1e-300 overflows the closed forms first
NORM_EDGE_CODES = {
    ("beta-40", "verify"): 3,
    ("tiny-kappa", "spectrum"): 2,
    ("tiny-kappa", "verify"): 2,
    ("tiny-kappas", "verify"): 3,
}


@pytest.mark.parametrize("command", ["spectrum", "verify", "sweep", "ir"])
@pytest.mark.parametrize("name", EDGE_CONFIGS)
def test_edge_configs_exit_with_a_documented_code(
    tmp_path, capsys, monkeypatch, name, command
):
    """Edge configs through every solver: a documented exit code, never a
    traceback; a config without electrons is rejected up front.  At the
    norm rule's edges the code is pinned, and the CSV is the one written
    with the adaptive quadrature in place of the rule."""
    cfg = tmp_path / "c.yaml"
    tree = yaml.safe_load(EDGE_CONFIGS[name])
    tree["modes"] = {"n_max": 2, **tree.get("modes", {})}
    cfg.write_text(yaml.safe_dump(tree))
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
    assert rc in (0, 2, 3)
    if name == "no-electrons":
        assert rc == 2
        assert "config error: electrons.n_e" in capsys.readouterr().err
    if name in ("beta-40", "tiny-kappa", "tiny-kappas"):
        assert rc == NORM_EDGE_CODES.get((name, command), 0)
        monkeypatch.setattr(ir_modes, "_log_rule", quad_log_rule)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "q"), command]) == rc
        csvs = [
            {p.name: p.read_bytes() for p in (tmp_path / d).glob("*.csv")} for d in "oq"
        ]
        assert csvs[0] == csvs[1]
        assert bool(csvs[0]) == (rc != 2)


def test_undecodable_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(b"modes:\n  n_max: \xff\xfe2\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "ir"])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


def test_partial_alpha_grid_merges_with_the_defaults(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("coupling:\n  alpha_grid: {step: 0.05}\n")
    grid = load_config(cfg)["coupling"]["alpha_grid"]
    assert grid == {"start": 0.2, "stop": 2.0, "step": 0.05}
    out = tmp_path / "runs"
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    _, rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 37


def _entries(tree, path=()):
    """Every (path, value) of a config tree, list elements included."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, val in items:
        yield path + (key,), val
        if isinstance(val, (dict, list)):
            yield from _entries(val, path + (key,))


REFERENCE_ENTRIES = list(_entries(load_config(None)))
SCALARS = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(st.characters(exclude_categories=["Cs"]), max_size=8),
    st.none(),
)
KEYS = st.text(st.characters(exclude_categories=["Cs"]), min_size=1, max_size=8)
VALUES = st.one_of(
    st.sampled_from([True, False, math.nan, math.inf, -math.inf]),
    SCALARS,
    st.lists(SCALARS, max_size=4),
    st.dictionaries(KEYS, SCALARS, max_size=3),
)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    entry=st.sampled_from(REFERENCE_ENTRIES),
    value=VALUES,
    new_key=st.one_of(st.none(), KEYS),
)
def test_mutated_reference_loads_or_is_rejected(tmp_path_factory, entry, value, new_key):
    """One entry of the reference tree replaced, or a key added beside it:
    loading raises nothing but ValidationError, validation returns a list,
    and a bool or non-finite number in a numeric field is rejected."""
    path, old = entry
    tree = load_config(None)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    added = new_key is not None and isinstance(parent, dict)
    parent[new_key if added else path[-1]] = value
    cfg = tmp_path_factory.getbasetemp() / "mutated.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    try:
        loaded = load_config(cfg)
    except ValidationError:
        return
    errs = validate_config(loaded)
    assert isinstance(errs, list)
    bad_number = isinstance(value, bool) or (
        isinstance(value, float) and not math.isfinite(value)
    )
    if not added and _is_number(old) and bad_number:
        field = ".".join(str(k) for k in path[:2])
        assert any(e.startswith(field) for e in errs), (path, value, errs)


# Rank-one and matrix trees; each optional hopping key, or one item or row
# of it, is a mutation site, also under a kind that ignores the key.
OPTIONAL_TREES = [
    "lattice: {n_sites: 3, hopping: {kind: rank_one, t0: 1.0, amplitudes: [1.0, -1.0, 2.0]}}\n",
    "lattice: {n_sites: 2, hopping: {kind: matrix, matrix: [[0.0, -1.0], [-1.0, 0.0]]}}\n",
]
OPTIONAL_ENTRIES = [
    (text, path)
    for text in OPTIONAL_TREES
    for path in dict.fromkeys(
        [("lattice", "hopping", key) for key in cli.EXTRA_KEYS["lattice", "hopping"]]
        + [p for p, _ in _entries(yaml.safe_load(text)) if p[:2] == ("lattice", "hopping")]
    )
    if len(path) > 2 and path[2] != "kind"
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    entry=st.sampled_from(OPTIONAL_ENTRIES),
    value=VALUES | st.lists(SCALARS | st.lists(SCALARS, max_size=3), max_size=3),
)
def test_mutated_optional_hopping_keys_load_or_are_rejected(tmp_path_factory, entry, value):
    """One optional hopping key, item or row replaced by a scalar or a
    nested or ragged list: loading raises nothing but ValidationError,
    validation returns a list, and every number the load keeps in those
    keys is a finite float."""
    text, path = entry
    tree = yaml.safe_load(text)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    cfg = tmp_path_factory.getbasetemp() / "optional.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    try:
        loaded = load_config(cfg)
    except ValidationError:
        return
    assert isinstance(validate_config(loaded), list)
    hop = loaded["lattice"]["hopping"]
    kept = [v for p, v in _entries(hop) if p[0] in cli.EXTRA_KEYS["lattice", "hopping"]]
    assert all(isinstance(v, list) or type(v) is float and math.isfinite(v) for v in kept)


REAL = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _small_configs(draw):
    """A valid config of 1-3 sites with chain, rank-one or matrix hopping,
    two nodes per site channel, n_max 1-2 and a short coupling grid.  Three
    nodes on three sites stay out: on ROADMAP item 9's near-degenerate
    config the transformed solve of the 5,832 S = 1/2 active states still
    takes 35-50 s, against 0.4 s for the direct one."""
    n_sites = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["chain", "rank_one", "matrix"]))
    hopping = {"kind": kind, "t": draw(REAL)}
    if kind == "rank_one":
        amp = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)
        hopping["t0"] = draw(REAL.filter(lambda t: t != 0))
        hopping["amplitudes"] = draw(st.lists(amp, min_size=n_sites, max_size=n_sites))
    elif kind == "matrix":
        a = draw(st.lists(REAL, min_size=n_sites**2, max_size=n_sites**2))
        a = np.reshape(a, (n_sites, n_sites))
        hopping["matrix"] = (np.triu(a) + np.triu(a, 1).T).tolist()
    kappas = draw(st.lists(st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]),
                           min_size=2, max_size=3, unique=True))
    return {
        "lattice": {"n_sites": n_sites, "hopping": hopping},
        "electrons": {"n_e": draw(st.integers(1, 2 * n_sites))},
        "interaction": {"u": draw(st.floats(-4.0, 4.0))},
        "coupling": {
            "alpha": draw(st.floats(0.0, 2.0)),
            "alpha_grid": draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3)),
        },
        "modes": {
            "beta": draw(st.floats(0.2, 1.0)),
            "kappa": draw(st.floats(1e-4, 0.5)),
            "kappas": kappas,
            "per_site": 2,
            "n_max": draw(st.integers(1, 2)),
        },
        "solver": {"levels": draw(st.integers(1, 5))},
    }


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(tree=_small_configs())
def test_random_small_configs_run_or_exit_with_a_code(tmp_path_factory, tree):
    """Every small config that validates runs through spectrum, verify,
    sweep and ir to exit 0, 2 or 3, and never to a traceback."""
    base = tmp_path_factory.getbasetemp()
    cfg = base / "small.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    assert validate_config(load_config(cfg)) == []
    for command in ("spectrum", "verify", "sweep", "ir"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["--config", str(cfg), "--out", str(base / "small"), command])
        assert rc in (0, 2, 3), (command, err.getvalue())
        assert "Traceback" not in err.getvalue()


# Accepted configs whose arithmetic overflows: a hopping whose row sums pass
# the largest double, a coupling whose square times R does, and an
# interaction whose products with the trial vectors do.
OVERFLOWS = {
    "hopping": "lattice: {hopping: {kind: chain, t: 1.0e+308}}\n",
    "coupling": "coupling: {alpha: 1.0e+154}\n",
    "interaction": "interaction: {u: -1.0e+308}\n",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows themselves
@pytest.mark.parametrize(
    "name, command",
    [
        ("hopping", "spectrum"), ("hopping", "verify"), ("hopping", "ir"), ("hopping", "sweep"),
        ("coupling", "spectrum"), ("coupling", "verify"), ("coupling", "ir"),
        ("interaction", "spectrum"), ("interaction", "verify"),
    ],
)
def test_overflowing_configs_exit_with_a_code(tmp_path, capsys, name, command):
    """spectrum, verify and ir exit 2 with the overflow line; sweep keeps each
    overflowed point as an Error row flagged LinAlgError and exits 0, or 3
    under --strict: no command writes a non-finite level with exit 0."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(OVERFLOWS[name])
    out = tmp_path / "o"
    rc = main(["--config", str(cfg), "--out", str(out), command])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if command != "sweep":
        assert rc == 2 and "config error: a value overflowed: " in err
        assert not (out / f"{command}.csv").exists()
        return
    assert rc == 0
    _, rows = _read_csv(out / "sweep.csv")
    assert rows and all(r["classification"] == "Error" for r in rows)
    assert all(r["residual_flags"].startswith("LinAlgError") for r in rows)
    assert main(["--config", str(cfg), "--out", str(out), "--strict", "sweep"]) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows themselves
def test_verify_fit_line_stays_short_when_the_coupling_overflows(tmp_path, capsys):
    """At alpha 1e154 the fit line's exact alpha^2/2 is 5e307, which a fixed
    count of decimals wrote out in 308 digits; the run still exits 2."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(OVERFLOWS["coupling"])
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"]) == 2
    assert max(map(len, capsys.readouterr().out.splitlines())) <= 200


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows themselves
@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("t", ["1.0e+200", "1.0e+250", "1.0e+300"])
def test_a_hopping_too_large_for_the_lanczos_norms_exits_2(tmp_path, capsys, t, command):
    """Every entry is finite, so the input check passes the coupled route's
    operator, but the Lanczos run that solves it squares values near t: the
    run exits 2 with the overflow line, which says why and does not call the
    entries non-finite."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"lattice: {{hopping: {{kind: chain, t: {t}}}}}\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: a value overflowed: " in err
    assert "too large for double arithmetic" in err
    assert "non-finite" not in err and "Traceback" not in err


@pytest.mark.parametrize("literal, value", [("1e-3", 1e-3), ("1.0e6", 1e6), ("1E+3", 1e3)])
def test_exponent_literals_load_as_numbers(tmp_path, literal, value):
    """YAML 1.2 float forms, which YAML 1.1 reads as strings, are numbers
    wherever a config takes one; 1e-3x is still not a number."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        f"modes: {{kappa: {literal}, beta: {literal}, big_k: 2.0e+6}}\n"
        f"tolerances: {{transform: {literal}}}\n"
    )
    loaded = load_config(cfg)
    assert loaded["modes"]["kappa"] == loaded["modes"]["beta"] == value
    assert loaded["tolerances"]["transform"] == value
    assert type(loaded["modes"]["kappa"]) is type(loaded["tolerances"]["transform"]) is float
    assert validate_config(loaded) == []
    cfg.write_text("modes: {kappa: 1e-3x}\n")
    with pytest.raises(ValidationError, match="modes.kappa"):
        load_config(cfg)


def test_configs_without_such_literals_load_as_before(tmp_path):
    """The loader reads every YAML 1.1 scalar of the reference config and
    of the edge configs as yaml.safe_load does, so config_sha256 holds."""
    ref = Path(cli.__file__).with_name("reference.yaml").read_text()
    assert load_config(None) == yaml.safe_load(ref)
    for text in EDGE_CONFIGS.values():
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        assert load_config(cfg) == cli._merge(yaml.safe_load(ref), yaml.safe_load(text))


@pytest.mark.parametrize("command", ["sweep", "ir"])
def test_small_cutoffs_written_with_exponents_run(tmp_path, command):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes: {kappa: 1e-3, kappas: [1e-1, 1e-2, 1e-3]}\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 0
    _, rows = _read_csv(out / f"{command}.csv")
    assert rows and all(float(r["kappa"]) in (1e-1, 1e-2, 1e-3) for r in rows)


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    """The output directory is made once, after validation; a file in its
    place is a config error, and the file is left as it was."""
    out = tmp_path / "taken"
    out.write_text("keep")
    assert main(["--out", str(out), "sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(out) in err
    assert "Traceback" not in err and out.read_text() == "keep"


@pytest.mark.parametrize("command", ["spectrum", "verify", "sweep", "ir"])
def test_a_csv_that_cannot_be_written_exits_2(tmp_path, capsys, command):
    """A directory in the place of the command's CSV ends the run in one
    config error line that names the path, not in a traceback."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes: {n_max: 2}\n")
    taken = tmp_path / "o" / f"{command}.csv"
    taken.mkdir(parents=True)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {taken}: ") and err.count("\n") == 1


# -- spectra the spin-resolved solve must refuse or resolve -------------------


HUGE_U = "modes: {n_max: 3}\ninteraction: {u: 1.0e+12}\n"


@pytest.mark.parametrize("command", ["spectrum", "verify", "ir"])
def test_levels_too_inaccurate_to_cluster_exit_3(tmp_path, capsys, command):
    """At u 1e12 the dense levels carry an error near eps ||H|| ~ 2e-4, far
    above the clustering's resolution: a verification error, not output."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(HUGE_U)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
    assert rc == 3
    err = capsys.readouterr().err
    assert "verification error: " in err and "above the grey-zone floor" in err


def test_levels_too_inaccurate_to_cluster_are_sweep_errors(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(HUGE_U)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    _, rows = _read_csv(out / "sweep.csv")
    assert rows and all(r["classification"] == "Error" for r in rows)
    assert all("above the grey-zone floor" in r["residual_flags"] for r in rows)


def test_spectrum_without_hopping_merges_both_spins(tmp_path, capsys):
    """At t = 0 no hop reaches the singly occupied pattern, so its lowest
    coupled level is the singlet's and, three times over, the triplet's:
    the first four levels coincide on both routes."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes: {n_max: 3}\nlattice: {hopping: {t: 0}}\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
    meta, rows = _read_csv(out / "spectrum.csv")
    assert meta["electronic_degeneracy"] == "4"
    assert meta["electronic_s_tot"] == "mixed"
    for route in ("energy_direct", "energy_transformed"):
        levels = [float(r[route]) for r in rows]
        assert max(levels[:4]) - min(levels[:4]) <= 1e-12
        assert levels[4] - levels[3] > 1e-2


def test_ir_discretizes_each_cutoff_once(tmp_path, monkeypatch):
    """The overlap curve, the row models and the Weyl mode vectors share
    one discretization per cutoff."""
    calls = []
    real = ir_modes.discretize

    def spy(family, kappa, *args, **kwargs):
        calls.append(kappa)
        return real(family, kappa, *args, **kwargs)

    for module in (cli, ir_modes):
        monkeypatch.setattr(module, "discretize", spy)
    assert main(["--out", str(tmp_path), "ir"]) == 0
    assert sorted(calls) == sorted(load_config(None)["modes"]["kappas"])


# -- the BLAS thread pin -------------------------------------------------------


def _openblas_getters():
    getters = []
    for package, setter in cli.OPENBLAS_SETTERS.items():
        libs = Path(sys.modules[package].__file__).parents[1] / f"{package}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so")):
            lib = ctypes.CDLL(str(path))
            get = getattr(lib, setter.replace("_set_", "_get_"))
            get.argtypes, get.restype = [], ctypes.c_int
            getters.append((lib, setter, get))
    return getters


def test_main_pins_blas_to_one_thread(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    getters = _openblas_getters()
    assert len(getters) == 2  # numpy's and scipy's copies
    before = [get() for _, _, get in getters]
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes: {n_max: 2}\n")
    try:
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "spectrum"]) == 0
        assert [get() for _, _, get in getters] == [1, 1]
    finally:
        for (lib, setter, _), n in zip(getters, before):
            getattr(lib, setter)(ctypes.c_int(n))


def test_spectrum_bytes_do_not_depend_on_the_blas_default(tmp_path):
    """n_max 8 solves by Lanczos, whose last digits moved with OpenBLAS's
    thread count: at the default environment the CSV must be the one
    written at OPENBLAS_NUM_THREADS=1."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes: {n_max: 8}\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads}"
        subprocess.run(
            [sys.executable, "-m", "hubbard_phonon.cli", "--config", str(cfg),
             "--out", str(out), "spectrum"],
            env=env, check=True, capture_output=True, timeout=600,
        )
        outputs.append((out / "spectrum.csv").read_bytes())
    assert outputs[0] == outputs[1]


# -- what a command imports ---------------------------------------------------


@pytest.mark.parametrize(
    "command, unloaded",
    [
        ("sweep", ("scipy.integrate", "scipy.optimize", "scipy.special")),
        ("spectrum", ("scipy.integrate", "scipy.optimize")),
        ("verify", ("scipy.integrate", "scipy.optimize")),
        ("ir", ("scipy.integrate", "scipy.optimize")),
    ],
)
def test_commands_load_only_the_scipy_they_run(tmp_path, command, unloaded):
    """No command imports scipy.integrate (or scipy.optimize with it): ir's
    continuum profile integrals take a fixed rule in ln k, and quad is left
    to the tests as its oracle.  sweep truncates no Fock space, which is the
    one use of scipy.special.  The command runs in a fresh process: the
    pytest warning filters import scipy.integrate into this one."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("modes: {n_max: 2}\n")
    argv = ["--config", str(cfg), "--out", str(tmp_path / "o"), command]
    code = (
        f"import sys; from hubbard_phonon.cli import main; rc = main({argv!r}); "
        f"print(rc, [m for m in {unloaded!r} if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, check=True, capture_output=True, text=True, timeout=600,
    )
    rc, loaded = out.stdout.splitlines()[-1].split(" ", 1)
    assert rc in ("0", "3")  # verify's checks fail at n_max 2, after running
    assert loaded == "[]"
