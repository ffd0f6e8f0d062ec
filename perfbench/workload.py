"""One workload in a fresh process: set up, run the CLI passes, check them.

Started by ``run.py``, which sets the BLAS thread count in the environment
and passes its own wall clock at spawn as ``--t0``, so that ``setup_s``
runs from process start until the first subcommand can run.  Modes:

* ``setup``: import and load the config, then exit (a set-up sample).
* ``time``: untraced passes until ``--seconds`` have gone (at least one).
* ``trace``: with ``--untraced``, one untraced pass first; then the tracer
  is installed and one traced pass runs.

The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer
from workloads import IR_REPEATS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run_pass(cli, cfg_path, cfg, subs, seed, out, expected, log):
    """One pass of the workload's subcommands; returns times and op counts."""
    times, attempted, failed, notes = {}, 0, 0, []
    argv = ["--config", str(cfg_path), "--out", str(out), "--seed", str(seed)]
    for sub in subs:
        (out / f"{sub}.csv").unlink(missing_ok=True)  # check this pass's file only
        samples, codes = [], []
        for _ in range(IR_REPEATS if sub == "ir" else 1):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                codes.append(cli.main(argv + [sub]))
            samples.append(time.perf_counter() - t0)
        times[sub] = statistics.median(samples)
        exp = expected.get(sub)
        if any(codes):
            n = checks.expected_ops(sub, cfg, exp)
            a, f, msgs = n, n, [f"{sub}: exit codes {sorted(set(codes))}"]
        else:
            a, f, msgs = checks.CHECKS[sub](out / f"{sub}.csv", cfg, exp)
        attempted, failed, notes = attempted + a, failed + f, notes + msgs
    return {"times": times, "attempted": attempted, "failed": failed, "notes": notes}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    p.add_argument("--untraced", action="store_true")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)

    from hubbard_phonon import cli

    cfg = cli.load_config(args.config)
    errors = cli.validate_config(cfg)
    if errors:
        raise SystemExit(f"config rejected: {errors}")
    setup_s = time.time() - args.t0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": setup_s,
        "package": cli.__file__,
        "blas": f"{blas['name']} {blas['version']}",
    }
    if args.mode != "setup":
        subs = WORKLOADS[args.workload]
        expected = checks.load_expected(args.workload)
        passes = []
        with open(args.out / "cli.log", "a") as log:

            def one():
                return run_pass(cli, args.config, cfg, subs, args.seed, args.out, expected, log)

            if args.mode == "time":
                start = time.perf_counter()
                while not passes or time.perf_counter() - start < args.seconds:
                    passes.append(one())
            else:
                if args.untraced:
                    passes.append(one())
                tr = tracer.Tracer()
                tracer.install(tr)
                passes.append(one())
                result["layers"] = tr.metrics()
        result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
