"""Benchmark entry point: one workload, timed or traced, in fresh processes.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every child runs with the BLAS thread count set to ``nproc``
(the traced run repeats at 1 thread).  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``).  Exits 1 without a result if a child fails, 2 if the
checkout holds no package to run.

``--trace 0``: a few set-up samples (``SETUP_PROBES`` processes that only
import the CLI and load the config), then one process that runs passes of
the workload's subcommands through ``hubbard_phonon.cli.main`` in a closed
loop (one client) until ``--seconds`` have gone, at least one pass.

``--trace 1``: one process makes an untraced pass and then a traced pass at
``nproc`` threads; another makes a traced pass at 1 thread.  Layer metrics
are ``<module>.<function>.<stat>``; the 1-thread ones carry a ``t1.``
prefix.  The run fails if a metric predicted nonzero reads 0 or if an exact
count differs between the two traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import EXACT_COUNTS, WORKLOADS, predicted_nonzero, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 4
# Timed runs pin BLAS to one thread: at nproc threads on a small shared
# host the same pass varies by a fifth from run to run (see README.md).
TIMED_THREADS = 1
TIME_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Spawns the workload processes of one benchmark run."""

    def __init__(self, args, work, cfg_path):
        self.args = args
        self.work = work
        self.cfg_path = cfg_path
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.count = 0

    def spawn(self, mode, threads, *extra):
        self.count += 1
        result = self.work / f"result-{self.count}.json"
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        cmd = [
            sys.executable, str(HERE / "workload.py"),
            "--workload", self.args.workload, "--config", str(self.cfg_path),
            "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
            "--mode", mode, "--out", str(self.work), "--result", str(result),
            *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("out of time before starting a child")
        with open(self.work / "child.log", "a") as log:
            try:
                proc = subprocess.run(
                    cmd + ["--t0", repr(time.time())],
                    stdout=log, stderr=log, env=env, timeout=remaining,
                )
            except subprocess.TimeoutExpired as exc:
                raise ChildFailed(f"{mode} child timed out") from exc
        if proc.returncode != 0:
            tail = (self.work / "child.log").read_text()[-3000:]
            raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{tail}")
        out = json.loads(result.read_text())
        if Path(out["package"]).resolve().parent != ROOT / "src" / "hubbard_phonon":
            raise ChildFailed(f"imported the package from {out['package']}")
        return out


def _tally(passes):
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes = [n for p in passes for n in p["notes"]]
    return attempted, failed, notes


def timed_run(runner, nproc, subs):
    setups = [runner.spawn("setup", TIMED_THREADS)["setup_s"] for _ in range(SETUP_PROBES)]
    child = runner.spawn("time", TIMED_THREADS)
    setups.append(child["setup_s"])
    passes = child["passes"]
    times = {s: statistics.median(p["times"][s] for p in passes) for s in subs}
    attempted, failed, notes = _tally(passes)
    values = {
        "setup_s": statistics.median(setups),
        "certify_s": sum(times.values()),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    shown = {f"{s}_s": (t, "s") for s, t in times.items()}
    shown["fail_frac"] = (failed / attempted, "ratio")
    lines = [
        f"{len(passes)} passes; blas {child['blas']} at {TIMED_THREADS} thread; "
        f"setup samples {len(setups)}"
    ]
    return values, shown, attempted, failed, notes, lines


def traced_run(runner, nproc, subs):
    full = runner.spawn("trace", nproc, "--untraced")
    single = runner.spawn("trace", 1)
    untraced, traced = full["passes"]
    values = dict(full["layers"])
    values.update({f"t1.{k}": v for k, v in single["layers"].items()})
    for sub in ("spectrum", "verify", "sweep", "ir"):
        values[f"cli.main.{sub}_s"] = untraced["times"].get(sub, 0.0)
    values["trace.untraced_s"] = sum(untraced["times"].values())
    values["trace.traced_s"] = sum(traced["times"].values())
    values["t1.trace.traced_s"] = sum(single["passes"][0]["times"].values())
    values["trace.overhead"] = values["trace.traced_s"] / values["trace.untraced_s"] - 1.0
    values["host.nproc"] = nproc
    attempted, failed, notes = _tally(full["passes"] + single["passes"])
    predicted = predicted_nonzero(runner.args.workload)
    for name in predicted:
        for key in (name, f"t1.{name}"):
            if not values.get(key):
                failed, notes = failed + 1, notes + [f"{key} predicted nonzero, reads 0"]
    for name in EXACT_COUNTS:
        a, b = values.get(name, 0.0), values.get(f"t1.{name}", 0.0)
        if a != b:
            failed, notes = failed + 1, notes + [f"{name} not exact: {a} vs {b}"]
    attempted += 2 * len(predicted) + len(EXACT_COUNTS)
    lines = [
        f"blas {full['blas']}; traced at {nproc} and 1 threads; "
        f"overhead {values['trace.overhead']:+.1%} of {values['trace.untraced_s']:.3f} s"
    ]
    return values, {}, attempted, failed, notes, lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "hubbard_phonon" / "cli.py").is_file() or not (
        ROOT / "configs" / "reference.yaml"
    ).is_file():
        print(f"no hubbard_phonon source checkout at {ROOT}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    subs = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args, work, write_config(ROOT, args.workload, args.seed, work))
        run = traced_run if args.trace else timed_run
        values, shown, attempted, failed, notes, lines = run(runner, nproc, subs)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # left in place while another run uses it

    missing = [m["name"] for m in wanted if m["name"] not in values and not args.trace]
    if missing:
        print(f"benchmark produced no value for {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    print(f"workload {args.workload} (seed {args.seed}): {', '.join(subs)}; nproc {nproc}")
    for line in lines + notes:
        print(f"  {line}")
    for name, entry in metrics.items():
        print(f"  {name} {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in shown.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
