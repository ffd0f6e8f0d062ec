"""Record the values the output checks compare against, into expected.json.

Run from the repository root, on the commit whose outputs are the
reference (about a minute):

    python3 perfbench/record.py

Only seed-independent values are kept: spectrum and ir rows, and the verify
rows named in ``checks.DETERMINISTIC``.  Sweep checks use closed forms.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402


def main():
    from hubbard_phonon import cli

    expected = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        for workload, subs in WORKLOADS.items():
            cfg_path = write_config(HERE.parent, workload, 0, tmp)
            rec = {}
            for sub in subs:
                if sub == "sweep":
                    continue
                argv = ["--config", str(cfg_path), "--out", str(tmp), "--seed", "0", sub]
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise SystemExit(f"{workload} {sub} failed")
                meta, rows = checks.read_csv(tmp / f"{sub}.csv")
                if sub == "verify":
                    rec[sub] = {
                        "checks": [r["check"] for r in rows],
                        "deterministic": {
                            r["check"]: float(r["measured"])
                            for r in rows
                            if r["check"] in checks.DETERMINISTIC
                        },
                    }
                elif sub == "spectrum":
                    keep = ("b_kappa", "u_eff", "electronic_e0", "electronic_degeneracy",
                            "electronic_s_tot", "classification")
                    rec[sub] = {"meta": {k: meta[k] for k in keep}, "rows": rows}
                else:
                    keep = ("singularity_class", "fitted_rate", "limit_value")
                    rec[sub] = {"meta": {k: meta[k] for k in keep}, "rows": rows}
            if rec:
                expected[workload] = rec
    checks.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
