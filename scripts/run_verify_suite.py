#!/usr/bin/env python3
"""Run the full gated battery for every built-in family and collect reports.

Writes reports/<family>.json plus a one-line summary per check; exits 1 if
any gated check fails.  Full-scale run; expect a few minutes.

    python scripts/run_verify_suite.py [--paths 200000] [--seed 7] [--outdir reports]
"""

import argparse
import json
import pathlib
import sys
import time

from gaussmart import (
    brownian_family,
    calibrate,
    compound_family,
    gamma_family,
    null_calibration,
    poisson_family,
    standard_battery,
)
from gaussmart.cli import _HEADER, verify_report

FAMILIES = {
    "poisson": lambda: calibrate(poisson_family()),
    "gamma": lambda: calibrate(gamma_family(b=1.0)),
    "compound": lambda: calibrate(compound_family([(0.5, 1.0), (2.0, 0.25)])),
    "brownian": brownian_family,
}
#: repetitions of the null calibration; a gate must pass in 99 of them
NULL_REPS = 100


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    all_pass = True
    for name, make in FAMILIES.items():
        t0 = time.time()
        family = make()
        reports = standard_battery(
            family, args.seed, n_paths=args.paths, threads=args.threads
        )
        payload = verify_report(family, args.seed, reports)
        (outdir / f"{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
        for r in reports:
            print(f"{name:9s} {r.status.upper():6s} {r.test_name:28s} "
                  f"stat={r.statistic:.6g} p={r.p_value}")
            all_pass &= r.passed
        print(f"{name:9s} battery done in {time.time() - t0:.1f}s")

    t0 = time.time()
    counts = null_calibration(seed=args.seed, reps=NULL_REPS)
    # the null calibration's own sizes are fixed; the battery's options are
    # recorded with it, so the whole gate table reruns from this file
    (outdir / "null_calibration.json").write_text(
        json.dumps(
            {**_HEADER, "seed": args.seed, "reps": NULL_REPS, "paths": args.paths,
             "threads": args.threads, "counts": counts},
            indent=2, sort_keys=True,
        )
    )
    reps = counts.pop("repetitions")
    for test, n_ok in sorted(counts.items()):
        print(f"null      {'PASS' if n_ok >= 99 else 'FAIL':6s} {test:28s} {n_ok}/{reps}")
        all_pass &= n_ok >= 99
    print(f"null calibration done in {time.time() - t0:.1f}s")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
