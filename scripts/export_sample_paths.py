#!/usr/bin/env python3
"""Export example trajectories for plotting: grid paths for each family and
event-driven paths for the unit-atom (Poisson) family.

    python scripts/export_sample_paths.py [--outdir paths] [--seed 11]

The CSVs are plot-ready (long format); e.g. with pandas:

    df = pd.read_csv("paths/poisson_grid.csv")
    df.pivot(index="time", columns="path_id", values="value").plot()
"""

import argparse
import pathlib

import numpy as np

from gaussmart import (
    brownian_family,
    calibrate,
    gamma_family,
    path_bundle,
    poisson_family,
    simulate_events,
    simulate_grid_ensemble,
)
from gaussmart.pathsim import write_event_csv, write_grid_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="paths")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--n-paths", type=int, default=8)
    ap.add_argument("--steps", type=int, default=512)
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    times = np.linspace(0.0, 1.0, args.steps + 1)
    families = {
        "poisson": calibrate(poisson_family()),
        "gamma": calibrate(gamma_family(b=1.0)),
        "brownian": brownian_family(),
    }
    for name, fam in families.items():
        values = simulate_grid_ensemble(fam, times, args.seed, args.n_paths)
        out = outdir / f"{name}_grid.csv"
        write_grid_csv(out, times, values)
        print(f"wrote {out} ({args.n_paths} paths, {times.size} times)")

    events = simulate_events(
        families["poisson"], 0.05, 0.0, 1.0, path_bundle(args.seed, args.n_paths)
    )
    out = outdir / "poisson_events.csv"
    print(f"wrote {out} ({write_event_csv(out, [events])} jumps)")


if __name__ == "__main__":
    main()
