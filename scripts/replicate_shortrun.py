#!/usr/bin/env python3
"""Run the default multi-seed experiment and summarize the regime contrasts.

Simulates the full 1900-1930 schedule for a block of seeds, writes the CSV
artifacts, and prints the per-metric regime differences with their
trend-controlled coefficients, plus the pooled regression battery.

Usage:
    python scripts/replicate_shortrun.py [--seeds 20] [--out out/shortrun] [--jobs N]
"""

import argparse
import csv
import sys

from meritmatch.metrics import read_year_outcomes_csv
from meritmatch.pipeline import RunManifest, diff_regimes, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out/shortrun")
    parser.add_argument("--jobs", type=int, default=None, help="parallel seed workers (default: the usable CPUs)")
    args = parser.parse_args()

    manifest = RunManifest(
        config_path=None,
        seed=args.seed,
        seeds=args.seeds,
        out_dir=args.out,
        **({} if args.jobs is None else {"jobs": args.jobs}),
    )
    print(f"running {args.seeds} seed(s) into {args.out} ...")
    artifacts = run(manifest)

    rows = diff_regimes(read_year_outcomes_csv(artifacts["year_outcomes.csv"]))
    print("\nregime contrast (centralized minus decentralized, averaged across seeds):")
    print(f"{'metric':38s} {'cen mean':>10s} {'dec mean':>10s} {'diff':>9s} {'trend coef':>11s} {'p':>8s}")
    for r in rows:
        print(
            f"{r.metric:38s} {r.mean_centralized:10.3f} {r.mean_decentralized:10.3f}"
            f" {r.difference:9.3f} {r.trend_coefficient:11.3f} {r.trend_p_value:8.4f}"
        )

    print("\npooled regression battery (cross-seed means):")
    with open(artifacts["regressions.csv"], newline="") as fh:
        pooled = [r for r in csv.DictReader(fh) if r["seed"] == "pooled"]
    print(f"{'spec':26s} {'coefficient':30s} {'estimate':>10s} {'se(seeds)':>10s}")
    for r in pooled:
        se = r["std_error"] or "-"
        print(f"{r['spec_id']:26s} {r['coefficient']:30s} {float(r['estimate']):10.3f} {se:>10s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
