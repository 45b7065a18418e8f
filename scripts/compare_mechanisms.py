#!/usr/bin/env python3
"""Run all four admission rules on one simulated cohort and compare outcomes.

For a single year's applicant pool, runs the merit-capped Boston algorithm
(on the truncated truthful lists applicants submit), the serial-dictatorship
benchmark, pure Boston, the grouped two-list variant, and the decentralized
single-application equilibrium, then prints summary statistics.

The last line checks the equivalence guarantee: on complete lists ranked by
utility and under one lottery, merit-capped Boston and serial dictatorship
admit the same set. It does not hold for truncated lists, where serial
dictatorship fills the seats merit-pool members leave empty from below the
pool.

Usage:
    python scripts/compare_mechanisms.py [--seed 0] [--scale 1.0]
"""

import argparse
import sys

import numpy as np

from meritmatch.config import build_scenario
from meritmatch.core import Regime, RegimeKind, SeededRng
from meritmatch.mechanisms import (
    run_decentralized,
    run_grouped_centralized,
    run_immediate_acceptance,
    run_meritocratic_boston,
    run_serial_dictatorship_da,
)
from meritmatch.popgen import DEFAULT_GROUPS, generate_applicants
from meritmatch.strategy import BehaviorParams, equilibrium_cutoffs, ranked_lists, single_applications, submit_applications


def summarize(name, assignment, applicants, scenario):
    urban_ids = [p.id for p in scenario.prefectures if p.urban]
    placed = assignment.ids  # an applicant's id is its cohort row
    scores = applicants.score[placed] if len(placed) else np.array([0.0])
    urban_share = np.isin(applicants.birth[placed], urban_ids).mean() if len(placed) else 0.0
    print(
        f"{name:38s} admitted={len(placed):5d} unassigned={len(assignment.unassigned):5d}"
        f"  min score={scores.min():6.1f}  mean score={scores.mean():6.1f}  urban share={urban_share:.3f}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--year", type=int, default=1900)
    args = parser.parse_args()

    scenario = build_scenario(args.scale)
    behavior = BehaviorParams()
    root = SeededRng(args.seed)
    applicants = generate_applicants(scenario, args.year, root)
    lottery_rng = root.substream("lottery", args.year)
    print(f"cohort: {len(applicants)} applicants, {sum(s.capacity for s in scenario.schools)} seats\n")

    truthful = submit_applications(applicants, Regime(RegimeKind.CENTRALIZED, args.year))
    summarize(
        "merit-capped Boston (truncated lists)",
        run_meritocratic_boston(scenario.schools, applicants, truthful, lottery_rng),
        applicants,
        scenario,
    )
    summarize(
        "serial dictatorship (truncated lists)",
        run_serial_dictatorship_da(scenario.schools, applicants, truthful, lottery_rng),
        applicants,
        scenario,
    )
    summarize(
        "pure Boston (truncated lists)",
        run_immediate_acceptance(scenario.schools, applicants, truthful, lottery_rng),
        applicants,
        scenario,
    )
    grouped_lists = submit_applications(applicants, Regime(RegimeKind.GROUPED_CENTRALIZED, args.year, DEFAULT_GROUPS))
    summarize(
        "grouped two-list",
        run_grouped_centralized(scenario.schools, applicants, grouped_lists, DEFAULT_GROUPS, lottery_rng),
        applicants,
        scenario,
    )
    cutoffs, iters, resid = equilibrium_cutoffs(scenario.schools, applicants, behavior)
    singles = single_applications(applicants, cutoffs, behavior)
    summarize(
        "decentralized (eqm)",
        run_decentralized(scenario.schools, applicants, singles, lottery_rng),
        applicants,
        scenario,
    )
    print(f"\ncutoff iteration: {iters} rounds, residual {resid:.3g}")
    print(f"cutoffs: {[round(c, 1) for c in cutoffs.tolist()]}")

    # every school, by utility, the lower school id on ties
    complete = ranked_lists(applicants.utility, np.full(len(applicants), -np.inf))
    merit = set(run_meritocratic_boston(scenario.schools, applicants, complete, lottery_rng).ids.tolist())
    dictator = set(run_serial_dictatorship_da(scenario.schools, applicants, complete, lottery_rng).ids.tolist())
    print(f"\ncomplete lists: merit-capped Boston admits {len(merit)}, serial dictatorship {len(dictator)}")
    print(f"merit-capped Boston and serial dictatorship admit the same set on complete lists: {merit == dictator}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
