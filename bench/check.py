"""Artifact checker for one `meritmatch run` output directory.

Recomputes what the CSV artifacts must satisfy from the artifacts themselves
and the resolved scenario in `manifest.lock`, without importing `meritmatch`:

- panel entrants summed per (seed, year) equal `entrants_total`;
- per-school entrants per (seed, year) stay within the lockfile capacities,
  and the school panels add up to the all-schools panel;
- `mean_enrollment_distance_km` and `tokyo_area_entrant_share` follow from
  the school panels and the lockfile coordinates (`math.hypot`);
- the panels' `centralized` flag matches the regime of each year;
- `did_tokyo_area` re-estimated per seed by dummy-variable OLS in numpy
  matches `regressions.csv`.

Usage: python3 bench/check.py OUT_DIR [SEED ...]
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

URBAN_RADIUS_KM = 100.0
CENTRALIZED_REGIMES = {"centralized", "grouped_centralized"}
REL_TOL = 1e-12
OLS_REL_TOL = 1e-10


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _dummy_ols_coef(y: np.ndarray, x: np.ndarray, unit: np.ndarray, time: np.ndarray) -> float:
    """Coefficient on x in y ~ x + unit dummies + time dummies (one dropped)."""
    units = np.unique(unit)
    times = np.unique(time)
    cols = [x]
    cols += [(unit == u).astype(float) for u in units]
    cols += [(time == t).astype(float) for t in times[1:]]
    beta, *_ = np.linalg.lstsq(np.column_stack(cols), y, rcond=None)
    return float(beta[0])


def check_artifacts(out_dir: str | Path, seeds: list[int] | None = None) -> list[str]:
    """Every problem found in the artifacts of `out_dir` (empty = correct)."""
    out = Path(out_dir)
    problems: list[str] = []
    lock = json.loads((out / "manifest.lock").read_text())
    config = lock["config"]
    coords = [(float(r[1]), float(r[2])) for r in config["geography"]]
    names = [r[0] for r in config["geography"]]
    tokyo = coords[names.index("Tokyo")]
    urban = [math.hypot(x - tokyo[0], y - tokyo[1]) <= URBAN_RADIUS_KM for x, y in coords]
    host = {int(r[0]): int(r[1]) for r in config["schools"]}
    capacity = {int(r[0]): int(r[2]) for r in config["schools"]}
    years = list(range(config["population"]["year_start"], config["population"]["year_end"] + 1))
    n_prefs = len(coords)

    lock_seeds = list(range(lock["seed"], lock["seed"] + lock["seeds"]))
    if seeds is not None and lock_seeds != list(seeds):
        problems.append(f"manifest.lock seeds {lock_seeds} != expected {list(seeds)}")
    seeds = lock_seeds

    outcomes = {(int(r["seed"]), int(r["year"])): r for r in _read_csv(out / "year_outcomes.csv")}
    if sorted(outcomes) != [(s, y) for s in seeds for y in years]:
        problems.append("year_outcomes.csv does not hold exactly one row per (seed, year)")
        return problems

    all_rows = _read_csv(out / "panel_all.csv")
    entrants_all: dict[tuple[int, int, int], int] = {}
    for r in all_rows:
        entrants_all[(int(r["seed"]), int(r["year"]), int(r["prefecture_id"]))] = int(r["entrants"])
        regime = outcomes[(int(r["seed"]), int(r["year"]))]["regime"]
        if (r["centralized"] == "1") != (regime in CENTRALIZED_REGIMES):
            problems.append(f"panel_all centralized flag disagrees with regime {regime} in {r['seed']}/{r['year']}")
            break
    if len(all_rows) != len(entrants_all) or len(all_rows) != len(seeds) * len(years) * n_prefs:
        problems.append(f"panel_all.csv has {len(all_rows)} rows, expected one per (seed, year, prefecture)")
        return problems

    by_school_pref: dict[tuple[int, int, int], int] = defaultdict(int)  # (seed, year, pref) summed over schools
    by_school: dict[tuple[int, int, int], int] = defaultdict(int)  # (seed, year, school)
    dist_sum: dict[tuple[int, int], float] = defaultdict(float)
    for sid in sorted(host):
        rows = _read_csv(out / f"panel_school_{sid}.csv")
        if len(rows) != len(seeds) * len(years) * n_prefs:
            problems.append(f"panel_school_{sid}.csv has {len(rows)} rows")
            return problems
        hx, hy = coords[host[sid]]
        for r in rows:
            key = (int(r["seed"]), int(r["year"]))
            p, e = int(r["prefecture_id"]), int(r["entrants"])
            by_school_pref[key + (p,)] += e
            by_school[key + (sid,)] += e
            dist_sum[key] += e * math.hypot(coords[p][0] - hx, coords[p][1] - hy)

    for (s, y, sid), e in by_school.items():
        if e > capacity[sid]:
            problems.append(f"seed {s} year {y}: school {sid} admits {e} > capacity {capacity[sid]}")
    if dict(by_school_pref) != entrants_all:
        problems.append("school panels do not add up to the all-schools panel")

    for (s, y), row in outcomes.items():
        total = sum(entrants_all[(s, y, p)] for p in range(n_prefs))
        if total != int(row["entrants_total"]):
            problems.append(f"seed {s} year {y}: panel entrants {total} != entrants_total {row['entrants_total']}")
            continue
        reported_d, reported_u = row["mean_enrollment_distance_km"], row["tokyo_area_entrant_share"]
        if total == 0:
            if reported_d or reported_u:
                problems.append(f"seed {s} year {y}: statistics reported with zero entrants")
            continue
        if not _close(dist_sum[(s, y)] / total, float(reported_d), REL_TOL):
            problems.append(f"seed {s} year {y}: mean distance {dist_sum[(s, y)] / total!r} != {reported_d}")
        urban_share = sum(entrants_all[(s, y, p)] for p in range(n_prefs) if urban[p]) / total
        if not _close(urban_share, float(reported_u), REL_TOL):
            problems.append(f"seed {s} year {y}: tokyo-area share {urban_share!r} != {reported_u}")

    did = {r["seed"]: r for r in _read_csv(out / "regressions.csv") if r["spec_id"] == "did_tokyo_area"}
    per_seed: dict[int, list[dict]] = defaultdict(list)
    for r in all_rows:
        per_seed[int(r["seed"])].append(r)
    for s in seeds:
        if str(s) not in did:
            problems.append(f"regressions.csv has no did_tokyo_area row for seed {s}")
            continue
        rows = per_seed[s]
        y = np.array([float(r["entrants"]) for r in rows])
        area = np.array([r["tokyo"] == "1" or r["near_tokyo"] == "1" for r in rows], dtype=float)
        x = np.array([float(r["centralized"]) for r in rows]) * area
        unit = np.array([int(r["prefecture_id"]) for r in rows])
        time = np.array([int(r["year"]) for r in rows])
        coef = _dummy_ols_coef(y, x, unit, time)
        if not _close(coef, float(did[str(s)]["estimate"]), OLS_REL_TOL):
            problems.append(f"seed {s}: did_tokyo_area {did[str(s)]['estimate']} != dummy OLS {coef!r}")
        if int(did[str(s)]["n_obs"]) != len(rows):
            problems.append(f"seed {s}: did_tokyo_area n_obs {did[str(s)]['n_obs']} != {len(rows)}")
    return problems


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    seeds = [int(s) for s in argv[1:]] or None
    problems = check_artifacts(argv[0], seeds)
    for p in problems:
        print(p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
