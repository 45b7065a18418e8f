"""Outcome statistics and panel construction from yearly assignments.

Produces the per-year outcome series (first-choice share for the top school,
mean enrollment distance, urban entrant share) and the prefecture-by-year
panels used for estimation, plus their CSV forms. Enrollment distance is
birth prefecture to school prefecture throughout. Distance bands are
exclusive: "located in" means distance zero, "within 100 km" means strictly
between 0 and 100 km.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Applicant, Assignment, Cohort, DomainError, Prefecture, RegimeKind, School, distance_matrix
from .mechanisms import Applications, PreferenceList, SingleApplication


@dataclass(frozen=True)
class YearOutcome:
    year: int
    regime: RegimeKind
    share_first_choice_school1: float | None  # None when nobody applied
    mean_enrollment_distance_km: float | None  # None when nobody was placed
    tokyo_area_entrant_share: float | None  # None when nobody was placed
    entrants_total: int
    unassigned_total: int


@dataclass(frozen=True)
class PanelRow:
    prefecture_id: int
    year: int
    school_id: int | None  # None for the all-schools panel
    entrants: int
    centralized: bool
    located_in: bool
    within_100km: bool
    tokyo: bool
    near_tokyo: bool
    middle_school_grads: float


@dataclass(frozen=True)
class YearRecord:
    """One simulated year as the panel builder reads it (see `year_record`)."""

    year: int
    regime: RegimeKind
    entrants: np.ndarray  # (P, S) int: entrants by birth prefecture id and school, schools by id
    cohort: np.ndarray  # (P,) int: applicants by birth prefecture id (graduate proxy)


def _entrant_births(assignment: Assignment, cohort: Cohort) -> np.ndarray:
    """Birth prefecture of each placed applicant, in admission order."""
    ids = np.fromiter(assignment.placed, dtype=np.int64, count=len(assignment.placed))
    return cohort.birth[cohort.rows(ids)]


def year_outcome(
    applications: Applications | Sequence[PreferenceList] | Sequence[SingleApplication],
    assignment: Assignment,
    prefectures: Sequence[Prefecture],
    schools: Sequence[School],
    cohort: Cohort | Sequence[Applicant],
    year: int,
    regime: RegimeKind,
    distances: np.ndarray | None = None,
) -> YearOutcome:
    """Outcome statistics for one year.

    The first-choice share is taken over submitted applications (the first
    list entry, or the single application). Distance and the urban share are
    taken over placed applicants, summed in admission order; with zero
    entrants they are reported as missing rather than zero. `distances` is
    `distance_matrix(prefectures)`, if already computed.
    """
    apps = Applications.of(applications)
    n_apps = len(apps)
    share_first = None
    if n_apps:
        share_first = int(np.count_nonzero(apps.schools[:, :1] == 1)) / n_apps

    host = {s.id: s.prefecture_id for s in schools}
    dmat = distance_matrix(prefectures) if distances is None else distances
    urban = {p.id: p.urban for p in prefectures}

    dist_sum = 0.0
    urban_count = 0
    n_placed = len(assignment.placed)
    births = _entrant_births(assignment, Cohort.of(cohort)).tolist()
    for b, placement in zip(births, assignment.placed.values()):
        dist_sum += dmat[b, host[placement.school_id]]
        urban_count += urban[b]
    mean_dist = float(dist_sum / n_placed) if n_placed else None
    tokyo_share = urban_count / n_placed if n_placed else None

    return YearOutcome(
        year=year,
        regime=regime,
        share_first_choice_school1=share_first,
        mean_enrollment_distance_km=mean_dist,
        tokyo_area_entrant_share=tokyo_share,
        entrants_total=n_placed,
        unassigned_total=len(assignment.unassigned),
    )


def year_record(
    assignment: Assignment,
    cohort: Cohort | Sequence[Applicant],
    prefectures: Sequence[Prefecture],
    schools: Sequence[School],
    year: int,
    regime: RegimeKind,
) -> YearRecord:
    """Count one year's entrants per (birth prefecture, school) and its
    cohort per prefecture."""
    cohort = Cohort.of(cohort)
    school_ids = np.array(sorted(s.id for s in schools))
    placed_at = np.fromiter((p.school_id for p in assignment.placed.values()), dtype=np.int64, count=len(assignment.placed))
    entrants = np.zeros((len(prefectures), len(schools)), dtype=np.int64)
    np.add.at(entrants, (_entrant_births(assignment, cohort), np.searchsorted(school_ids, placed_at)), 1)
    counts = np.bincount(cohort.birth, minlength=len(prefectures))
    return YearRecord(year=year, regime=regime, entrants=entrants, cohort=counts)


def build_panel(
    records: Sequence[YearRecord],
    prefectures: Sequence[Prefecture],
    schools: Sequence[School],
) -> list[PanelRow]:
    """Panel rows for every (prefecture, year) and (prefecture, year, school).

    Requires years under both a centralized and a decentralized rule, since
    the panels exist to contrast the two.
    """
    kinds = {r.regime for r in records}
    if not any(k.is_centralized for k in kinds) or not any(not k.is_centralized for k in kinds):
        raise DomainError("panel requires years under both centralized and decentralized rules")
    years = [r.year for r in records]
    if len(set(years)) != len(years):
        raise DomainError("duplicate years in panel records")

    prefs_sorted = sorted(prefectures, key=lambda p: p.id)
    schools_sorted = sorted(schools, key=lambda s: s.id)
    dmat = distance_matrix(prefectures)
    host = {s.id: s.prefecture_id for s in schools_sorted}
    tokyo = next(p for p in prefs_sorted if p.name == "Tokyo")

    school_dist = {s.id: dmat[:, host[s.id]] for s in schools_sorted}
    nearest = np.min(np.stack([school_dist[s.id] for s in schools_sorted]), axis=0)
    d_tokyo = dmat[:, tokyo.id]

    rows: list[PanelRow] = []
    for rec in sorted(records, key=lambda r: r.year):
        centralized = rec.regime.is_centralized
        entrants = rec.entrants.tolist()
        for p in prefs_sorted:
            grads = float(rec.cohort[p.id])
            rows.append(
                PanelRow(
                    prefecture_id=p.id,
                    year=rec.year,
                    school_id=None,
                    entrants=sum(entrants[p.id]),
                    centralized=centralized,
                    located_in=bool(nearest[p.id] == 0.0),
                    within_100km=bool(0.0 < nearest[p.id] <= 100.0),
                    tokyo=p.id == tokyo.id,
                    near_tokyo=bool(0.0 < d_tokyo[p.id] <= 100.0),
                    middle_school_grads=grads,
                )
            )
            for k, s in enumerate(schools_sorted):
                d = school_dist[s.id][p.id]
                rows.append(
                    PanelRow(
                        prefecture_id=p.id,
                        year=rec.year,
                        school_id=s.id,
                        entrants=entrants[p.id][k],
                        centralized=centralized,
                        located_in=bool(d == 0.0),
                        within_100km=bool(0.0 < d <= 100.0),
                        tokyo=p.id == tokyo.id,
                        near_tokyo=bool(0.0 < d_tokyo[p.id] <= 100.0),
                        middle_school_grads=grads,
                    )
                )
    return rows


# -- CSV emission --------------------------------------------------------------

YEAR_OUTCOME_COLUMNS = [
    "seed",
    "year",
    "regime",
    "share_first_choice_school1",
    "mean_enrollment_distance_km",
    "tokyo_area_entrant_share",
    "entrants_total",
    "unassigned_total",
]

PANEL_COLUMNS = [
    "seed",
    "prefecture_id",
    "year",
    "school_id",
    "entrants",
    "centralized",
    "located_in",
    "within_100km",
    "tokyo",
    "near_tokyo",
    "middle_school_grads",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_year_outcomes_csv(path: str | Path, rows: Sequence[tuple[int, YearOutcome]]) -> None:
    """Write (seed, outcome) rows; missing statistics become empty fields."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(YEAR_OUTCOME_COLUMNS)
        for seed, out in rows:
            writer.writerow(
                [
                    seed,
                    out.year,
                    out.regime.value,
                    _fmt(out.share_first_choice_school1),
                    _fmt(out.mean_enrollment_distance_km),
                    _fmt(out.tokyo_area_entrant_share),
                    out.entrants_total,
                    out.unassigned_total,
                ]
            )


def write_panel_csv(path: str | Path, rows: Sequence[tuple[int, PanelRow]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PANEL_COLUMNS)
        for seed, row in rows:
            writer.writerow(
                [
                    seed,
                    row.prefecture_id,
                    row.year,
                    _fmt(row.school_id),
                    row.entrants,
                    _fmt(row.centralized),
                    _fmt(row.located_in),
                    _fmt(row.within_100km),
                    _fmt(row.tokyo),
                    _fmt(row.near_tokyo),
                    _fmt(row.middle_school_grads),
                ]
            )


def read_panel_csv(path: str | Path) -> tuple[list[int], list[PanelRow]]:
    """Read back a panel CSV; returns (seeds, rows) aligned by index."""
    seeds: list[int] = []
    rows: list[PanelRow] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != PANEL_COLUMNS:
            raise DomainError(f"panel file must have columns {PANEL_COLUMNS}, got {reader.fieldnames}")
        for rec in reader:
            seeds.append(int(rec["seed"]))
            rows.append(
                PanelRow(
                    prefecture_id=int(rec["prefecture_id"]),
                    year=int(rec["year"]),
                    school_id=int(rec["school_id"]) if rec["school_id"] else None,
                    entrants=int(rec["entrants"]),
                    centralized=rec["centralized"] == "1",
                    located_in=rec["located_in"] == "1",
                    within_100km=rec["within_100km"] == "1",
                    tokyo=rec["tokyo"] == "1",
                    near_tokyo=rec["near_tokyo"] == "1",
                    middle_school_grads=float(rec["middle_school_grads"]),
                )
            )
    return seeds, rows


def read_year_outcomes_csv(path: str | Path) -> list[dict]:
    """Read back the year-outcome series as dicts with typed fields."""
    out: list[dict] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != YEAR_OUTCOME_COLUMNS:
            raise DomainError(f"outcome file must have columns {YEAR_OUTCOME_COLUMNS}, got {reader.fieldnames}")
        for rec in reader:
            out.append(
                {
                    "seed": int(rec["seed"]),
                    "year": int(rec["year"]),
                    "regime": RegimeKind(rec["regime"]),
                    "share_first_choice_school1": float(rec["share_first_choice_school1"]) if rec["share_first_choice_school1"] else None,
                    "mean_enrollment_distance_km": float(rec["mean_enrollment_distance_km"]) if rec["mean_enrollment_distance_km"] else None,
                    "tokyo_area_entrant_share": float(rec["tokyo_area_entrant_share"]) if rec["tokyo_area_entrant_share"] else None,
                    "entrants_total": int(rec["entrants_total"]),
                    "unassigned_total": int(rec["unassigned_total"]),
                }
            )
    return out


def panel_to_columns(rows: Sequence[PanelRow]) -> dict[str, np.ndarray]:
    """Column arrays for the estimators, with float indicator columns."""
    return {
        "prefecture_id": np.array([r.prefecture_id for r in rows], dtype=np.int64),
        "year": np.array([r.year for r in rows], dtype=np.int64),
        "entrants": np.array([r.entrants for r in rows], dtype=float),
        "centralized": np.array([float(r.centralized) for r in rows]),
        "located_in": np.array([float(r.located_in) for r in rows]),
        "within_100km": np.array([float(r.within_100km) for r in rows]),
        "tokyo": np.array([float(r.tokyo) for r in rows]),
        "near_tokyo": np.array([float(r.near_tokyo) for r in rows]),
        "tokyo_area": np.array([float(r.tokyo or r.near_tokyo) for r in rows]),
        "middle_school_grads": np.array([r.middle_school_grads for r in rows]),
    }
