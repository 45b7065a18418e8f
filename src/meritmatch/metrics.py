"""Outcome statistics and panel construction from yearly assignments.

Produces the per-year outcome series (first-choice share for the top school,
mean enrollment distance, urban entrant share) and the prefecture-by-year
panels used for estimation, plus their CSV forms. A year outcome is a
`YearOutcome` from simulation to estimator: `year_outcomes.csv` is read back
as the (seed, YearOutcome) rows it was written from. A panel is a dict of
column arrays, built from the year records' entrant counts and read back from
CSV in the form the estimators take: each panel file in one C-level
`np.loadtxt` parse, as read-only columns. Enrollment distance is birth
prefecture to school prefecture throughout. Distance bands are
exclusive: "located in" means distance zero, "within 100 km" means strictly
between 0 and 100 km.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

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


def panel_grid(years: Sequence[int], n_prefectures: int) -> dict[str, np.ndarray]:
    """The `year` and `prefecture_id` columns of one seed's panel: every
    (year, prefecture) pair, year-major, both ascending."""
    return {
        "prefecture_id": np.tile(np.arange(n_prefectures, dtype=np.int64), len(years)),
        "year": np.repeat(np.asarray(years, dtype=np.int64), n_prefectures),
    }


def build_panel(
    records: Sequence[YearRecord],
    prefectures: Sequence[Prefecture],
    schools: Sequence[School],
) -> dict[int | None, dict[str, np.ndarray]]:
    """One seed's panels as estimator columns over `panel_grid`: the
    all-schools panel under `None`, then one panel per school id, ascending.

    Entrants and the 0/1 flags are float columns. Requires years under both a
    centralized and a decentralized rule, since the panels exist to contrast
    the two.
    """
    kinds = {r.regime for r in records}
    if not any(k.is_centralized for k in kinds) or not any(not k.is_centralized for k in kinds):
        raise DomainError("panel requires years under both centralized and decentralized rules")
    records = sorted(records, key=lambda r: r.year)
    years = [r.year for r in records]
    if len(set(years)) != len(years):
        raise DomainError("duplicate years in panel records")

    school_ids = sorted(s.id for s in schools)
    host = {s.id: s.prefecture_id for s in schools}
    dmat = distance_matrix(prefectures)
    tokyo = next(p.id for p in prefectures if p.name == "Tokyo")
    is_tokyo = np.arange(len(prefectures)) == tokyo
    near_tokyo = (0.0 < dmat[:, tokyo]) & (dmat[:, tokyo] <= 100.0)
    # the last axis runs over the panels, all schools first
    to_school = dmat[:, [host[s] for s in school_ids]]
    dist = np.column_stack([to_school.min(axis=1), to_school])  # (prefecture, panel): to the (nearest) school
    by_school = np.stack([r.entrants for r in records])  # (year, prefecture, school)
    entrants = np.concatenate([by_school.sum(axis=2, keepdims=True), by_school], axis=2)

    def per_prefecture(flag: np.ndarray) -> np.ndarray:
        return np.tile(flag.astype(float), len(years))

    shared = {
        **panel_grid(years, len(prefectures)),
        "centralized": np.repeat([float(r.regime.is_centralized) for r in records], len(prefectures)),
        "tokyo": per_prefecture(is_tokyo),
        "near_tokyo": per_prefecture(near_tokyo),
        "tokyo_area": per_prefecture(is_tokyo | near_tokyo),
        "middle_school_grads": np.stack([r.cohort for r in records]).ravel().astype(float),
    }
    return {
        key: {
            **shared,
            "entrants": entrants[:, :, k].ravel().astype(float),
            "located_in": per_prefecture(dist[:, k] == 0.0),
            "within_100km": per_prefecture((0.0 < dist[:, k]) & (dist[:, k] <= 100.0)),
        }
        for k, key in enumerate([None, *school_ids])
    }


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

PANEL_FLAGS = ("centralized", "located_in", "within_100km", "tokyo", "near_tokyo")

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


def write_panel_csv(
    path: str | Path,
    panels: Mapping[int, Mapping[str, np.ndarray]],
    school_id: int | None = None,
) -> None:
    """Write one panel (`build_panel`'s `school_id` key) of each seed, seeds in
    the mapping's order; the all-schools panel has an empty school_id."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PANEL_COLUMNS)
        for seed, cols in panels.items():
            n = len(cols["year"])
            writer.writerows(
                zip(
                    [seed] * n,
                    cols["prefecture_id"].tolist(),
                    cols["year"].tolist(),
                    [_fmt(school_id)] * n,
                    *(cols[c].astype(np.int64).tolist() for c in ("entrants",) + PANEL_FLAGS),
                    cols["middle_school_grads"].tolist(),
                )
            )


def read_panel_csv(path: str | Path, school_id: int | None = None) -> dict[int, dict[str, np.ndarray]]:
    """Read back a panel CSV written for `school_id` as `build_panel` columns
    per seed, seeds in file order; the columns are read-only.

    The rows are parsed in one `np.loadtxt` call into a structured array, so no
    Python object is made per field. A wrong header, a row without exactly the
    panel's fields, a malformed value (an integer column written as a float
    included), another school_id or a seed whose rows are not contiguous is a
    DomainError.
    """
    data = Path(path).read_bytes()
    body = io.BytesIO(data)  # shares the bytes of `data`
    header = body.readline().decode(errors="replace").rstrip("\r\n")
    if header.split(",") != PANEL_COLUMNS:
        raise DomainError(f"panel file must have columns {PANEL_COLUMNS}, got {header!r}")
    start = body.tell()
    if start == len(data):
        return {}
    expected_id = _fmt(school_id)
    # school_id one character wider than the expected id, so a longer id cannot be truncated into a match
    kinds = {"school_id": f"U{len(expected_id) + 1}", "middle_school_grads": float}
    dtype = [(name, kinds.get(name, np.int64)) for name in PANEL_COLUMNS]
    try:
        with warnings.catch_warnings():
            # numpy 1.x only warns (DeprecationWarning) when it parses an integer field via float
            warnings.simplefilter("error")
            table = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)
    except (ValueError, Warning) as exc:
        raise DomainError(f"{path}: {exc}") from exc
    if len(table) != data.count(b"\n", start) + (not data.endswith(b"\n")):  # loadtxt skips blank lines
        raise DomainError(f"{path}: every row must have {len(PANEL_COLUMNS)} fields")
    if np.any(table["school_id"] != expected_id):
        raise DomainError(f"{path}: school_id must be {expected_id!r} in every row")
    for name in PANEL_FLAGS:
        if np.any((table[name] != 0) & (table[name] != 1)):
            raise DomainError(f"{path}: {name} must be 0 or 1")

    cols = {name: table[name].copy() for name in ("prefecture_id", "year")}
    cols.update({name: table[name].astype(float) for name in ("entrants",) + PANEL_FLAGS})
    cols["tokyo_area"] = np.maximum(cols["tokyo"], cols["near_tokyo"])
    cols["middle_school_grads"] = table["middle_school_grads"].copy()
    for col in cols.values():
        col.flags.writeable = False

    seed = table["seed"]
    starts = [0, *(np.flatnonzero(seed[1:] != seed[:-1]) + 1).tolist()]
    if len(set(seed[starts].tolist())) != len(starts):
        raise DomainError(f"{path}: the rows of each seed must be contiguous")
    return {
        int(seed[a]): {name: col[a:b] for name, col in cols.items()}
        for a, b in zip(starts, starts[1:] + [len(seed)])
    }


def read_year_outcomes_csv(path: str | Path) -> list[tuple[int, YearOutcome]]:
    """Read back the (seed, outcome) rows that `write_year_outcomes_csv` wrote,
    in file order. A wrong header, a row without exactly the header's fields,
    an unparsable value or a second row for one (seed, year) is a DomainError
    naming the line."""
    rows: list[tuple[int, YearOutcome]] = []
    seen: set[tuple[int, int]] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != YEAR_OUTCOME_COLUMNS:
            raise DomainError(f"outcome file must have columns {YEAR_OUTCOME_COLUMNS}, got {header}")
        for rec in reader:
            where = f"{path}, line {reader.line_num}"
            if len(rec) != len(YEAR_OUTCOME_COLUMNS):
                raise DomainError(f"{where}: every row must have {len(YEAR_OUTCOME_COLUMNS)} fields")
            seed, year, regime, *statistics, entrants, unassigned = rec
            try:  # an empty statistic is a missing one
                stats = (float(v) if v else None for v in statistics)
                row = int(seed), YearOutcome(int(year), RegimeKind(regime), *stats, int(entrants), int(unassigned))
            except ValueError as exc:
                raise DomainError(f"{where}: {exc}") from exc
            key = (row[0], row[1].year)
            if key in seen:
                raise DomainError(f"{where}: a second row for seed {key[0]}, year {key[1]}")
            seen.add(key)
            rows.append(row)
    return rows
