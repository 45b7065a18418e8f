"""Outcome statistics and panel construction from yearly assignments.

Produces the per-year outcome series (first-choice share for the top school,
mean enrollment distance, urban entrant share) and the prefecture-by-year
panels used for estimation, plus their CSV forms. A year outcome is a
`YearOutcome` from simulation to estimator: `year_outcomes.csv` is read back
as the (seed, YearOutcome) rows it was written from. Every row CSV (year
outcomes, regressions, the `diff-regimes` output) is written by `write_rows`:
each row is its dataclass's fields in order, behind the seed for a year
outcome, and the header is their names. A panel is a dict of
column arrays, built from the year records' entrant counts and read back from
CSV in the form the estimators take: each panel file in one C-level
`np.loadtxt` parse, as read-only columns. A panel CSV row holds the
`PANEL_COLUMNS` in order, comma-separated, unquoted and CRLF-terminated:
integers for the seed, prefecture id and year, the school id (empty in the
all-schools panel), integers for entrants and the 0/1 flags, and the float
`repr` of the graduate count. The year and panel builders take the
`Scenario` and read its id-ordered arrays, so a school's column is its id
minus one: the Tokyo flags and the urban entrant share read `urban`
(`Prefecture.urban`), and enrollment distance, birth prefecture to school
prefecture throughout, reads `school_km`. Distance bands are exclusive:
"located in" means distance zero, "within 100 km" means strictly between 0
and 100 km.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .core import Assignment, Cohort, DomainError, RegimeKind, distance_matrix
from .mechanisms import Applications
from .popgen import Scenario


@dataclass(frozen=True)
class YearOutcome:
    year: int
    regime: RegimeKind
    share_first_choice_school1: float | None  # None when nobody applied
    mean_enrollment_distance_km: float | None  # None when nobody was placed
    tokyo_area_entrant_share: float | None  # None when nobody was placed
    entrants_total: int
    unassigned_total: int


# the YearOutcome fields that are statistics of the year, each missing (None) in a year without applicants or entrants
OUTCOME_STATISTICS = ("share_first_choice_school1", "mean_enrollment_distance_km", "tokyo_area_entrant_share")


@dataclass(frozen=True)
class YearRecord:
    """One simulated year as the panel builder reads it (see `year_record`)."""

    year: int
    regime: RegimeKind
    entrants: np.ndarray  # (P, S) int: entrants by birth prefecture id and school, schools by id
    cohort: np.ndarray  # (P,) int: applicants by birth prefecture id (graduate proxy)


def _entrant_births(assignment: Assignment, cohort: Cohort) -> np.ndarray:
    """Birth prefecture of each placed applicant, in admission order."""
    return cohort.birth[cohort.rows(assignment.ids)]


def year_outcome(
    apps: Applications, assignment: Assignment, scenario: Scenario, cohort: Cohort, year: int, regime: RegimeKind
) -> YearOutcome:
    """Outcome statistics for one year of `scenario`.

    The first-choice share is taken over submitted applications (the first
    list entry, or the single application). Distance and the urban share are
    taken over placed applicants; with zero entrants they are reported as
    missing rather than zero. Distances are read from `scenario.school_km`
    and summed left to right in admission order, by `np.cumsum`, whose last
    element is that sequential sum (the pairwise `np.sum` rounds differently).
    """
    n_apps = len(apps)
    share_first = None
    if n_apps:
        share_first = int(np.count_nonzero(apps.schools[:, :1] == 1)) / n_apps

    n_placed = len(assignment.ids)
    mean_dist = tokyo_share = None
    if n_placed:
        births = _entrant_births(assignment, cohort)
        mean_dist = float(np.cumsum(scenario.school_km[births, assignment.school_ids - 1])[-1] / n_placed)
        tokyo_share = int(np.count_nonzero(scenario.urban[births])) / n_placed

    return YearOutcome(
        year=year,
        regime=regime,
        share_first_choice_school1=share_first,
        mean_enrollment_distance_km=mean_dist,
        tokyo_area_entrant_share=tokyo_share,
        entrants_total=n_placed,
        unassigned_total=len(assignment.unassigned),
    )


def year_record(assignment: Assignment, cohort: Cohort, scenario: Scenario, year: int, regime: RegimeKind) -> YearRecord:
    """Count one year's entrants per (birth prefecture, school) and its
    cohort per prefecture."""
    n_prefs, n_schools = scenario.school_km.shape
    cell = _entrant_births(assignment, cohort) * n_schools + (assignment.school_ids - 1)
    entrants = np.bincount(cell, minlength=n_prefs * n_schools).reshape(n_prefs, n_schools)
    counts = np.bincount(cohort.birth, minlength=n_prefs)
    return YearRecord(year=year, regime=regime, entrants=entrants, cohort=counts)


def panel_grid(years: Sequence[int], n_prefectures: int) -> dict[str, np.ndarray]:
    """The `year` and `prefecture_id` columns of one seed's panel: every
    (year, prefecture) pair, year-major, both ascending."""
    return {
        "prefecture_id": np.tile(np.arange(n_prefectures, dtype=np.int64), len(years)),
        "year": np.repeat(np.asarray(years, dtype=np.int64), n_prefectures),
    }


def build_panel(records: Sequence[YearRecord], scenario: Scenario) -> dict[int | None, dict[str, np.ndarray]]:
    """One seed's panels as estimator columns over `panel_grid`: the
    all-schools panel under `None`, then one panel per school id, ascending.

    Entrants and the 0/1 flags are float columns; `tokyo_area` is
    `scenario.urban`, and `near_tokyo` is that without Tokyo. Requires years
    under both a centralized and a decentralized rule, since the panels exist
    to contrast the two.
    """
    kinds = {r.regime for r in records}
    if not any(k.is_centralized for k in kinds) or not any(not k.is_centralized for k in kinds):
        raise DomainError("panel requires years under both centralized and decentralized rules")
    records = sorted(records, key=lambda r: r.year)
    years = [r.year for r in records]
    if len(set(years)) != len(years):
        raise DomainError("duplicate years in panel records")

    n_prefs, n_schools = scenario.school_km.shape
    # the last axis runs over the panels, all schools first; `to_school` is
    # `scenario.school_km`, recomputed while bench/tracer.py counts this call
    to_school = distance_matrix(scenario.prefectures)[:, scenario.hosts]
    dist = np.column_stack([to_school.min(axis=1), to_school])  # (prefecture, panel): to the (nearest) school
    by_school = np.stack([r.entrants for r in records])  # (year, prefecture, school)
    entrants = np.concatenate([by_school.sum(axis=2, keepdims=True), by_school], axis=2)

    def per_prefecture(flag: np.ndarray) -> np.ndarray:
        return np.tile(flag.astype(float), len(years))

    shared = {
        **panel_grid(years, n_prefs),
        "centralized": np.repeat([float(r.regime.is_centralized) for r in records], n_prefs),
        "tokyo": per_prefecture(scenario.tokyo),
        "near_tokyo": per_prefecture(scenario.urban & ~scenario.tokyo),
        "tokyo_area": per_prefecture(scenario.urban),
        "middle_school_grads": np.stack([r.cohort for r in records]).ravel().astype(float),
    }
    return {
        key: {
            **shared,
            "entrants": entrants[:, :, k].ravel().astype(float),
            "located_in": per_prefecture(dist[:, k] == 0.0),
            "within_100km": per_prefecture((0.0 < dist[:, k]) & (dist[:, k] <= 100.0)),
        }
        for k, key in enumerate([None, *range(1, n_schools + 1)])
    }


# the columns `build_panel` gives each panel of its own; a seed's panels share the rest
PER_PANEL_COLUMNS = ("entrants", "located_in", "within_100km")


# -- CSV emission --------------------------------------------------------------

YEAR_OUTCOME_COLUMNS = ["seed", *(f.name for f in fields(YearOutcome))]

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
    if isinstance(value, RegimeKind):
        return value.value
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_rows(fh: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write `header`, then each row, to `fh` (opened with `newline=""`) as
    CRLF-terminated CSV, every value rendered by `_fmt`: a missing value as an
    empty field, a float as its `repr`, a regime as its value. A row CSV
    (year outcomes, regressions, regime differences) is its row dataclass's
    fields in order, so its header is their names."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)


def write_year_outcomes_csv(path: str | Path, rows: Sequence[tuple[int, YearOutcome]]) -> None:
    """Write (seed, outcome) rows: the seed, then the outcome's fields."""
    with open(path, "w", newline="") as fh:
        write_rows(fh, YEAR_OUTCOME_COLUMNS, ((seed, *astuple(out)) for seed, out in rows))


def write_panel_csv(
    path: str | Path,
    panels: Mapping[int, Mapping[str, np.ndarray]],
    school_id: int | None = None,
) -> None:
    """Write one panel (`build_panel`'s `school_id` key) of each seed, seeds in
    the mapping's order; the all-schools panel has an empty school_id.

    The header and every row end in CRLF. A row is `PANEL_COLUMNS` in order:
    the seed, the prefecture id and the year as integers, the school id
    (empty for the all-schools panel), entrants and the 0/1 flags cast to
    int64, and `middle_school_grads` as the float's `repr`. No field is
    quoted. A seed's rows are one `%`-format string per row, into which the
    seed and school id are written once, repeated for every row and applied
    to the fields in one `%` operation."""
    chunks = [",".join(PANEL_COLUMNS) + "\r\n"]
    sid = _fmt(school_id).replace("%", "%%")
    for seed, cols in panels.items():
        row = f"{str(seed).replace('%', '%%')},%d,%d,{sid},%d,%d,%d,%d,%d,%d,%r\r\n"
        fields = (
            cols["prefecture_id"].tolist(),
            cols["year"].tolist(),
            *(cols[c].astype(np.int64).tolist() for c in ("entrants",) + PANEL_FLAGS),
            cols["middle_school_grads"].tolist(),
        )
        chunks.append(row * len(fields[0]) % tuple(itertools.chain.from_iterable(zip(*fields))))
    with open(path, "w", newline="") as fh:
        fh.write("".join(chunks))


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
    an unparsable value, a statistic that is NaN or infinite (the writer
    leaves a missing one empty) or a second row for one (seed, year) is a
    DomainError naming the line."""
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
                stats = [float(v) if v else None for v in statistics]
                row = int(seed), YearOutcome(int(year), RegimeKind(regime), *stats, int(entrants), int(unassigned))
            except ValueError as exc:
                raise DomainError(f"{where}: {exc}") from exc
            for name, value in zip(OUTCOME_STATISTICS, stats):
                if value is not None and not math.isfinite(value):
                    raise DomainError(f"{where}: {name} must be finite, got {value!r}")
            key = (row[0], row[1].year)
            if key in seen:
                raise DomainError(f"{where}: a second row for seed {key[0]}, year {key[1]}")
            seen.add(key)
            rows.append(row)
    return rows
