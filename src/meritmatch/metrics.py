"""Outcome statistics and panel construction from yearly assignments.

Produces the per-year outcome series (first-choice share for the top school,
mean enrollment distance, urban entrant share) and the prefecture-by-year
panels used for estimation, plus their CSV forms. A year outcome is a
`YearOutcome` from simulation to estimator: `year_outcomes.csv` is read back
as the (seed, YearOutcome) rows it was written from. Every row CSV (year
outcomes, regressions, the `diff-regimes` output) is written by `write_rows`:
each row is its dataclass's fields in order, behind the seed for a year
outcome, and the header is their names. Every row CSV read back, the year
outcomes here and the geography and school CSVs in `config`, is read by
`read_rows`. `build_panel` forms every panel column from a seed's entrant
and graduate counts and the `Scenario`: in the metrics stage from the
simulated counts, in the estimate stage from those read back. A panel file
is read back whole, in one C-level `np.loadtxt` parse, as read-only columns
over all of its rows, seed included. A panel CSV row holds the
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
from typing import IO, Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import MAX_KM, Assignment, Cohort, DomainError, RegimeKind, distance_matrix, panel_grid
from .mechanisms import Applications
from .popgen import _MAX_COHORT, Scenario


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
# the largest value of each statistic read back: two shares, and a mean of distances between prefectures
_STATISTIC_TOPS = (1.0, MAX_KM, 1.0)


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
        births = cohort.birth[assignment.ids]
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


def year_counts(assignment: Assignment, cohort: Cohort, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """One year's rows of `build_panel`'s counts: entrants by (birth
    prefecture, school), schools by id, and applicants by birth prefecture,
    the graduate proxy."""
    n_prefs, n_schools = scenario.school_km.shape
    cell = cohort.birth[assignment.ids] * n_schools + (assignment.school_ids - 1)
    entrants = np.bincount(cell, minlength=n_prefs * n_schools).reshape(n_prefs, n_schools)
    return entrants, np.bincount(cohort.birth, minlength=n_prefs)


def build_panel(
    entrants: np.ndarray, graduates: np.ndarray, scenario: Scenario
) -> dict[int | None, dict[str, np.ndarray]]:
    """One seed's panels as estimator columns over `panel_grid`: the
    all-schools panel under `None`, then one panel per school id, ascending.
    `entrants` counts by (year, birth prefecture, school) and `graduates` by
    (year, prefecture), years as in `scenario.schedule`, ascending.

    The only code that forms a panel column. Entrants and the 0/1 flags are
    float columns; `tokyo_area` is `scenario.urban`, and `near_tokyo` is that
    without Tokyo. Every column is read-only: a seed's panels share all but
    their `PER_PANEL_COLUMNS`. Requires years under both a centralized and a
    decentralized rule, since the panels exist to contrast the two.
    """
    schedule = scenario.schedule
    if {r.kind.is_centralized for r in schedule} != {False, True}:
        raise DomainError("panel requires years under both centralized and decentralized rules")
    n_prefs, n_schools = scenario.school_km.shape
    # the last axis runs over the panels, all schools first; `to_school` is
    # `scenario.school_km`, recomputed while bench/tracer.py counts this call
    to_school = distance_matrix(scenario.prefectures)[:, scenario.hosts]
    dist = np.column_stack([to_school.min(axis=1), to_school])  # (prefecture, panel): to the (nearest) school
    counts = np.concatenate([entrants.sum(axis=2, keepdims=True), entrants], axis=2)  # (year, prefecture, panel)

    def per_prefecture(flag: np.ndarray) -> np.ndarray:
        return np.tile(flag.astype(float), len(schedule))

    shared = {
        **panel_grid([r.year for r in schedule], n_prefs),
        "centralized": np.repeat([float(r.kind.is_centralized) for r in schedule], n_prefs),
        "tokyo": per_prefecture(scenario.tokyo),
        "near_tokyo": per_prefecture(scenario.urban & ~scenario.tokyo),
        "tokyo_area": per_prefecture(scenario.urban),
        "middle_school_grads": graduates.ravel().astype(float),
    }
    panels = {
        key: {
            **shared,
            "entrants": counts[:, :, k].ravel().astype(float),
            "located_in": per_prefecture(dist[:, k] == 0.0),
            "within_100km": per_prefecture((0.0 < dist[:, k]) & (dist[:, k] <= 100.0)),
        }
        for k, key in enumerate([None, *range(1, n_schools + 1)])
    }
    for cols in panels.values():
        for col in cols.values():
            col.flags.writeable = False
    return panels


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


def read_panel_csv(path: str | Path, school_id: int | None = None) -> dict[str, np.ndarray]:
    """Read back a panel CSV written for `school_id` as the columns it holds
    but school_id, over all of its rows, in file order: a uint64 `seed`,
    int64 `prefecture_id` and `year`, and the rest float, as `build_panel`
    forms them. The columns are read-only, and a file without rows gives
    zero-length ones.

    The rows are parsed in one `np.loadtxt` call into a structured array, so no
    Python object is made per field. A wrong header, a row without exactly the
    panel's fields, a malformed value (an integer column written as a float
    included, a seed outside 0..2^64-1), another school_id, a flag other than
    0 or 1 and a count (entrants, middle_school_grads) that is not a whole
    number of applicants in 0..`_MAX_COHORT` is a DomainError. Which seeds
    and values the rows must hold is the reader's caller's to check.
    """
    data = Path(path).read_bytes()
    body = io.BytesIO(data)  # shares the bytes of `data`
    header = body.readline().decode(errors="replace").rstrip("\r\n")
    if header.split(",") != PANEL_COLUMNS:
        raise DomainError(f"panel file must have columns {PANEL_COLUMNS}, got {header!r}")
    start = body.tell()
    expected_id = _fmt(school_id)
    # school_id one character wider than the expected id, so a longer id cannot be truncated into a match
    kinds = {"seed": np.uint64, "school_id": f"U{len(expected_id) + 1}", "middle_school_grads": float}
    table = np.zeros(0, [(name, kinds.get(name, np.int64)) for name in PANEL_COLUMNS])
    if start < len(data):
        try:
            with warnings.catch_warnings():
                # numpy 1.x only warns (DeprecationWarning) when it parses an integer field via float
                warnings.simplefilter("error")
                table = np.loadtxt(body, dtype=table.dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)
        except (ValueError, Warning) as exc:
            raise DomainError(f"{path}: {exc}") from exc
        if len(table) != data.count(b"\n", start) + (not data.endswith(b"\n")):  # loadtxt skips blank lines
            raise DomainError(f"{path}: every row must have {len(PANEL_COLUMNS)} fields")
    if np.any(table["school_id"] != expected_id):
        raise DomainError(f"{path}: school_id must be {expected_id!r} in every row")
    for name in PANEL_FLAGS:
        if np.any((table[name] != 0) & (table[name] != 1)):
            raise DomainError(f"{path}: {name} must be 0 or 1")
    for name in ("entrants", "middle_school_grads"):  # no year has more applicants; NaN fails every comparison
        count = table[name]
        if not np.all((0 <= count) & (count <= _MAX_COHORT) & (count == np.floor(count))):
            raise DomainError(f"{path}: {name} must be a whole number in 0..{_MAX_COHORT}")

    cols = {name: table[name].copy() for name in ("seed", "prefecture_id", "year", "middle_school_grads")}
    cols.update({name: table[name].astype(float) for name in ("entrants",) + PANEL_FLAGS})
    for col in cols.values():
        col.flags.writeable = False
    return cols


def read_rows(
    path: str | Path, header: list[str], convert: Callable[[list[str]], object], what: str, error=DomainError
) -> list:
    """`convert` of each row of the CSV file at `path` below `header`, in file
    order, blank lines skipped. Another first row, a row without one field
    per column, a ValueError from `convert` and a file that does not decode
    or parse as CSV are each an `error` (a DomainError class) naming the
    file: `what` it is, or its path and the row's line."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = filter(None, reader)
            first = next(rows, None)
            if first != header:
                raise error(f"{what} file must have columns {header}, got {first}")
            out = []
            for rec in rows:
                try:
                    if len(rec) != len(header):
                        raise ValueError(f"every row must have {len(header)} fields")
                    out.append(convert(rec))
                except ValueError as exc:
                    raise error(f"{path}, line {reader.line_num}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc
    return out


def read_year_outcomes_csv(path: str | Path) -> list[tuple[int, YearOutcome]]:
    """Read back the (seed, outcome) rows that `write_year_outcomes_csv` wrote,
    in file order, by `read_rows`. An unparsable value, a statistic that is
    NaN or infinite (the writer leaves a missing one empty) or outside its
    range, a count outside 0..`_MAX_COHORT` or a second row for one (seed,
    year) is a DomainError naming the line."""
    seen: set[tuple[int, int]] = set()

    def convert(rec: list[str]) -> tuple[int, YearOutcome]:
        seed, year, regime, *statistics, entrants, unassigned = rec
        stats = [float(v) if v else None for v in statistics]  # empty: missing
        row = int(seed), YearOutcome(int(year), RegimeKind(regime), *stats, int(entrants), int(unassigned))
        for name, value, top in zip(OUTCOME_STATISTICS, stats, _STATISTIC_TOPS):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value is not None and not 0 <= value <= top:
                raise ValueError(f"{name} must be in 0..{top:g}, got {value!r}")
        if not (0 <= row[1].entrants_total <= _MAX_COHORT and 0 <= row[1].unassigned_total <= _MAX_COHORT):
            raise ValueError(f"entrants_total and unassigned_total must be in 0..{_MAX_COHORT}")
        key = row[0], row[1].year
        if key in seen:
            raise ValueError(f"a second row for seed {key[0]}, year {key[1]}")
        seen.add(key)
        return row

    return read_rows(path, YEAR_OUTCOME_COLUMNS, convert, "outcome")
