"""Admission mechanisms: merit-capped Boston, serial dictatorship, pure Boston,
decentralized single-application, and the grouped two-list variant.

All mechanisms are pure functions from (schools, cohort, submitted
applications, rng) to an Assignment. The schools' ids must be 1..S, in any
order, and school s is index s - 1 of every market array. The cohort is a
`Cohort`, and an applicant's id is its row there; submitted applications are
`Applications`, one row per submitter in cohort row order, holding the
school ids of the list, best first (a single application is a list of
length one). A sequence of `PreferenceList` is accepted too and converted by
`Applications.of`. Ties in exam scores are broken by lottery: `_market`
makes one `rng.generator()` draw per mechanism run, one uniform number per
submitter in row order, and the merit pool and every round use those
numbers. Priority is higher score, then lower draw, then lower row.

An Assignment is arrays from the start (`_assignment`): the decentralized rule
is array code end to end, and the Boston and serial-dictatorship rounds walk
Python lists that collect the admitted market rows, school indices and ranks
in admission order. The unassigned submitters are the rows left unmarked in
a boolean mask over the market, already in row order.

With a single common score priority on the school side, applicant-proposing
deferred acceptance collapses to a serial dictatorship: process applicants in
priority order and give each their best school with a free seat. No school
ever rejects a tentatively held applicant for a later proposer, because every
later proposer has lower priority at every school. `run_serial_dictatorship_da`
is therefore the deferred-acceptance benchmark for this market.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import Assignment, Cohort, DomainError, School, SeededRng, check_groups


@dataclass(frozen=True)
class PreferenceList:
    applicant_id: int
    ranked: tuple[int, ...]  # school ids, most preferred first


@dataclass(frozen=True, eq=False)
class Applications:
    """Submitted applications as arrays, one row per submitter in increasing
    id, the submitter's cohort row: row i is applicant `ids[i]`'s list,
    `schools[i, :lengths[i]]`, most preferred first, padded with 0."""

    ids: np.ndarray  # (m,) int
    schools: np.ndarray  # (m, L) int school ids
    lengths: np.ndarray  # (m,) int

    def __post_init__(self) -> None:
        bad = self.ids[1:] <= self.ids[:-1]
        if bad.any():
            k = int(bad.argmax())
            if self.ids[k] == self.ids[k + 1]:
                raise DomainError(f"applicant {self.ids[k]} submitted more than one application")
            raise DomainError("ids must be in increasing order")

    @classmethod
    def of(cls, apps: "Applications | Sequence[PreferenceList]") -> "Applications":
        """The arrays of `apps` (an Applications is returned as it is)."""
        if isinstance(apps, Applications):
            return apps
        apps = sorted(apps, key=lambda a: a.applicant_id)
        lists = [tuple(a.ranked) for a in apps]
        width = max(map(len, lists), default=0)
        return cls(
            ids=np.array([a.applicant_id for a in apps], dtype=np.int64),
            schools=np.array([r + (0,) * (width - len(r)) for r in lists], dtype=np.int64).reshape(len(lists), width),
            lengths=np.array([len(r) for r in lists], dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[PreferenceList]:
        for i, row, k in zip(self.ids.tolist(), self.schools.tolist(), self.lengths.tolist()):
            yield PreferenceList(applicant_id=i, ranked=tuple(row[:k]))


@dataclass(frozen=True, eq=False)
class MeritPool:
    rows: np.ndarray  # market rows of the pool, in priority order
    cutoff_score: float  # -inf when no submitter is excluded
    lottery_used: bool


# -- shared plumbing ----------------------------------------------------------


@dataclass(frozen=True)
class _Market:
    """One mechanism run's validated input and lottery, rows in cohort order."""

    ids: np.ndarray  # (m,) submitters
    scores: np.ndarray  # (m,)
    ties: np.ndarray  # (m,) lottery draws; lower wins among equal scores
    choice: np.ndarray  # (m, L) school index (id - 1) of each list entry
    lengths: np.ndarray  # (m,)
    caps: np.ndarray  # (S,) by school index


def _priority(scores: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """Row positions in priority order: higher score, lower draw, lower row
    (market rows are in cohort row order). That is `np.lexsort((rows, ties,
    -scores))`, computed as one unstable argsort of the scores, several
    times faster, with only the runs of equal scores then sorted by (draw,
    row)."""
    order = np.argsort(-scores)
    ranked = scores[order]
    same = ranked[1:] == ranked[:-1]
    if same.any():
        in_run = np.zeros(len(order), dtype=bool)
        in_run[:-1] = same
        in_run[1:] |= same
        tied = np.flatnonzero(in_run)
        rows = order[tied]
        order[tied] = rows[np.lexsort((rows, ties[rows], -ranked[tied]))]
    return order


def _market(
    schools: Sequence[School],
    cohort: Cohort,
    apps: Applications | Sequence[PreferenceList],
    rng: SeededRng,
) -> _Market:
    """Check a mechanism's input and draw its lottery: the school ids are
    1..S, every submitter is a row of the cohort (the ids increase, so the
    first and last bound them all), and every list names known schools, each
    at most once. School s is index s - 1 of the market."""
    by_id = sorted(schools, key=lambda s: s.id)
    if not by_id or [s.id for s in by_id] != list(range(1, len(by_id) + 1)):
        raise DomainError(f"school ids must be 1..S, got {[s.id for s in by_id]}")
    apps = Applications.of(apps)
    if len(apps) and not 0 <= apps.ids[0] <= apps.ids[-1] < len(cohort):
        raise DomainError(f"unknown applicant {apps.ids[0] if apps.ids[0] < 0 else apps.ids[-1]}")
    scores = cohort.score[apps.ids]
    lists, width = apps.schools, apps.schools.shape[1]
    choice = lists - 1
    listed = np.arange(width) < apps.lengths[:, None]
    unknown = listed & ((choice < 0) | (choice >= len(by_id)))
    if unknown.any():
        row, col = np.argwhere(unknown)[0]
        raise DomainError(f"applicant {apps.ids[row]} lists unknown school {lists[row, col]}")
    entries = np.sort(np.where(listed, choice, -1 - np.arange(width)), axis=1)
    twice = (entries[:, 1:] == entries[:, :-1]).any(axis=1)
    if twice.any():
        raise DomainError(f"applicant {apps.ids[twice][0]} lists a school twice")
    return _Market(
        ids=apps.ids,
        scores=scores,
        ties=rng.generator().random(len(apps.ids)),
        choice=choice,
        lengths=apps.lengths,
        caps=np.array([s.capacity for s in by_id], dtype=np.int64),
    )


def _assignment(market: _Market, rows: np.ndarray, school: np.ndarray, rank: np.ndarray) -> Assignment:
    """The Assignment placing market rows `rows`, in admission order, at the
    0-based school indices `school` with list ranks `rank`; every other
    submitter is unassigned."""
    unplaced = np.ones(len(market.ids), dtype=bool)
    unplaced[rows] = False
    return Assignment(
        ids=market.ids[rows],
        school_ids=school.astype(np.int64) + 1,
        ranks=rank.astype(np.int64),
        unassigned=market.ids[unplaced],
    )


# -- merit pool ---------------------------------------------------------------


def select_merit_pool(market: _Market) -> MeritPool:
    """The top K submitters in priority order, K = total capacity: by exam
    score, the market's lottery breaking ties at the cutoff. Applicants who
    submitted no list are not ranked."""
    total = int(market.caps.sum())
    if total <= 0:
        raise DomainError(f"total capacity must be positive, got {total}")
    order = _priority(market.scores, market.ties)
    if total >= len(order):
        return MeritPool(rows=order, cutoff_score=float("-inf"), lottery_used=False)
    rows = order[:total]
    cutoff = float(market.scores[rows[-1]])
    return MeritPool(
        rows=rows,
        cutoff_score=cutoff,
        lottery_used=bool(np.count_nonzero(market.scores >= cutoff) > total),
    )


# -- Boston rounds ------------------------------------------------------------


def _boston(market: _Market, merit_capped: bool) -> Assignment:
    """Round r: applicants still held propose, in priority order, to the r-th
    school on their list, and each school admits its proposers in that order
    while seats remain. Exhausted lists leave the applicant unassigned; seats
    are never backfilled. With `merit_capped`, only the merit pool
    (`select_merit_pool`) is held at the start; otherwise every submitter.

    The rounds walk Python lists: on the tiny markets of the exhaustive tests
    a per-round numpy top-k costs several times more, and at full scale both
    take a few milliseconds a year."""
    held = select_merit_pool(market).rows if merit_capped else _priority(market.scores, market.ties)
    lists, lengths, seats = market.choice[held].tolist(), market.lengths[held].tolist(), market.caps.tolist()
    placed = []  # (position in `held`, school index, rank), in admission order
    waiting = range(len(held))
    for r in range(market.choice.shape[1]):
        still = []
        for j in waiting:
            if lengths[j] > r:
                k = lists[j][r]
                if seats[k] > 0:
                    seats[k] -= 1
                    placed.append((j, k, r + 1))
                else:
                    still.append(j)
        waiting = still
    j, k, rank = np.array(placed, dtype=np.intp).reshape(-1, 3).T
    return _assignment(market, held[j], k, rank)


def run_meritocratic_boston(
    schools: Sequence[School],
    cohort: Cohort,
    prefs: Applications | Sequence[PreferenceList],
    rng: SeededRng,
) -> Assignment:
    """Merit-capped Boston: select the merit pool, the top-K submitters by
    score (K = total capacity), then run Boston rounds among them. Submitters
    outside the pool are unassigned regardless of their lists."""
    return _boston(_market(schools, cohort, prefs, rng), merit_capped=True)


def run_immediate_acceptance(
    schools: Sequence[School],
    cohort: Cohort,
    prefs: Applications | Sequence[PreferenceList],
    rng: SeededRng,
) -> Assignment:
    """Pure Boston baseline: identical rounds, no merit-pool restriction."""
    market = _market(schools, cohort, prefs, rng)
    return _boston(market, merit_capped=False)


def run_serial_dictatorship_da(
    schools: Sequence[School],
    cohort: Cohort,
    prefs: Applications | Sequence[PreferenceList],
    rng: SeededRng,
) -> Assignment:
    """Serial dictatorship in score order: each applicant takes the highest
    school on their list with a free seat. Equivalent to applicant-proposing
    deferred acceptance under the market's single common score priority (see
    module docstring). The rank obtained is the list position of the school
    received."""
    market = _market(schools, cohort, prefs, rng)
    order = _priority(market.scores, market.ties)
    lists, lengths, seats = market.choice[order].tolist(), market.lengths[order].tolist(), market.caps.tolist()
    placed = []  # (position in `order`, school index, rank), in admission order
    for j, (listed, length) in enumerate(zip(lists, lengths)):
        for r, k in enumerate(listed[:length], start=1):
            if seats[k] > 0:
                seats[k] -= 1
                placed.append((j, k, r))
                break
    j, k, rank = np.array(placed, dtype=np.intp).reshape(-1, 3).T
    return _assignment(market, order[j], k, rank)


# -- decentralized single-application ----------------------------------------


def _admit_top_per_school(
    school_idx: np.ndarray,
    scores: np.ndarray,
    ties: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Vectorized core of the decentralized regime: each school independently
    admits its top-capacity applicants by (score, tie-break).

    `school_idx` holds 0-based school indices (-1 = did not apply). Returns
    the admitted mask.
    """
    n = school_idx.shape[0]
    n_schools = caps.shape[0]
    admitted = np.zeros(n, dtype=bool)
    idx = np.flatnonzero(school_idx >= 0)
    if not idx.size:
        return admitted
    by_priority = idx[_priority(scores[idx], ties[idx])]
    # grouped by school, stably, in a type narrow enough for numpy's radix sort
    order = by_priority[np.argsort(school_idx[by_priority].astype(np.min_scalar_type(n_schools)), kind="stable")]
    s_sorted = school_idx[order]
    starts = np.searchsorted(s_sorted, np.arange(n_schools), side="left")
    within = np.arange(order.shape[0]) - starts[s_sorted]
    admitted[order[within < caps[s_sorted]]] = True
    return admitted


def run_decentralized(
    schools: Sequence[School],
    cohort: Cohort,
    apps: Applications | Sequence[PreferenceList],
    rng: SeededRng,
) -> Assignment:
    """Each school independently admits its top-capacity applicants by score;
    everyone else is unassigned. Every list holds exactly one school."""
    market = _market(schools, cohort, apps, rng)
    multiple = market.lengths != 1
    if multiple.any():
        raise DomainError(f"applicant {market.ids[multiple][0]} did not apply to exactly one school")
    if not len(market.ids):
        return _assignment(market, *np.zeros((3, 0), dtype=np.intp))
    choice = market.choice[:, 0]
    rows = np.flatnonzero(_admit_top_per_school(choice, market.scores, market.ties, market.caps))
    return _assignment(market, rows, choice[rows], np.ones(len(rows), dtype=np.int64))


# -- grouped centralized (two lists, one school per group) --------------------


def run_grouped_centralized(
    schools: Sequence[School],
    cohort: Cohort,
    grouped_prefs: Applications | Sequence[PreferenceList],
    groups: tuple[frozenset[int], frozenset[int]],
    rng: SeededRng,
) -> Assignment:
    """Merit-capped Boston over lists constrained to at most one school per
    group (so at most two entries)."""
    check_groups(groups, (s.id for s in schools))
    apps = Applications.of(grouped_prefs)
    listed = np.arange(apps.schools.shape[1]) < apps.lengths[:, None]
    for g in groups:
        hits = np.count_nonzero(listed & np.isin(apps.schools, list(g)), axis=1)
        if (hits > 1).any():
            k = int(np.argmax(hits > 1))
            raise DomainError(f"applicant {apps.ids[k]} lists {hits[k]} schools from one group")
    return run_meritocratic_boston(schools, cohort, apps, rng)
