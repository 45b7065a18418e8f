"""Admission mechanisms: merit-capped Boston, serial dictatorship, pure Boston,
decentralized single-application, and the grouped two-list variant.

All mechanisms are pure functions from (schools, cohort, submitted
applications, rng) to an Assignment. The cohort is a `Cohort`; submitted
applications are `Applications`, one row per submitter holding the school ids
of the list, best first (a single application is a list of length one).
Sequences of `Applicant`, `PreferenceList` or `SingleApplication` are
accepted too and converted by `Cohort.of` and `Applications.of`, so every
input runs through the same array code. Ties in exam scores are broken by
lottery: one uniform draw per submitter per mechanism run, in increasing id
order (`_tie_breaks`), reused across the pool-selection step and all rounds.
Priority is higher score, then lower draw, then lower id.

With a single common score priority on the school side, applicant-proposing
deferred acceptance collapses to a serial dictatorship: process applicants in
priority order and give each their best school with a free seat. No school
ever rejects a tentatively held applicant for a later proposer, because every
later proposer has lower priority at every school. `run_serial_dictatorship_da`
is therefore the deferred-acceptance benchmark for this market.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import Applicant, Assignment, Cohort, DomainError, Placement, School, SeededRng, require_increasing


@dataclass(frozen=True)
class PreferenceList:
    applicant_id: int
    ranked: tuple[int, ...]  # school ids, most preferred first


@dataclass(frozen=True)
class SingleApplication:
    applicant_id: int
    school_id: int


@dataclass(frozen=True, eq=False)
class Applications:
    """Submitted applications as arrays, one row per submitter in increasing
    applicant id: row i is applicant `ids[i]`'s list, `schools[i, :lengths[i]]`,
    most preferred first, padded with 0."""

    ids: np.ndarray  # (m,) int
    schools: np.ndarray  # (m, L) int school ids
    lengths: np.ndarray  # (m,) int

    def __post_init__(self) -> None:
        require_increasing(self.ids, "applicant {} submitted more than one application")

    @classmethod
    def of(cls, apps: "Applications | Sequence[PreferenceList] | Sequence[SingleApplication]") -> "Applications":
        """The arrays of `apps` (an Applications is returned as it is)."""
        if isinstance(apps, Applications):
            return apps
        apps = sorted(apps, key=lambda a: a.applicant_id)
        lists = [(a.school_id,) if isinstance(a, SingleApplication) else tuple(a.ranked) for a in apps]
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


@dataclass(frozen=True)
class MeritPool:
    selected: frozenset[int]
    cutoff_score: float  # -inf when nobody is excluded
    lottery_used: bool


# -- shared plumbing ----------------------------------------------------------


def _tie_breaks(ids: np.ndarray, rng: SeededRng | None, lottery: Mapping[int, float] | None) -> np.ndarray:
    """One tie-break number per id of the increasing `ids`; lower wins among
    equal scores.

    An explicit `lottery` mapping overrides the rng draw, which lets callers
    run two mechanisms under the same lottery realization.
    """
    if lottery is not None:
        missing = [i for i in ids.tolist() if i not in lottery]
        if missing:
            raise DomainError(f"lottery mapping missing applicant ids {missing[:5]}")
        return np.array([float(lottery[i]) for i in ids.tolist()])
    if rng is None:
        return np.zeros(len(ids))
    return rng.generator().random(len(ids))


def _priority(ids: np.ndarray, scores: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """Row positions in priority order: higher score, lower tie-break, lower id."""
    return np.lexsort((ids, ties, -scores))


@dataclass(frozen=True)
class _Market:
    """One mechanism run's validated input, rows in increasing applicant id."""

    ids: np.ndarray  # (m,) submitters
    scores: np.ndarray  # (m,)
    choice: np.ndarray  # (m, L) 0-based school index of each list entry
    lengths: np.ndarray  # (m,)
    school_ids: np.ndarray  # (S,) increasing
    caps: np.ndarray  # (S,)


def _market(
    schools: Sequence[School],
    applicants: Cohort | Sequence[Applicant],
    apps: Applications | Sequence[PreferenceList] | Sequence[SingleApplication],
) -> _Market:
    """Convert and check a mechanism's input: every submitter is in the
    cohort, and every list names known schools, each at most once."""
    if not schools:
        raise DomainError("no schools")
    cohort = Cohort.of(applicants)
    apps = Applications.of(apps)
    scores = cohort.score[cohort.rows(apps.ids)]
    by_id = sorted(schools, key=lambda s: s.id)
    school_ids = np.array([s.id for s in by_id], dtype=np.int64)
    lists, width = apps.schools, apps.schools.shape[1]
    choice = np.searchsorted(school_ids, lists)
    listed = np.arange(width) < apps.lengths[:, None]
    unknown = listed & (school_ids.take(choice, mode="clip") != lists)
    if unknown.any():
        row, col = np.argwhere(unknown)[0]
        raise DomainError(f"applicant {apps.ids[row]} lists unknown school {lists[row, col]}")
    entries = np.sort(np.where(listed, choice, -1 - np.arange(width)), axis=1)
    twice = (entries[:, 1:] == entries[:, :-1]).any(axis=1)
    if twice.any():
        raise DomainError(f"applicant {apps.ids[twice][0]} lists a school twice")
    caps = np.array([s.capacity for s in by_id], dtype=np.int64)
    return _Market(ids=apps.ids, scores=scores, choice=choice, lengths=apps.lengths, school_ids=school_ids, caps=caps)


# -- merit pool ---------------------------------------------------------------


def _check_capacity(total_capacity: int) -> None:
    if total_capacity <= 0:
        raise DomainError(f"total capacity must be positive, got {total_capacity}")


def select_merit_pool(
    applicants: Cohort | Sequence[Applicant],
    total_capacity: int,
    rng: SeededRng | None = None,
    *,
    lottery: Mapping[int, float] | None = None,
) -> MeritPool:
    """Top-K applicants by exam score, K = total capacity, lottery among
    cutoff ties."""
    _check_capacity(total_capacity)
    cohort = Cohort.of(applicants)
    if total_capacity >= len(cohort):
        return MeritPool(selected=frozenset(cohort.ids.tolist()), cutoff_score=float("-inf"), lottery_used=False)
    order = _priority(cohort.ids, cohort.score, _tie_breaks(cohort.ids, rng, lottery))
    selected = order[:total_capacity]
    cutoff = float(cohort.score[selected[-1]])
    return MeritPool(
        selected=frozenset(cohort.ids[selected].tolist()),
        cutoff_score=cutoff,
        lottery_used=bool(np.count_nonzero(cohort.score >= cutoff) > total_capacity),
    )


# -- Boston rounds ------------------------------------------------------------


def _boston(market: _Market, ties: np.ndarray, merit_capped: bool) -> Assignment:
    """Round r: applicants still held propose, in priority order, to the r-th
    school on their list, and each school admits its proposers in that order
    while seats remain. Exhausted lists leave the applicant unassigned; seats
    are never backfilled. With `merit_capped`, only the top total-capacity
    submitters by priority are held at the start.

    The rounds walk Python lists: on the tiny markets of the exhaustive tests
    a per-round numpy top-k costs several times more, and at full scale both
    take a few milliseconds a year."""
    held = _priority(market.ids, market.scores, ties)
    if merit_capped:
        total = int(market.caps.sum())
        _check_capacity(total)
        held = held[:total]
    ids, lists, lengths = market.ids[held].tolist(), market.choice[held].tolist(), market.lengths[held].tolist()
    school_ids, seats = market.school_ids.tolist(), market.caps.tolist()
    placed: dict[int, Placement] = {}
    waiting = range(len(ids))
    for r in range(market.choice.shape[1]):
        still = []
        for j in waiting:
            if lengths[j] > r:
                k = lists[j][r]
                if seats[k] > 0:
                    seats[k] -= 1
                    placed[ids[j]] = Placement(school_id=school_ids[k], preference_rank_obtained=r + 1)
                else:
                    still.append(j)
        waiting = still
    return Assignment(placed=placed, unassigned=frozenset(market.ids.tolist()).difference(placed))


def run_meritocratic_boston(
    schools: Sequence[School],
    applicants: Cohort | Sequence[Applicant],
    prefs: Applications | Sequence[PreferenceList],
    rng: SeededRng | None = None,
    *,
    lottery: Mapping[int, float] | None = None,
) -> Assignment:
    """Merit-capped Boston: select the top-K applicants by score (K = total
    capacity), then run Boston rounds among them. Applicants outside the pool
    are unassigned regardless of their lists."""
    market = _market(schools, applicants, prefs)
    if not len(market.ids):
        return Assignment(placed={}, unassigned=frozenset())
    return _boston(market, _tie_breaks(market.ids, rng, lottery), merit_capped=True)


def run_immediate_acceptance(
    schools: Sequence[School],
    applicants: Cohort | Sequence[Applicant],
    prefs: Applications | Sequence[PreferenceList],
    rng: SeededRng | None = None,
    *,
    lottery: Mapping[int, float] | None = None,
) -> Assignment:
    """Pure Boston baseline: identical rounds, no merit-pool restriction."""
    market = _market(schools, applicants, prefs)
    return _boston(market, _tie_breaks(market.ids, rng, lottery), merit_capped=False)


def run_serial_dictatorship_da(
    schools: Sequence[School],
    applicants: Cohort | Sequence[Applicant],
    prefs: Applications | Sequence[PreferenceList],
    rng: SeededRng | None = None,
    *,
    lottery: Mapping[int, float] | None = None,
) -> Assignment:
    """Serial dictatorship in score order: each applicant takes the highest
    school on their list with a free seat. Equivalent to applicant-proposing
    deferred acceptance under the market's single common score priority (see
    module docstring). The rank obtained is the list position of the school
    received."""
    market = _market(schools, applicants, prefs)
    order = _priority(market.ids, market.scores, _tie_breaks(market.ids, rng, lottery))
    ids, lists, lengths = market.ids[order].tolist(), market.choice[order].tolist(), market.lengths[order].tolist()
    school_ids, seats = market.school_ids.tolist(), market.caps.tolist()
    placed: dict[int, Placement] = {}
    for aid, listed, length in zip(ids, lists, lengths):
        for rank, k in enumerate(listed[:length], start=1):
            if seats[k] > 0:
                seats[k] -= 1
                placed[aid] = Placement(school_id=school_ids[k], preference_rank_obtained=rank)
                break
    return Assignment(placed=placed, unassigned=frozenset(ids).difference(placed))


# -- decentralized single-application ----------------------------------------


def _admit_top_per_school(
    school_idx: np.ndarray,
    scores: np.ndarray,
    ties: np.ndarray,
    caps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized core of the decentralized regime: each school independently
    admits its top-capacity applicants by (score, tie-break).

    `school_idx` holds 0-based school indices (-1 = did not apply). Returns
    (admitted mask, per-school cutoff), cutoff being the lowest admitted raw
    score at schools that filled up, -inf otherwise.
    """
    n = school_idx.shape[0]
    n_schools = caps.shape[0]
    admitted = np.zeros(n, dtype=bool)
    cutoffs = np.full(n_schools, -np.inf)
    applied = school_idx >= 0
    if not applied.any():
        return admitted, cutoffs
    idx = np.flatnonzero(applied)
    order = idx[np.lexsort((ties[idx], -scores[idx], school_idx[idx]))]
    s_sorted = school_idx[order]
    starts = np.searchsorted(s_sorted, np.arange(n_schools), side="left")
    ends = np.searchsorted(s_sorted, np.arange(n_schools), side="right")
    within = np.arange(order.shape[0]) - starts[s_sorted]
    take = within < caps[s_sorted]
    admitted[order[take]] = True
    counts = ends - starts
    full = counts >= caps
    last_in = starts + np.minimum(counts, caps) - 1
    has_any = counts > 0
    sel = full & has_any & (caps > 0)
    cutoffs[sel] = scores[order[last_in[sel]]]
    return admitted, cutoffs


def run_decentralized(
    schools: Sequence[School],
    applicants: Cohort | Sequence[Applicant],
    apps: Applications | Sequence[SingleApplication],
    rng: SeededRng | None = None,
    *,
    lottery: Mapping[int, float] | None = None,
) -> Assignment:
    """Each school independently admits its top-capacity applicants by score;
    everyone else is unassigned."""
    market = _market(schools, applicants, apps)
    multiple = market.lengths != 1
    if multiple.any():
        raise DomainError(f"applicant {market.ids[multiple][0]} did not apply to exactly one school")
    if not len(market.ids):
        return Assignment(placed={}, unassigned=frozenset())
    choice = market.choice[:, 0]
    admitted, _ = _admit_top_per_school(choice, market.scores, _tie_breaks(market.ids, rng, lottery), market.caps)
    placed = {
        aid: Placement(school_id=sid, preference_rank_obtained=1)
        for aid, sid in zip(market.ids[admitted].tolist(), market.school_ids[choice[admitted]].tolist())
    }
    return Assignment(placed=placed, unassigned=frozenset(market.ids[~admitted].tolist()))


# -- grouped centralized (two lists, one school per group) --------------------


def run_grouped_centralized(
    schools: Sequence[School],
    applicants: Cohort | Sequence[Applicant],
    grouped_prefs: Applications | Sequence[PreferenceList],
    groups: tuple[frozenset[int], frozenset[int]],
    rng: SeededRng | None = None,
    *,
    lottery: Mapping[int, float] | None = None,
) -> Assignment:
    """Merit-capped Boston over lists constrained to at most one school per
    group (so at most two entries)."""
    school_ids = {s.id for s in schools}
    if set(groups[0]) | set(groups[1]) != school_ids or set(groups[0]) & set(groups[1]):
        raise DomainError("groups must partition the school set")
    apps = Applications.of(grouped_prefs)
    listed = np.arange(apps.schools.shape[1]) < apps.lengths[:, None]
    for g in groups:
        hits = np.count_nonzero(listed & np.isin(apps.schools, list(g)), axis=1)
        if (hits > 1).any():
            k = int(np.argmax(hits > 1))
            raise DomainError(f"applicant {apps.ids[k]} lists {hits[k]} schools from one group")
    return run_meritocratic_boston(schools, applicants, apps, rng, lottery=lottery)
