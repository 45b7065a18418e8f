"""Admission mechanisms: merit-capped Boston, serial dictatorship, pure Boston,
decentralized single-application, and the grouped two-list variant.

All mechanisms are pure functions from (schools, applicants, submitted
applications, rng) to an Assignment. Ties in exam scores are broken by
lottery: one uniform draw per applicant per mechanism run (`_tie_breaks`),
reused across the pool-selection step and all rounds.

With a single common score priority on the school side, applicant-proposing
deferred acceptance collapses to a serial dictatorship: process applicants in
priority order and give each their best school with a free seat. No school
ever rejects a tentatively held applicant for a later proposer, because every
later proposer has lower priority at every school. `run_serial_dictatorship_da`
is therefore the deferred-acceptance benchmark for this market.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import Applicant, Assignment, DomainError, Placement, School, SeededRng


@dataclass(frozen=True)
class PreferenceList:
    applicant_id: int
    ranked: tuple[int, ...]  # school ids, most preferred first


@dataclass(frozen=True)
class SingleApplication:
    applicant_id: int
    school_id: int


@dataclass(frozen=True)
class MeritPool:
    selected: frozenset[int]
    cutoff_score: float  # -inf when nobody is excluded
    lottery_used: bool


def admitted_set(assignment: Assignment) -> set[int]:
    return set(assignment.placed)


# -- tie-break plumbing -------------------------------------------------------


def _tie_breaks(ids: Iterable[int], rng: SeededRng | None, lottery: Mapping[int, float] | None) -> dict[int, float]:
    """One tie-break number per applicant; lower wins among equal scores.

    An explicit `lottery` mapping overrides the rng draw, which lets callers
    run two mechanisms under the same lottery realization.
    """
    ordered = sorted(set(ids))
    if lottery is not None:
        missing = [i for i in ordered if i not in lottery]
        if missing:
            raise DomainError(f"lottery mapping missing applicant ids {missing[:5]}")
        return {i: float(lottery[i]) for i in ordered}
    if rng is None:
        return {i: 0.0 for i in ordered}
    draws = rng.generator().random(len(ordered))
    return dict(zip(ordered, draws))


def _priority_sorted(ids: Iterable[int], scores: Mapping[int, float], tie: Mapping[int, float]) -> list[int]:
    return sorted(ids, key=lambda i: (-scores[i], tie[i], i))


def _index_applicants(applicants: Sequence[Applicant]) -> dict[int, Applicant]:
    by_id = {}
    for a in applicants:
        if a.id in by_id:
            raise DomainError(f"duplicate applicant id {a.id}")
        by_id[a.id] = a
    return by_id


def _check_prefs(schools: Sequence[School], by_id: Mapping[int, Applicant], prefs: Sequence[PreferenceList]) -> None:
    if not schools:
        raise DomainError("no schools")
    school_ids = {s.id for s in schools}
    seen = set()
    for p in prefs:
        if p.applicant_id in seen:
            raise DomainError(f"applicant {p.applicant_id} submitted two preference lists")
        seen.add(p.applicant_id)
        if p.applicant_id not in by_id:
            raise DomainError(f"preference list from unknown applicant {p.applicant_id}")
        if len(set(p.ranked)) != len(p.ranked):
            raise DomainError(f"applicant {p.applicant_id} lists a school twice")
        for sid in p.ranked:
            if sid not in school_ids:
                raise DomainError(f"applicant {p.applicant_id} lists unknown school {sid}")


# -- merit pool ---------------------------------------------------------------


def select_merit_pool(
    applicants: Sequence[Applicant],
    total_capacity: int,
    rng: SeededRng | None = None,
    *,
    lottery: Mapping[int, float] | None = None,
) -> MeritPool:
    """Top-K applicants by exam score, K = total capacity, lottery among
    cutoff ties."""
    if total_capacity <= 0:
        raise DomainError(f"total capacity must be positive, got {total_capacity}")
    by_id = _index_applicants(applicants)
    if total_capacity >= len(by_id):
        return MeritPool(selected=frozenset(by_id), cutoff_score=float("-inf"), lottery_used=False)
    scores = {i: a.score for i, a in by_id.items()}
    tie = _tie_breaks(by_id, rng, lottery)
    order = _priority_sorted(by_id, scores, tie)
    selected = order[:total_capacity]
    cutoff = scores[selected[-1]]
    n_above = sum(1 for a in by_id.values() if a.score > cutoff)
    n_tied = sum(1 for a in by_id.values() if a.score == cutoff)
    return MeritPool(
        selected=frozenset(selected),
        cutoff_score=cutoff,
        lottery_used=n_above + n_tied > total_capacity,
    )


# -- Boston rounds ------------------------------------------------------------


def _boston_rounds(
    schools: Sequence[School],
    by_id: Mapping[int, Applicant],
    prefs: Sequence[PreferenceList],
    eligible: frozenset[int],
    tie: Mapping[int, float],
) -> Assignment:
    """Round r: applicants still held propose, in score order, to the r-th
    school on their list; a school accepts while seats remain. Exhausted
    lists leave the applicant unassigned; seats are never backfilled."""
    seats = {s.id: s.capacity for s in schools}
    scores = {i: by_id[i].score for i in by_id}
    ranked = {p.applicant_id: p.ranked for p in prefs}

    placed: dict[int, Placement] = {}
    unassigned: set[int] = {p.applicant_id for p in prefs if p.applicant_id not in eligible}
    active = [p.applicant_id for p in prefs if p.applicant_id in eligible]

    r = 1
    while active:
        active = _priority_sorted(active, scores, tie)
        held = []
        for aid in active:
            lst = ranked[aid]
            if len(lst) < r:
                unassigned.add(aid)
                continue
            sid = lst[r - 1]
            if seats[sid] > 0:
                seats[sid] -= 1
                placed[aid] = Placement(school_id=sid, admission_round=r, preference_rank_obtained=r)
            else:
                held.append(aid)
        active = held
        r += 1
    return Assignment(placed=placed, unassigned=frozenset(unassigned))


def run_meritocratic_boston(
    schools: Sequence[School],
    applicants: Sequence[Applicant],
    prefs: Sequence[PreferenceList],
    rng: SeededRng | None = None,
    *,
    lottery: Mapping[int, float] | None = None,
) -> Assignment:
    """Merit-capped Boston: select the top-K applicants by score (K = total
    capacity), then run Boston rounds among them. Applicants outside the pool
    are unassigned regardless of their lists."""
    by_id = _index_applicants(applicants)
    _check_prefs(schools, by_id, prefs)
    submitters = [by_id[p.applicant_id] for p in prefs]
    if not submitters:
        return Assignment(placed={}, unassigned=frozenset())
    tie = _tie_breaks((p.applicant_id for p in prefs), rng, lottery)
    total_capacity = sum(s.capacity for s in schools)
    pool = select_merit_pool(submitters, total_capacity, lottery=tie)
    return _boston_rounds(schools, by_id, prefs, pool.selected, tie)


def run_immediate_acceptance(
    schools: Sequence[School],
    applicants: Sequence[Applicant],
    prefs: Sequence[PreferenceList],
    rng: SeededRng | None = None,
    *,
    lottery: Mapping[int, float] | None = None,
) -> Assignment:
    """Pure Boston baseline: identical rounds, no merit-pool restriction."""
    by_id = _index_applicants(applicants)
    _check_prefs(schools, by_id, prefs)
    tie = _tie_breaks((p.applicant_id for p in prefs), rng, lottery)
    eligible = frozenset(p.applicant_id for p in prefs)
    return _boston_rounds(schools, by_id, prefs, eligible, tie)


def run_serial_dictatorship_da(
    schools: Sequence[School],
    applicants: Sequence[Applicant],
    prefs: Sequence[PreferenceList],
    rng: SeededRng | None = None,
    *,
    lottery: Mapping[int, float] | None = None,
) -> Assignment:
    """Serial dictatorship in score order: each applicant takes the highest
    school on their list with a free seat. Equivalent to applicant-proposing
    deferred acceptance under the market's single common score priority (see
    module docstring). admission_round is 1 for every placement; the rank
    obtained is the list position of the school received."""
    by_id = _index_applicants(applicants)
    _check_prefs(schools, by_id, prefs)
    scores = {p.applicant_id: by_id[p.applicant_id].score for p in prefs}
    tie = _tie_breaks(scores, rng, lottery)
    seats = {s.id: s.capacity for s in schools}
    placed: dict[int, Placement] = {}
    unassigned: set[int] = set()
    ranked = {p.applicant_id: p.ranked for p in prefs}
    for aid in _priority_sorted(scores, scores, tie):
        choice = next((k for k, sid in enumerate(ranked[aid], start=1) if seats[sid] > 0), None)
        if choice is None:
            unassigned.add(aid)
        else:
            sid = ranked[aid][choice - 1]
            seats[sid] -= 1
            placed[aid] = Placement(school_id=sid, admission_round=1, preference_rank_obtained=choice)
    return Assignment(placed=placed, unassigned=frozenset(unassigned))


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
    applicants: Sequence[Applicant],
    apps: Sequence[SingleApplication],
    rng: SeededRng | None = None,
    *,
    lottery: Mapping[int, float] | None = None,
) -> Assignment:
    """Each school independently admits its top-capacity applicants by score;
    everyone else is unassigned."""
    by_id = _index_applicants(applicants)
    if not schools:
        raise DomainError("no schools")
    school_ids = sorted(s.id for s in schools)
    id_to_idx = {sid: k for k, sid in enumerate(school_ids)}
    seen: set[int] = set()
    for app in apps:
        if app.applicant_id in seen:
            raise DomainError(f"applicant {app.applicant_id} submitted more than one application")
        seen.add(app.applicant_id)
        if app.applicant_id not in by_id:
            raise DomainError(f"application from unknown applicant {app.applicant_id}")
        if app.school_id not in id_to_idx:
            raise DomainError(f"applicant {app.applicant_id} applied to unknown school {app.school_id}")
    if not apps:
        return Assignment(placed={}, unassigned=frozenset())

    ordered = sorted(apps, key=lambda a: a.applicant_id)
    ids = [a.applicant_id for a in ordered]
    tie_map = _tie_breaks(ids, rng, lottery)
    school_idx = np.array([id_to_idx[a.school_id] for a in ordered], dtype=np.int64)
    scores = np.array([by_id[a.applicant_id].score for a in ordered])
    ties = np.array([tie_map[i] for i in ids])
    caps = np.array([s.capacity for s in sorted(schools, key=lambda s: s.id)], dtype=np.int64)

    admitted, _ = _admit_top_per_school(school_idx, scores, ties, caps)
    placed = {}
    unassigned = set()
    for k, app in enumerate(ordered):
        if admitted[k]:
            placed[app.applicant_id] = Placement(school_id=app.school_id, admission_round=1, preference_rank_obtained=1)
        else:
            unassigned.add(app.applicant_id)
    return Assignment(placed=placed, unassigned=frozenset(unassigned))


# -- grouped centralized (two lists, one school per group) --------------------


def run_grouped_centralized(
    schools: Sequence[School],
    applicants: Sequence[Applicant],
    grouped_prefs: Sequence[PreferenceList],
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
    for p in grouped_prefs:
        for g in groups:
            hits = [sid for sid in p.ranked if sid in g]
            if len(hits) > 1:
                raise DomainError(f"applicant {p.applicant_id} lists {len(hits)} schools from one group")
    return run_meritocratic_boston(schools, applicants, grouped_prefs, rng, lottery=lottery)
