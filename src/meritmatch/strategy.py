"""Application behavior: truthful rankings for the centralized regimes and a
self-selection equilibrium for the decentralized single-application regime.

Everything here reads a year's `Cohort` (a sequence of `Applicant`s is
converted by `Cohort.of`) and returns `Applications`: ranked lists come from
one stable argsort of each applicant's utilities, single applications from
the vectorized best response `_best_single_choices`.

The decentralized model is a rational-expectations fixed point: applicants
hold beliefs about each school's admission cutoff, smooth the acceptance
event with a normal CDF over their own score uncertainty, and apply to the
school maximizing admission probability times surplus. Realized cutoffs feed
back into beliefs with damping until they settle. This model is a
construction of this package, calibrated only to reproduce qualitative
regime differences; treat its parameters as simulation knobs, not estimates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .core import Applicant, Cohort, DomainError, Regime, RegimeKind, School, SeededRng
from .mechanisms import Applications, PreferenceList, _admit_top_per_school


@dataclass(frozen=True)
class BehaviorParams:
    """Knobs of the self-selection model.

    The default tolerance is coarse on purpose: realized marginal admitted
    scores move in discrete jumps when single applicants switch schools, so
    the damped iteration settles into a small limit cycle whose amplitude is
    roughly damping times the score spacing at the margin, around 1e-1 at
    desk scale. Cutoff wiggle of that size shifts admission probabilities by
    well under one percent; tighter tolerances are reachable on small or
    lucky instances but not generically.
    """

    score_noise_sd: float = 14.0  # applicant's uncertainty about own standing
    max_iter: int = 100
    tol: float = 0.25
    damping: float = 0.5  # fraction of the realized cutoff mixed in per iteration

    def __post_init__(self) -> None:
        if self.score_noise_sd < 0:
            raise DomainError("score_noise_sd must be >= 0")
        if self.tol <= 0:
            raise DomainError("tol must be > 0")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if not 0 < self.damping <= 1:
            raise DomainError("damping must be in (0, 1]")


@dataclass(frozen=True)
class CutoffBeliefs:
    """Anticipated admission cutoff per school (-inf for undersubscribed)."""

    school_ids: tuple[int, ...]
    cutoffs: tuple[float, ...]

    def cutoff(self, school_id: int) -> float:
        try:
            return self.cutoffs[self.school_ids.index(school_id)]
        except ValueError:
            raise DomainError(f"no belief for school {school_id}") from None


def _truthful_lists(cohort: Cohort) -> Applications:
    """Every applicant's list, possibly empty: the schools strictly better than
    the outside option, best first; equal utilities break toward the lower
    school id."""
    ranked = np.argsort(-cohort.utility, axis=1, kind="stable") + 1
    lengths = np.count_nonzero(cohort.utility > cohort.outside[:, None], axis=1)
    listed = np.arange(ranked.shape[1]) < lengths[:, None]
    return Applications(ids=cohort.ids, schools=np.where(listed, ranked, 0), lengths=lengths)


def _grouped_lists(cohort: Cohort, groups: tuple[frozenset[int], frozenset[int]]) -> Applications:
    """Every applicant's list under the one-school-per-group constraint: the
    best acceptable school of each group (the lower id on ties), groups ordered
    by that school's utility (the lower id on ties)."""
    if not len(cohort):
        return Applications.of([])
    rows = np.arange(len(cohort))
    best_u, best_id = [], []
    for g in groups:
        cols = np.array(sorted(g)) - 1
        u = cohort.utility[:, cols]
        u = np.where(u > cohort.outside[:, None], u, -np.inf)
        k = np.argmax(u, axis=1)
        best_u.append(u[rows, k])
        best_id.append(cols[k] + 1)
    u, sids = np.stack(best_u, axis=1), np.stack(best_id, axis=1)
    ranked = np.take_along_axis(sids, np.lexsort((sids, -u)), axis=1)
    lengths = np.count_nonzero(np.isfinite(u), axis=1)
    listed = np.arange(len(groups)) < lengths[:, None]
    return Applications(ids=cohort.ids, schools=np.where(listed, ranked, 0), lengths=lengths)


def truthful_ranking(applicant: Applicant) -> PreferenceList:
    """One applicant's truthful list (see `_truthful_lists`)."""
    return next(iter(_truthful_lists(Cohort.of([applicant]))))


def grouped_ranking(applicant: Applicant, groups: tuple[frozenset[int], frozenset[int]]) -> PreferenceList:
    """One applicant's truthful one-per-group list (see `_grouped_lists`)."""
    return next(iter(_grouped_lists(Cohort.of([applicant]), groups)))


def _best_single_choices(
    scores: np.ndarray,
    utilities: np.ndarray,
    outside: np.ndarray,
    cutoffs: np.ndarray,
    sigma: float,
) -> np.ndarray:
    """Vectorized best single application: 0-based school index, -1 = abstain."""
    if sigma == 0:
        diff = scores[:, None] - cutoffs[None, :]
        prob = np.where(diff > 0, 1.0, np.where(diff == 0, 0.5, 0.0))
        prob = np.where(np.isinf(cutoffs)[None, :] & (cutoffs < 0)[None, :], 1.0, prob)
    else:
        prob = ndtr((scores[:, None] - cutoffs[None, :]) / sigma)
    surplus = utilities - outside[:, None]
    ev = np.where(surplus > 0, prob * surplus, -np.inf)
    best = np.argmax(ev, axis=1)  # first max -> lowest school index
    best[~np.isfinite(ev[np.arange(len(best)), best])] = -1
    return best


def _belief_floor(scores: np.ndarray, sigma: float) -> float:
    """A cutoff level behaviorally equivalent to "no cutoff": every applicant
    clears it with probability ~1 even under score uncertainty."""
    return float(scores.min()) - 6.0 * max(sigma, 1.0) - 1.0


def equilibrium_cutoffs(
    schools: Sequence[School],
    applicants: Cohort | Sequence[Applicant],
    params: BehaviorParams,
    rng: SeededRng | None = None,
    initial: CutoffBeliefs | None = None,
) -> tuple[CutoffBeliefs, int, float]:
    """Rational-expectations cutoffs for the single-application regime.

    Iterates best responses against beliefs, admits top-capacity applicants
    per school, and moves beliefs toward realized marginal admitted scores
    with damping. Undersubscribed schools are held at a finite floor during
    the iteration (so damping stays well defined) and reported as -inf in
    the returned beliefs. Returns (beliefs, iterations used, final
    residual); non-convergence is flagged by residual >= tol, not raised.
    """
    schools_sorted = sorted(schools, key=lambda s: s.id)
    school_ids = tuple(s.id for s in schools_sorted)
    caps = np.array([s.capacity for s in schools_sorted], dtype=np.int64)
    cohort = Cohort.of(applicants)
    if not len(cohort):
        beliefs = CutoffBeliefs(school_ids=school_ids, cutoffs=tuple([-math.inf] * len(school_ids)))
        return beliefs, 1, 0.0
    scores, utilities, outside = cohort.score, cohort.utility, cohort.outside
    if utilities.shape[1] != len(school_ids):
        raise DomainError("applicant utility vectors do not match the school count")
    ties = rng.generator().random(len(cohort)) if rng is not None else np.zeros(len(cohort))

    floor = _belief_floor(scores, params.score_noise_sd)
    if initial is not None:
        cutoffs = np.array([max(c, floor) if math.isfinite(c) else floor for c in initial.cutoffs])
    else:
        cutoffs = np.full(len(school_ids), floor)
    undersubscribed = np.ones(len(school_ids), dtype=bool)
    iterations = 0
    residual = math.inf
    for iterations in range(1, params.max_iter + 1):
        choice = _best_single_choices(scores, utilities, outside, cutoffs, params.score_noise_sd)
        _, realized = _admit_top_per_school(choice, scores, ties, caps)
        undersubscribed = np.isneginf(realized)
        target = np.where(undersubscribed, floor, realized)
        new = (1 - params.damping) * cutoffs + params.damping * target
        residual = float(np.max(np.abs(new - cutoffs)))
        cutoffs = new
        if residual < params.tol:
            break
    if residual >= params.tol:
        warnings.warn(
            f"cutoff iteration did not converge in {params.max_iter} iterations (residual {residual:.3g})",
            RuntimeWarning,
            stacklevel=2,
        )
    reported = np.where(undersubscribed, -np.inf, cutoffs)
    beliefs = CutoffBeliefs(school_ids=school_ids, cutoffs=tuple(float(c) for c in reported))
    return beliefs, iterations, residual


def single_applications(
    applicants: Cohort | Sequence[Applicant],
    beliefs: CutoffBeliefs,
    params: BehaviorParams,
) -> Applications:
    """Best-response single applications against given cutoff beliefs, in
    increasing applicant id; abstainers submit nothing."""
    cohort = Cohort.of(applicants)
    if not len(cohort):
        return Applications.of([])
    choice = _best_single_choices(
        cohort.score, cohort.utility, cohort.outside, np.array(beliefs.cutoffs), params.score_noise_sd
    )
    applied = choice >= 0
    return Applications(
        ids=cohort.ids[applied],
        schools=np.array(beliefs.school_ids, dtype=np.int64)[choice[applied], None],
        lengths=np.ones(np.count_nonzero(applied), dtype=np.int64),
    )


def submit_applications(applicants: Cohort | Sequence[Applicant], regime: Regime) -> Applications:
    """Ranked lists submitted under a centralized regime.

    Centralized: full truthful rankings. Grouped centralized: truthful
    one-per-group lists. Empty rankings are not submitted. Decentralized years
    have no ranked lists: their single applications come from
    `equilibrium_cutoffs` and `single_applications`.
    """
    if regime.kind == RegimeKind.CENTRALIZED:
        lists = _truthful_lists(Cohort.of(applicants))
    elif regime.kind == RegimeKind.GROUPED_CENTRALIZED:
        if regime.groups is None:
            raise DomainError("grouped regime requires groups")
        lists = _grouped_lists(Cohort.of(applicants), regime.groups)
    else:
        raise DomainError(f"no ranked lists under regime kind {regime.kind!r}")
    keep = lists.lengths > 0
    return Applications(ids=lists.ids[keep], schools=lists.schools[keep], lengths=lists.lengths[keep])
