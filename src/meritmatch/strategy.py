"""Application behavior: truthful rankings for the centralized regimes and a
self-selection equilibrium for the decentralized single-application regime.

Everything here reads a year's `Cohort` and returns `Applications`: ranked
lists come from one stable argsort of each applicant's utilities, single
applications from the vectorized best response `_best_response`.

The decentralized model is a rational-expectations fixed point: applicants
hold beliefs about each school's admission cutoff, smooth the acceptance
event with a normal CDF over their own score uncertainty, and apply to the
school maximizing admission probability times surplus. A school's realized
cutoff is an order statistic, the capacity-th highest score among its
applicants (the market-clearing cutoff of Azevedo & Leshno 2016), so the
iteration sorts the cohort by score once and draws no tie-break: which of
several equally scored applicants would be admitted does not move that
score. Nor do the rows below each school's capacity-th chooser, so an
iteration computes best responses only for the score-sorted prefix that
decided the previous iteration's cutoffs, and for the rest of the rows only
when a school falls short of its capacity within that prefix. Realized
cutoffs feed back into beliefs with damping until they settle, or until the
cutoff vector repeats one it held before: each iteration is a pure function
of the cutoffs, so from then on the iteration runs through that cycle
forever, and the state it would hold after `max_iter` iterations is read off
the cycle instead of computed. On the way there, the damped cutoffs close
in on states whose realized cutoffs are already known: an iteration whose
cutoffs lie within a certified radius of such a state, inside which no
deciding row's choice can change, reuses that state's realized cutoffs
instead of computing best responses. Beliefs are matched to utility columns
by school id. This model is a construction of this package, calibrated only
to reproduce qualitative regime differences; treat its parameters as
simulation knobs, not estimates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Cohort, DomainError, Regime, RegimeKind, School, check_groups
from .mechanisms import Applications


@dataclass(frozen=True)
class BehaviorParams:
    """Knobs of the self-selection model.

    The default tolerance is coarse on purpose: realized marginal admitted
    scores move in discrete jumps when single applicants switch schools, so
    the damped iteration settles into a small limit cycle whose amplitude is
    roughly damping times the score spacing at the margin, around 1e-1 at
    desk scale. Cutoff wiggle of that size shifts admission probabilities by
    well under one percent; tighter tolerances are reachable on small or
    lucky instances but not generically. In floating point the cycle turns
    exact after some 50 iterations at damping 0.5: the cutoff vector repeats
    bit for bit, with a period of 2 to a few dozen iterations, and
    `equilibrium_cutoffs` stops there with the state of iteration `max_iter`.
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
    """Anticipated admission cutoff per school (-inf for undersubscribed).
    A NaN cutoff is a DomainError: the best response would silently make
    every applicant who finds that school acceptable abstain."""

    school_ids: tuple[int, ...]
    cutoffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.school_ids) != len(self.cutoffs):
            raise DomainError(f"{len(self.school_ids)} school ids for {len(self.cutoffs)} cutoffs")
        if len(set(self.school_ids)) != len(self.school_ids):
            raise DomainError("school ids of cutoff beliefs are not unique")
        for school_id, cutoff in zip(self.school_ids, self.cutoffs):
            if math.isnan(cutoff):
                raise DomainError(f"cutoff belief for school {school_id} is NaN")

    def cutoff(self, school_id: int) -> float:
        try:
            return self.cutoffs[self.school_ids.index(school_id)]
        except ValueError:
            raise DomainError(f"no belief for school {school_id}") from None

    def lined_up(self, school_ids: Sequence[int]) -> np.ndarray:
        """The cutoffs of `school_ids`, in that order; DomainError when a
        school has no belief or a belief names another school."""
        unknown = set(self.school_ids) - set(school_ids)
        if unknown:
            raise DomainError(f"belief for unknown school {min(unknown)}")
        return np.array([self.cutoff(s) for s in school_ids], dtype=float)


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
    by that school's utility (the lower id on ties). The groups must split
    the school ids 1..S of the cohort's utility columns."""
    check_groups(groups, range(1, cohort.utility.shape[1] + 1))
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


def _best_response(
    scores: np.ndarray, surplus: np.ndarray, sigma: float, ev: np.ndarray | None = None
) -> Callable[..., np.ndarray]:
    """Vectorized best single application as a function of the cutoffs: each
    applicant's 0-based school index, -1 = abstain (the best expected value is
    not finite: no acceptable school, or a NaN utility). `surplus` is each
    applicant's utility minus outside option. The mask of non-positive
    surplus, one (n, S) buffer of expected values (`ev`, when the caller
    reads it) and one (n,) buffer of choices are set up once;
    `choose(cutoffs, start, stop)` computes rows `start:stop` into those
    buffers and returns the choice buffer, whose other rows keep what earlier
    calls left there. Rows are independent, so a row comes out the same
    whichever slice computes it."""
    if sigma != 0:
        # scipy.special costs every process that imports it ~0.3 s and ~21 MB,
        # so it loads here, once per call, and only a process that simulates a
        # noisy best response pays. A numpy port of cephes ndtr is no
        # substitute: on the cutoff iteration's small arrays it took 1.6-1.9 s
        # against scipy's 0.21-0.25 s over one 10-seed run at scale 0.05
        # (10,945 calls of ~2,110 elements), 0.15-0.21 s against 0.04-0.055 s
        # over one full-scale seed. Since the cutoff iteration reuses certified
        # best responses, that run makes 4,681 calls of ~2,200 elements: 4,471
        # in the cutoff iteration and 210 in `single_applications`
        from scipy.special import ndtr
    column = scores[:, None]
    unacceptable = ~(surplus > 0)
    ev = np.empty(surplus.shape) if ev is None else ev
    choice = np.empty(len(scores), dtype=np.intp)

    def choose(cutoffs: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
        rows = slice(start, stop)
        buf = ev[rows]
        np.subtract(column[rows], cutoffs, out=buf)
        if sigma == 0:
            np.copyto(buf, np.where(buf > 0, 1.0, np.where(buf == 0, 0.5, 0.0)))
            buf[:, np.isneginf(cutoffs)] = 1.0
        else:
            np.divide(buf, sigma, out=buf)
            ndtr(buf, out=buf)
        np.multiply(buf, surplus[rows], out=buf)
        np.copyto(buf, -np.inf, where=unacceptable[rows])
        best = np.argmax(buf, axis=1)  # first max -> lowest school index
        best[~np.isfinite(buf[np.arange(len(buf)), best])] = -1
        choice[rows] = best
        return choice

    return choose


def _choice_radius(ev: np.ndarray, umax: np.ndarray, sigma: float) -> float:
    """A max-norm distance r from the cutoffs at which `_best_response`
    computed the expected values `ev` (sigma > 0) such that no row changes
    its choice while every cutoff moves by less than r. Each row must have
    an acceptable school, and `umax` holds its largest positive surplus.

    An expected value moves by at most umax * delta / (sigma * sqrt(2 pi))
    when every cutoff moves by at most delta. So a row whose best value
    leads its second best by `gap` keeps its first maximum while delta <
    sigma * sqrt(2 pi) / 2 * gap / umax; 1e-11 * umax of the gap is held
    back for the rounding of the expected values. A row with one acceptable
    school keeps it whatever the cutoffs (gap = inf). A tie (gap = 0) gives
    r < 0, which no distance is below; so does an infinite surplus, through
    a NaN."""
    gap: np.ndarray | float = np.inf
    if ev.shape[1] > 1:
        top = np.sort(ev, axis=1)
        gap = top[:, -1] - top[:, -2]
    slack = np.min((gap - 1e-11 * umax) / umax, initial=np.inf)
    return sigma * math.sqrt(2 * math.pi) / 2 * float(slack)


def _realized_cutoffs(choice: np.ndarray, scores: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, int]:
    """Each school's realized cutoff: the capacity-th highest score among the
    applicants choosing it, -inf where it did not fill. `choice` holds 0-based
    school indices (-1 = abstain) with rows in non-increasing `scores`. Also
    returns the number of rows that decide every filled school's cutoff: one
    past the last of their capacity-th choosers (0 when none filled)."""
    # rows grouped by choice (abstainers first), each group in row order; in
    # the narrowest integer type that holds the choices numpy radix-sorts
    grouped = np.argsort(choice.astype(np.min_scalar_type(-1 - len(caps))), kind="stable")
    counts = np.bincount(choice + 1, minlength=len(caps) + 1)
    starts = np.cumsum(counts)[:-1]
    filled = (caps > 0) & (caps <= counts[1:])
    deciding = grouped[starts[filled] + caps[filled] - 1]
    cutoffs = np.full(len(caps), -np.inf)
    cutoffs[filled] = scores[deciding]
    return cutoffs, int(deciding.max(initial=-1)) + 1


def _belief_floor(scores: np.ndarray, sigma: float) -> float:
    """A cutoff level behaviorally equivalent to "no cutoff": every applicant
    clears it with probability ~1 even under score uncertainty."""
    return float(scores.min()) - 6.0 * max(sigma, 1.0) - 1.0


def equilibrium_cutoffs(
    schools: Sequence[School],
    cohort: Cohort,
    params: BehaviorParams,
    *,
    initial: CutoffBeliefs | None = None,
) -> tuple[CutoffBeliefs, int, float]:
    """Rational-expectations cutoffs for the single-application regime.

    Iterates best responses against beliefs and moves beliefs toward the
    realized cutoffs with damping. A realized cutoff is the order statistic
    of `_realized_cutoffs`, read from the cohort sorted by score once per
    call; no tie-break is drawn, because it cannot change that score.
    Undersubscribed schools are held at a finite floor during the iteration
    (so damping stays well defined) and reported as -inf in the returned
    beliefs. `initial` beliefs are read by school id and must name exactly
    the given schools. Returns (beliefs, iterations used, final residual);
    non-convergence is flagged by residual >= tol and a RuntimeWarning, not
    raised.

    Each iteration evaluates best responses in score order for the rows
    down to the previous iteration's last capacity-th chooser, plus a fixed
    margin of 1/16 of the cohort; the first iteration takes the rows scoring
    at least the lowest starting cutoff, plus the margin. If a school with
    positive capacity is still short of its capacity there, the remaining
    rows are evaluated into the same buffer, so no row is computed twice in
    an iteration. Rows are independent and sorted by score, so the realized
    cutoffs equal those of a full best response.

    When the cutoffs after iteration b equal, bit for bit, those after an
    earlier iteration a, the iteration is periodic from a with period
    b - a and none of its residuals is below tol. The loop then stops and
    returns the state the full loop would hold after `max_iter` iterations,
    (`max_iter` - a) mod (b - a) steps into the cycle, with `max_iter` as
    the iteration count: the result equals that of running every iteration.

    With score noise (sigma > 0), an iteration whose realized cutoffs repeat
    earlier ones certifies its state: its cutoffs and realized cutoffs, and
    the `_choice_radius` of the rows that decided them (those down to the
    last capacity-th chooser when every school with seats filled, else all).
    A later iteration whose cutoffs lie strictly within that radius of a
    certified state (max-norm) reuses what the state stored of its realized
    cutoffs (the undersubscribed schools and the damped pull toward the
    cutoffs) instead of computing best responses; no deciding row can choose
    differently there, so the result is bit for bit that of computing them.
    With sigma = 0 the best response is a step function, and every iteration
    computes it.
    """
    schools_sorted = sorted(schools, key=lambda s: s.id)
    school_ids = tuple(s.id for s in schools_sorted)
    caps = np.array([s.capacity for s in schools_sorted])
    if not len(cohort):
        beliefs = CutoffBeliefs(school_ids=school_ids, cutoffs=tuple([-math.inf] * len(school_ids)))
        return beliefs, 1, 0.0
    if cohort.utility.shape[1] != len(school_ids):
        raise DomainError("applicant utility vectors do not match the school count")
    order = np.argsort(-cohort.score)
    scores = cohort.score[order]
    surplus = (cohort.utility - cohort.outside[:, None])[order]
    ev = np.empty(surplus.shape)
    choose = _best_response(scores, surplus, params.score_noise_sd, ev)

    floor = _belief_floor(scores, params.score_noise_sd)
    cutoffs = np.full(len(school_ids), floor)
    if initial is not None:
        start = initial.lined_up(school_ids)
        cutoffs = np.where(np.isfinite(start), np.maximum(start, floor), floor)
    undersubscribed = np.ones(len(school_ids), dtype=bool)
    iterations = 0
    residual = math.inf
    # history[k] is the state after k iterations; seen maps its cutoffs to k
    history = [(cutoffs, undersubscribed, residual)]
    seen = {cutoffs.tobytes(): 0}
    # Rows evaluated first in the next iteration: those that decided this
    # one's cutoffs, plus a margin of 1/16 of the cohort that mostly spares
    # the remaining rows when a deciding row moves down a little. The first
    # iteration guesses the rows scoring at least the lowest starting cutoff,
    # every row without `initial`.
    n, margin = len(scores), len(scores) // 16
    prefix = min(int(np.count_nonzero(scores >= cutoffs.min())) + margin, n)

    has_seats = caps > 0

    def short(realized: np.ndarray) -> bool:
        """Whether a school with seats did not fill."""
        return bool(((realized == -np.inf) & has_seats).any())

    # an iteration moves the cutoffs to keep * cutoffs + pull, pull being
    # damping times the realized cutoffs with the floor in place of -inf
    damping, keep = params.damping, 1 - params.damping
    # certified states: cutoffs strictly within radii[k] of centers[k] give
    # responses[k] = (decided, undersubscribed, pull) of their realized
    # cutoffs. Certifying waits for a repeated realized vector: from then on
    # the cutoffs mostly close in on a cycle.
    certify = params.score_noise_sd > 0
    umax = None  # with `acceptable`, set at the first certificate: most converging years need none
    centers, radii = np.empty((params.max_iter, len(school_ids))), np.empty(params.max_iter)
    responses: list[tuple[int, np.ndarray, np.ndarray]] = []
    realized_seen: set[bytes] = set()
    for iterations in range(1, params.max_iter + 1):
        k = len(responses)
        # array methods, not np.max / np.flatnonzero: their Python wrappers
        # cost more than the reductions on these few elements
        within = (np.abs(centers[:k] - cutoffs).max(axis=1) < radii[:k]).nonzero()[0] if k else ()
        if len(within):
            decided, undersubscribed, pull = responses[within[0]]
        else:
            realized, decided = _realized_cutoffs(choose(cutoffs, 0, prefix)[:prefix], scores[:prefix], caps)
            if prefix < n and short(realized):
                # a school is short of its capacity within the prefix: its
                # capacity-th chooser, if any, is further down
                realized, decided = _realized_cutoffs(choose(cutoffs, prefix), scores, caps)
            undersubscribed = realized == -np.inf
            pull = damping * np.where(undersubscribed, floor, realized)
            key = realized.tobytes()
            if certify and key in realized_seen:
                if umax is None:
                    # each row's largest positive surplus; the rows without
                    # one abstain whatever the cutoffs
                    umax = np.fmax.reduce(surplus, axis=1)
                    acceptable = np.flatnonzero(umax > 0)
                    umax = umax[acceptable]
                # the rows that decide the realized cutoffs: those down to
                # the last capacity-th chooser, or all when a school is short
                rows = acceptable[: np.searchsorted(acceptable, n if short(realized) else decided)]
                # `take` gathers the rows several times faster than `ev[rows]`
                radius = _choice_radius(ev.take(rows, axis=0), umax[: len(rows)], params.score_noise_sd)
                if radius > 0:
                    centers[k], radii[k] = cutoffs, radius
                    responses.append((decided, undersubscribed, pull))
            realized_seen.add(key)
        prefix = min(decided + margin, n)
        new = keep * cutoffs + pull
        residual = float(np.abs(new - cutoffs).max())
        cutoffs = new
        if residual < params.tol:
            break
        first = seen.setdefault(cutoffs.tobytes(), iterations)
        if first < iterations:
            # The states after `first` repeat with this period and none of
            # their residuals is below tol: jump to the state after max_iter.
            # Entry `first` itself came from a state before the cycle.
            r = (params.max_iter - first) % (iterations - first)
            if r:
                cutoffs, undersubscribed, residual = history[first + r]
            iterations = params.max_iter
            break
        history.append((cutoffs, undersubscribed, residual))
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
    cohort: Cohort,
    beliefs: CutoffBeliefs,
    params: BehaviorParams,
) -> Applications:
    """Best-response single applications against given cutoff beliefs, in
    increasing applicant id; abstainers submit nothing. Utility column k is
    the school with id k + 1, whose cutoff `beliefs` must hold; a belief for
    any other school is a DomainError."""
    if not len(cohort):
        return Applications.of([])
    school_ids = np.arange(1, cohort.utility.shape[1] + 1, dtype=np.int64)
    cutoffs = beliefs.lined_up(school_ids.tolist())
    choice = _best_response(cohort.score, cohort.utility - cohort.outside[:, None], params.score_noise_sd)(cutoffs)
    applied = choice >= 0
    return Applications(
        ids=cohort.ids[applied],
        schools=school_ids[choice[applied], None],
        lengths=np.ones(np.count_nonzero(applied), dtype=np.int64),
    )


def submit_applications(cohort: Cohort, regime: Regime) -> Applications:
    """Ranked lists submitted under a centralized regime.

    Centralized: full truthful rankings. Grouped centralized: truthful
    one-per-group lists. Empty rankings are not submitted. Decentralized years
    have no ranked lists: their single applications come from
    `equilibrium_cutoffs` and `single_applications`.
    """
    if regime.kind == RegimeKind.CENTRALIZED:
        lists = _truthful_lists(cohort)
    elif regime.kind == RegimeKind.GROUPED_CENTRALIZED:
        if regime.groups is None:
            raise DomainError("grouped regime requires groups")
        lists = _grouped_lists(cohort, regime.groups)
    else:
        raise DomainError(f"no ranked lists under regime kind {regime.kind!r}")
    keep = lists.lengths > 0
    return Applications(ids=lists.ids[keep], schools=lists.schools[keep], lengths=lists.lengths[keep])
