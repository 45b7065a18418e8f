"""Application behavior: truthful rankings for the centralized regimes and a
self-selection equilibrium for the decentralized single-application regime.

Everything here reads a year's `Cohort` and returns `Applications`: every
ranked list comes from `ranked_lists`, one stable argsort of each
applicant's utilities, and single applications from the vectorized best
response `_best_response`.

The decentralized model is a rational-expectations fixed point: applicants
hold beliefs about each school's admission cutoff, smooth the acceptance
event with a normal CDF over their own score uncertainty, and apply to the
school maximizing admission probability times surplus. That CDF is cephes'
`ndtr`, the function scipy.special.ndtr evaluates, ported bit for bit to
scalar Python (`_ndtr`). The best response works school-major, one school
per array row, and screens every applicant with a tabulated CDF instead,
linear interpolation between `_ndtr` values whose error is below
`_PHI_ERROR`; an unacceptable school weighs 0. It evaluates `_ndtr` only for
the applicants whose best screened expected value is too close to another
school's, or to 0, for that bound to order them, so every choice is the one
the exact CDF makes. A school's realized cutoff is an order statistic, the
capacity-th highest score among its applicants (the market-clearing cutoff
of Azevedo & Leshno 2016). `equilibrium_cutoffs` feeds realized cutoffs back
into beliefs with damping until they settle or `max_iter` runs out; it
computes best responses only for the applicants that can move a cutoff, and
not at all where a certified earlier state already knows the realized
cutoffs. Beliefs are an array, entry k the cutoff of school k + 1 (utility
column k). This model is a construction of this package, calibrated only to
reproduce qualitative regime differences; treat its parameters as simulation
knobs, not estimates.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Cohort, DomainError, Regime, RegimeKind, School, check_groups
from .mechanisms import Applications


# The most cutoff iterations a year may run, 10x the default: a non-converged
# year runs them all, each up to ~0.65 ms at full scale where no certified
# state answers it, so a larger count comes from a mistyped config.
_MAX_ITER = 1000


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
    bit for bit, with a period of 2 to a few dozen iterations. A year that
    does not converge runs all `max_iter` iterations, at most `_MAX_ITER`, and
    returns the state after the last: `max_iter` selects the phase of the
    cycle, so changing it changes the artifacts.

    `score_noise_sd` is 0 (no noise) or within [1e-100, 1e100]. For scores
    within 1e200 of 0, the belief floor of `equilibrium_cutoffs` and every
    standardized gap (score - cutoff) / score_noise_sd are then finite. That
    holds for every resolved scenario: `build_scenario` bounds each
    prefecture's mean score and `score_sd` by 1e100, so a drawn score is
    far within 1e200 of 0.
    """

    score_noise_sd: float = 14.0  # applicant's uncertainty about own standing
    max_iter: int = 100
    tol: float = 0.25
    damping: float = 0.5  # fraction of the realized cutoff mixed in per iteration

    def __post_init__(self) -> None:
        if not (self.score_noise_sd == 0 or 1e-100 <= self.score_noise_sd <= 1e100):
            raise DomainError(f"score_noise_sd must be 0 or within [1e-100, 1e100], got {self.score_noise_sd}")
        if self.tol <= 0:
            raise DomainError("tol must be > 0")
        if not 1 <= self.max_iter <= _MAX_ITER:
            raise DomainError(f"max_iter must be in 1..{_MAX_ITER}, got {self.max_iter}")
        if not 0 < self.damping <= 1:
            raise DomainError("damping must be in (0, 1]")


def _checked_cutoffs(cutoffs: np.ndarray, n_schools: int) -> np.ndarray:
    """`cutoffs` as a float array; a shape other than (n_schools,) or a NaN,
    which makes every applicant who finds that school acceptable abstain, is
    a DomainError."""
    cutoffs = np.asarray(cutoffs, dtype=float)
    if cutoffs.shape != (n_schools,):
        raise DomainError(f"cutoffs of shape {cutoffs.shape} for {n_schools} schools")
    nan = np.isnan(cutoffs)
    if nan.any():
        raise DomainError(f"cutoff for school {int(nan.argmax()) + 1} is NaN")
    return cutoffs


def ranked_lists(utility: np.ndarray, outside: np.ndarray) -> Applications:
    """The ranked list of every row of `utility` that values some school above
    its `outside` entry: those schools, best first, equal utilities going to
    the lower school id (column k is school k + 1). Rows that value no school
    submit nothing; the width is `utility.shape[1]`."""
    lengths = np.count_nonzero(utility > outside[:, None], axis=1)
    ids = np.flatnonzero(lengths)
    ranked = np.argsort(-utility[ids], axis=1, kind="stable") + 1
    listed = np.arange(utility.shape[1]) < lengths[ids, None]
    return Applications(ids=ids, schools=np.where(listed, ranked, 0), lengths=lengths[ids])


def _grouped_lists(cohort: Cohort, groups: tuple[frozenset[int], frozenset[int]]) -> Applications:
    """The `ranked_lists` of each applicant's best school per group (the lower
    id on ties), every other school at -inf: one school per group at most,
    listed if acceptable. The groups must split the school ids 1..S of the
    cohort's utility columns."""
    check_groups(groups, range(1, cohort.utility.shape[1] + 1))
    best = np.full(cohort.utility.shape, -np.inf)
    rows = np.arange(len(cohort))
    for g in groups:
        cols = np.array(sorted(g)) - 1
        k = cols[cohort.utility[:, cols].argmax(axis=1)]
        best[rows, k] = cohort.utility[rows, k]
    lists = ranked_lists(best, cohort.outside)
    # a copy, so the full-width array is freed
    return Applications(ids=lists.ids, schools=lists.schools[:, : len(groups)].copy(), lengths=lists.lengths)


# -- the normal CDF --------------------------------------------------------------
#
# cephes' ndtr, erf and erfc (as scipy.special evaluates them), ported with
# the same coefficients, branches and operation order, and libm's exp through
# math.exp, so `_ndtr` returns scipy.special.ndtr's double bit for bit. ndtr
# calls erf only for |x| < 1/sqrt(2) and erfc only for x >= 1/sqrt(2), so
# erf's |x| > 1 branch and erfc's reflection of a negative argument are left
# out (for x >= 0, cephes' erfc returns y even where it tests y for 0).
# libm's own erf and erfc are no substitute: in the same branches they differ
# from cephes in the last bits of 27% of a fine grid over [-5, 9], by up to 12
# ulp. p1evl's implicit leading coefficient 1.0 is written out, which
# evaluates the same as x + coef[0].

_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """The polynomial with coefficients `coef`, highest degree first, by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """cephes erf for |x| <= 1."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(x: float) -> float:
    """cephes erfc for x >= 0."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:  # exp(z) underflows
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        return (z * _polevl(x, _P)) / _polevl(x, _Q)
    return (z * _polevl(x, _R)) / _polevl(x, _S)


def _ndtr(a: float) -> float:
    """The standard normal CDF at `a`, equal bit for bit to scipy.special.ndtr(a)."""
    if a != a:
        return math.nan
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


# The screening table: `_ndtr` at _PHI_LO + k / _PHI_STEPS for k = 0..4609,
# from -9 to one step past 9; outside [-9, 9] the CDF is within Phi(-9) =
# 1.1e-19 of 0 or 1, so a point clipped to a table end errs by less than that.
# Between two points the CDF is interpolated linearly, which with step h errs
# by at most h^2 / 8 times the largest |Phi''| = |x| phi(x), phi(1) at x = +-1:
# 2^-16 / 8 * 0.242 = 4.62e-7 (4.615e-7 measured against scipy on a dense
# grid). `_PHI_ERROR` leaves 3.8e-8 above that for the rounding of the table
# coordinate, one subtraction from scores scaled once (`_best_response`): it
# moves x = (score - cutoff) / sigma by at most 2^-53 (3 m + 46), m = max
# |score| / sigma, and the CDF by 0.4 times that, below 1e-13 for m <= 400
# (m is about 7 in the shipped scenario) and below 3.8e-8 for m <= 2^24.
_PHI_LO, _PHI_STEPS, _PHI_POINTS = -9.0, 256, 4610
_PHI_ERROR = 5e-7


@functools.cache
def _phi_table() -> tuple[np.ndarray, np.ndarray]:
    """The table's values and the slope from each point to the next (0 after
    the last), read-only; built once per process, at its first noisy best
    response."""
    values = np.array([_ndtr(_PHI_LO + k / _PHI_STEPS) for k in range(_PHI_POINTS)])
    slopes = np.append(np.diff(values), 0.0)
    values.flags.writeable = slopes.flags.writeable = False
    return values, slopes


def _screened_phi(t: np.ndarray, index: np.ndarray) -> None:
    """The tabulated CDF, in place: `t` holds (x - _PHI_LO) * _PHI_STEPS, the
    table coordinate of each x (not NaN), and becomes the interpolated CDF of
    x, within `_PHI_ERROR` of `_ndtr(x)`. `index` is an intp buffer of t's
    shape."""
    values, slopes = _phi_table()
    t.clip(0, _PHI_POINTS - 2, out=t)
    np.copyto(index, t, casting="unsafe")  # the point at or below t
    np.subtract(t, index, out=t)
    np.multiply(t, slopes.take(index), out=t)
    np.add(t, values.take(index), out=t)


def _best_response(
    scores: np.ndarray, surplus: np.ndarray, sigma: float, ev: np.ndarray | None = None
) -> Callable[..., np.ndarray]:
    """Vectorized best single application as a function of the cutoffs: each
    applicant's 0-based school index, -1 = abstain (no acceptable school).
    `surplus`, each applicant's utility minus outside option (finite, as
    `_surplus` returns it), is school-major: a C-contiguous (S, n) array, so
    every array operation runs over whole school rows. It is clamped at 0 in
    place into the weights; they, the abstainers' mask and the (S, n)
    buffers, `ev` among them, are set up once. `choose(cutoffs, start,
    stop)` computes applicants `start:stop` and returns the (n,) choice
    buffer, whose other entries keep what earlier calls left there. No
    cutoff may be NaN.

    An expected value is an admission probability, from the tabulated CDF
    when sigma > 0, times a weight. An applicant whose largest one, the top,
    is the only one within a tolerance of it takes that school. The others
    with an acceptable school, those whose top lies within the tolerance of
    an unacceptable school's 0 included, are contested: recomputed with
    `_ndtr` (the step when sigma = 0) and -inf at the unacceptable schools,
    they take the first maximum and leave those values in `ev`. A screened
    value errs by at most _PHI_ERROR times its weight, so by _PHI_ERROR *
    umax, umax the largest weight; a top that leads by more than twice that,
    the tolerance, keeps its school under the exact CDF. With sigma = 0 the
    tolerance is 0; where max |score| / sigma > 2^24, too far out for the
    table coordinate's rounding, the screen is the step and it is inf."""
    n_schools = len(surplus)
    weight = np.maximum(surplus, 0.0, out=surplus)
    abstains = ~weight.any(axis=0)
    ev = np.empty(surplus.shape) if ev is None else ev
    choice = np.empty(surplus.shape[1], dtype=np.intp)
    # each value within the tolerance of its applicant's top holds its school
    # k's mark S + k; the marks sum to S + k for one such school, >= 2 S for more
    marks = np.arange(n_schools, 2 * n_schools, dtype=np.min_scalar_type(2 * n_schools**2))[:, None]
    # flat, so each call takes a contiguous piece: `take` is slow on strided indices
    near = np.empty(surplus.size, dtype=marks.dtype)
    exact_only = sigma != 0 and float(np.abs(scores).max(initial=0.0)) > 2.0**24 * sigma
    step = sigma == 0 or exact_only  # screen with the step CDF
    if step:
        column, scale, tolerance = scores, 1.0, math.inf if exact_only else 0.0
    else:
        index = np.empty(surplus.size, dtype=np.intp)
        scale = _PHI_STEPS / sigma
        column = scores * scale - _PHI_LO * _PHI_STEPS
        tolerance = 2 * _PHI_ERROR * float(weight.max(initial=0.0))

    def choose(cutoffs: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
        cols = slice(start, stop)
        buf = ev[:, cols]
        np.subtract(column[cols], (cutoffs * scale)[:, None], out=buf)
        if step:  # 1, 1/2 or 0 as the score is above, at or below the cutoff
            np.copyto(buf, np.sign(buf) * 0.5 + 0.5)
        else:
            _screened_phi(buf, index[: buf.size].reshape(buf.shape))
        np.multiply(buf, weight[:, cols], out=buf)
        # array methods, not np.max / np.flatnonzero: their Python wrappers
        # cost more than the work on a cutoff iteration's few hundred applicants
        marked = near[: buf.size].reshape(buf.shape)
        np.greater_equal(buf, buf.max(axis=0) - tolerance, out=marked)
        np.multiply(marked, marks, out=marked)
        code = np.add.reduce(marked, axis=0, dtype=marks.dtype)
        best = choice[cols]
        np.subtract(code, n_schools, out=best, casting="unsafe")
        contested = ((code >= 2 * n_schools) & ~abstains[cols]).nonzero()[0]
        if len(contested):
            at = contested + start
            if sigma == 0:
                exact = buf[:, contested]
            else:
                x = (scores[at] - cutoffs[:, None]) / sigma
                exact = np.array([_ndtr(a) for a in x.ravel().tolist()]).reshape(x.shape)
                np.multiply(exact, weight[:, at], out=exact)
            np.copyto(exact, -np.inf, where=weight[:, at] == 0)
            buf[:, contested] = exact
            best[contested] = exact.argmax(axis=0)  # first max -> lowest school index
        best[abstains[cols]] = -1
        return choice

    return choose


def _choice_radius(ev: np.ndarray, surplus: np.ndarray, rows: np.ndarray, umax: np.ndarray, sigma: float) -> float:
    """A max-norm distance r from the cutoffs at which `_best_response`
    computed the expected values `ev` (sigma > 0) such that no applicant
    of `rows` changes its choice while every cutoff moves by less than r.
    `ev` is that call's (S, n) buffer, `surplus` its surplus; each of `rows`
    has an acceptable school, and `umax` holds its largest surplus. The
    expected values of unacceptable schools are read as -inf.

    An expected value moves by at most umax * delta / (sigma * sqrt(2 pi))
    when every cutoff moves by at most delta. So an applicant whose best
    value leads its second best by `gap` keeps its first maximum while
    delta < sigma * sqrt(2 pi) / 2 * gap / umax. Of the gap, 2 * _PHI_ERROR
    * umax is held back because `ev` holds screened values, each within
    _PHI_ERROR * umax of the exact one, and 1e-11 * umax for the rounding of
    the expected values. An applicant with one acceptable school keeps it
    whatever the cutoffs (gap = inf). A tie (gap = 0) gives r < 0, which no
    distance is below."""
    gap: np.ndarray | float = np.inf
    if len(ev) > 1:
        # `take` gathers the columns several times faster than `ev[:, rows]`
        acceptable = surplus.take(rows, axis=1) > 0
        top = np.sort(np.where(acceptable, ev.take(rows, axis=1), -np.inf), axis=0)
        gap = top[-1] - top[-2]
    slack = np.min((gap - (1e-11 + 2 * _PHI_ERROR) * umax) / umax, initial=np.inf)
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


def _surplus(cohort: Cohort) -> np.ndarray:
    """Each applicant's utility minus outside option, school-major: a
    C-contiguous (S, n) array. A surplus that overflows is a DomainError
    naming the applicant, raised without a numpy warning."""
    with np.errstate(over="ignore"):
        surplus = np.subtract(cohort.utility.T, cohort.outside, order="C")
    if not np.isfinite(surplus).all():
        bad = int(np.isfinite(surplus).all(axis=0).argmin())
        raise DomainError(f"applicant {bad} has a non-finite surplus: utility minus outside option overflows")
    return surplus


def _belief_floor(scores: np.ndarray, sigma: float) -> float:
    """A cutoff level behaviorally equivalent to "no cutoff": every applicant
    clears it with probability ~1 even under score uncertainty."""
    return float(scores.min()) - 6.0 * max(sigma, 1.0) - 1.0


def equilibrium_cutoffs(
    schools: Sequence[School],
    cohort: Cohort,
    params: BehaviorParams,
    *,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float]:
    """Rational-expectations cutoffs for the single-application regime.

    Iterates best responses against beliefs and moves beliefs toward the
    realized cutoffs with damping. A realized cutoff is the order statistic
    of `_realized_cutoffs`, read from the cohort sorted by score once per
    call; no tie-break is drawn, because it cannot change that score.
    Undersubscribed schools are held at a finite floor during the iteration
    (so damping stays well defined) and reported as -inf in the returned
    beliefs. Entry k of `initial` and of the returned beliefs is the cutoff
    of school k + 1 (utility column k; school ids are 1..S); `initial` holds
    one per school, none NaN. Returns (beliefs, iterations used, final
    residual); non-convergence is flagged by residual >= tol and a
    RuntimeWarning, not raised. A surplus that overflows is a DomainError
    (`_surplus`).

    Each iteration evaluates best responses in score order for the rows
    down to the previous iteration's last capacity-th chooser, plus a fixed
    margin of 1/16 of the cohort; the first iteration takes the rows scoring
    at least the lowest starting cutoff, plus the margin. If a school with
    positive capacity is still short of its capacity there, the remaining
    rows are evaluated into the same buffer, so no row is computed twice in
    an iteration. Rows are independent and sorted by score, so the realized
    cutoffs equal those of a full best response.

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
    computes it. A year that does not converge runs all `max_iter`
    iterations; in a cycle, the certificates reuse the earlier states'
    realized cutoffs.
    """
    caps = np.array([s.capacity for s in sorted(schools, key=lambda s: s.id)])
    initial = np.full(len(caps), -np.inf) if initial is None else _checked_cutoffs(initial, len(caps))
    if not len(cohort):
        return np.full(len(caps), -np.inf), 1, 0.0
    if cohort.utility.shape[1] != len(caps):
        raise DomainError("applicant utility vectors do not match the school count")
    order = np.argsort(-cohort.score)
    scores = cohort.score[order]
    surplus = _surplus(cohort).take(order, axis=1)
    ev = np.empty(surplus.shape)
    choose = _best_response(scores, surplus, params.score_noise_sd, ev)

    floor = _belief_floor(scores, params.score_noise_sd)
    cutoffs = np.where(np.isfinite(initial), np.maximum(initial, floor), floor)
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
    # each row's largest positive surplus; the rows without one abstain whatever the cutoffs
    umax = surplus.max(axis=0)
    acceptable = np.flatnonzero(umax > 0)
    umax = umax[acceptable]
    centers, radii = np.empty((params.max_iter, len(caps))), np.empty(params.max_iter)
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
                # the rows that decide the realized cutoffs: those down to
                # the last capacity-th chooser, or all when a school is short
                rows = acceptable[: np.searchsorted(acceptable, n if short(realized) else decided)]
                radius = _choice_radius(ev, surplus, rows, umax[: len(rows)], params.score_noise_sd)
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
    if residual >= params.tol:
        warnings.warn(
            f"cutoff iteration did not converge in {params.max_iter} iterations (residual {residual:.3g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return np.where(undersubscribed, -np.inf, cutoffs), iterations, residual


def single_applications(
    cohort: Cohort,
    cutoffs: np.ndarray,
    params: BehaviorParams,
) -> Applications:
    """Best-response single applications against given cutoff beliefs, in
    increasing applicant id; abstainers submit nothing. Entry k of `cutoffs`
    is the cutoff of school k + 1, the school of utility column k; an array
    without one entry per column, or with a NaN, is a DomainError, as is a
    surplus that overflows (`_surplus`)."""
    cutoffs = _checked_cutoffs(cutoffs, cohort.utility.shape[1])
    surplus = _surplus(cohort)
    choice = _best_response(cohort.score, surplus, params.score_noise_sd)(cutoffs)
    applied = choice >= 0
    return Applications(
        ids=np.flatnonzero(applied),
        schools=choice[applied, None] + 1,
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
        return ranked_lists(cohort.utility, cohort.outside)
    if regime.kind == RegimeKind.GROUPED_CENTRALIZED:
        if regime.groups is None:
            raise DomainError("grouped regime requires groups")
        return _grouped_lists(cohort, regime.groups)
    raise DomainError(f"no ranked lists under regime kind {regime.kind!r}")
