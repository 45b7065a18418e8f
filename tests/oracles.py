"""Independent reference implementations used only by the test suite.

These deliberately re-derive results with the plainest possible code, so the
package implementations are checked against a second, structurally different
route: a literal step-by-step executor for the centralized assignment rounds,
dict-based Boston rounds and per-applicant truthful rankings (the scalar code
the array mechanisms replaced), a dict-based serial dictatorship (the
deferred-acceptance benchmark merit-capped Boston must match in admitted
set), a per-school sort for the decentralized rule,
a per-applicant loop for the single-application choice, scipy's ndtr for
the screened best response, the lexsort cutoff loop the order-statistic
loop replaced, a walk over `Placement` objects for a year's outcome and
entrant counts (the loop the assignment arrays replaced), one object per
(prefecture, year, school) for the panels (the row builder the column panels
replaced),
subset/assignment enumeration for the dominance check, dummy-variable OLS
for the within estimator, and the earlier forms of three kernels, which
their replacements must match byte for byte: the `csv.writer` panel writer,
and the `np.add.at` group sums of the demeaning, swept to tolerance, and
of the clustered meat in the within estimator; and the two list builders
`ranked_lists` replaced, whose arrays `submit_applications` must match in
values, shape and dtype.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from meritmatch.core import DomainError, Placement, distance_matrix
from meritmatch.mechanisms import Applications, PreferenceList, _admit_top_per_school
from meritmatch.metrics import PANEL_COLUMNS, PANEL_FLAGS, YearOutcome, _fmt


def printed_steps_assignment(schools, applicants, prefs, tie):
    """Literal executor of the published assignment steps.

    Step 1: in score order (ties by the given lottery numbers), select as
    many applicants as total capacity. Steps 2-4: round r assigns held
    applicants, in score order, to the r-th school on their list if it still
    has a seat. Step 5: an exhausted list means no admission.
    Returns (placed: id -> (school, round), unassigned set, pool set).
    """
    caps = {s.id: s.capacity for s in schools}
    score = {a.id: a.score for a in applicants}
    ranked = {p.applicant_id: list(p.ranked) for p in prefs}
    submitters = list(ranked)

    def priority(aid):
        return (-score[aid], tie[aid], aid)

    total = sum(caps.values())
    pool = sorted(submitters, key=priority)[:total]
    pool_set = set(pool)

    placed = {}
    unassigned = set(a for a in submitters if a not in pool_set)
    held = sorted(pool_set, key=priority)
    r = 1
    while held:
        still_held = []
        for aid in held:
            choices = ranked[aid]
            if r > len(choices):
                unassigned.add(aid)
                continue
            sid = choices[r - 1]
            if caps[sid] > 0:
                caps[sid] -= 1
                placed[aid] = (sid, r)
            else:
                still_held.append(aid)
        held = still_held
        r += 1
    return placed, unassigned, pool_set


def scalar_boston_rounds(schools, applicants, prefs, tie, merit_capped=True):
    """Boston rounds over dicts, one applicant at a time. Priority is (higher
    score, lower tie, lower id); with `merit_capped` only the top
    total-capacity submitters take part. Round r: applicants still held
    propose, in priority order, to the r-th school on their list; a school
    accepts while seats remain. Exhausted lists leave the applicant
    unassigned; seats are never backfilled. Returns (placed: id -> Placement
    in admission order, unassigned set)."""
    seats = {s.id: s.capacity for s in schools}
    scores = {a.id: a.score for a in applicants}
    ranked = {p.applicant_id: p.ranked for p in prefs}

    def by_priority(ids):
        return sorted(ids, key=lambda i: (-scores[i], tie[i], i))

    eligible = set(by_priority(ranked))
    if merit_capped:
        eligible = set(by_priority(ranked)[: sum(seats.values())])
    placed = {}
    unassigned = {i for i in ranked if i not in eligible}
    active = [i for i in ranked if i in eligible]
    r = 1
    while active:
        active = by_priority(active)
        held = []
        for aid in active:
            lst = ranked[aid]
            if len(lst) < r:
                unassigned.add(aid)
                continue
            sid = lst[r - 1]
            if seats[sid] > 0:
                seats[sid] -= 1
                placed[aid] = Placement(school_id=sid, preference_rank_obtained=r)
            else:
                held.append(aid)
        active = held
        r += 1
    return placed, unassigned


def scalar_serial_dictatorship(schools, applicants, prefs, tie):
    """Serial dictatorship over dicts: in priority order (higher score, lower
    tie, lower id), each submitter takes the first school on their list with
    a free seat. Returns (placed: id -> Placement in admission order,
    unassigned set), the rank obtained being the list position of the school.

    With a single common score priority on the school side, applicant-proposing
    deferred acceptance collapses to this: no school ever rejects a
    tentatively held applicant for a later proposer, because every later
    proposer has lower priority at every school. So this is the
    deferred-acceptance benchmark, and with complete lists merit-capped Boston
    admits the same set (criterion 1). It shares no code with the package's
    mechanisms: its own sort and its own seat walk."""
    seats = {s.id: s.capacity for s in schools}
    scores = {a.id: a.score for a in applicants}
    placed = {}
    unassigned = set()
    for p in sorted(prefs, key=lambda p: (-scores[p.applicant_id], tie[p.applicant_id], p.applicant_id)):
        for r, sid in enumerate(p.ranked, start=1):
            if seats[sid] > 0:
                seats[sid] -= 1
                placed[p.applicant_id] = Placement(school_id=sid, preference_rank_obtained=r)
                break
        else:
            unassigned.add(p.applicant_id)
    return placed, unassigned


def scalar_truthful_ranking(applicant):
    """Schools strictly better than the outside option, best first; equal
    utilities break toward the lower school id."""
    entries = [
        (u, sid)
        for sid, u in enumerate(applicant.utility, start=1)
        if u > applicant.outside_option
    ]
    entries.sort(key=lambda e: (-e[0], e[1]))
    return PreferenceList(applicant_id=applicant.id, ranked=tuple(sid for _, sid in entries))


def scalar_grouped_ranking(applicant, groups):
    """Truthful list under the one-school-per-group constraint: the best
    acceptable school of each group, groups ordered by that school's utility."""
    entries = []
    for g in groups:
        best = None
        for sid in sorted(g):
            u = applicant.utility[sid - 1]
            if u > applicant.outside_option and (best is None or u > best[0]):
                best = (u, sid)
        if best is not None:
            entries.append(best)
    entries.sort(key=lambda e: (-e[0], e[1]))
    return PreferenceList(applicant_id=applicant.id, ranked=tuple(sid for _, sid in entries))


def argsort_truthful_lists(cohort):
    """The submitters' truthful lists as the centralized years built them
    before `ranked_lists`: every row sorted, then the empty lists dropped."""
    ranked = np.argsort(-cohort.utility, axis=1, kind="stable") + 1
    lengths = np.count_nonzero(cohort.utility > cohort.outside[:, None], axis=1)
    listed = np.arange(ranked.shape[1]) < lengths[:, None]
    keep = lengths > 0
    return Applications(np.arange(len(cohort))[keep], np.where(listed, ranked, 0)[keep], lengths[keep])


def lexsort_grouped_lists(cohort, groups):
    """The submitters' one-school-per-group lists as the grouped years built
    them before `ranked_lists`: each group's best acceptable school, the
    groups ordered by one `lexsort` of (utility, school id)."""
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
    keep = lengths > 0
    return Applications(rows[keep], np.where(listed, ranked, 0)[keep], lengths[keep])


def per_school_top(schools, applicants, apps, tie):
    """Decentralized rule, the obvious way: sort each school's applicants.
    Each of `apps` lists one school."""
    score = {a.id: a.score for a in applicants}
    by_school = {}
    for app in apps:
        (sid,) = app.ranked
        by_school.setdefault(sid, []).append(app.applicant_id)
    placed = {}
    for s in schools:
        takers = sorted(by_school.get(s.id, []), key=lambda i: (-score[i], tie[i], i))
        for aid in takers[: s.capacity]:
            placed[aid] = s.id
    unassigned = {a.applicant_id for a in apps} - set(placed)
    return placed, unassigned


def admit_probability(score, cutoff, sigma):
    """Probability of clearing `cutoff` given score uncertainty `sigma`.

    sigma=0 degenerates to the step function, with 1/2 exactly at the cutoff.
    """
    if sigma < 0:
        raise DomainError("sigma must be >= 0")
    if cutoff == float("-inf"):
        return 1.0
    if sigma == 0:
        if score > cutoff:
            return 1.0
        return 0.5 if score == cutoff else 0.0
    return float(ndtr((score - cutoff) / sigma))


def choose_single_application(applicant, cutoffs, params):
    """One applicant's single application: the school maximizing admission
    probability times surplus among schools better than the outside option,
    the lowest school id on ties; None means abstain. School k + 1 has
    utility entry k and cutoff `cutoffs[k]`."""
    best = None
    for sid, (utility, cutoff) in enumerate(zip(applicant.utility, cutoffs, strict=True), start=1):
        surplus = utility - applicant.outside_option
        if surplus <= 0:
            continue
        value = admit_probability(applicant.score, cutoff, params.score_noise_sd) * surplus
        if best is None or value > best[0]:
            best = (value, sid)
    if best is None:
        return None
    return PreferenceList(applicant_id=applicant.id, ranked=(best[1],))


def scipy_best_response(scores, surplus, sigma, cutoffs):
    """The noisy best response as `_best_response` computed it before it
    screened rows with a tabulated CDF: scipy's ndtr on every cell, the first
    maximum of each row, -1 where that maximum is not finite. Returns
    (choices, expected values)."""
    ev = ndtr((scores[:, None] - cutoffs) / sigma) * surplus
    ev[~(surplus > 0)] = -np.inf
    choice = np.argmax(ev, axis=1)
    choice[~np.isfinite(ev[np.arange(len(ev)), choice])] = -1
    return choice, ev


def admitted_cutoffs(choice, scores, ties, caps):
    """Each school's realized cutoff under `_admit_top_per_school`: the lowest
    admitted score at schools with positive capacity that filled, -inf
    elsewhere."""
    admitted = _admit_top_per_school(choice, scores, ties, caps)
    cutoffs = np.full(len(caps), -np.inf)
    for k, cap in enumerate(caps):
        mine = admitted & (choice == k)
        if cap > 0 and np.count_nonzero(mine) == cap:
            cutoffs[k] = scores[mine].min()
    return cutoffs


def lexsort_equilibrium_cutoffs(schools, applicants, params, ties, initial=None):
    """The cutoff loop `equilibrium_cutoffs` replaced: every iteration
    recomputes each applicant's best response in id order and admits each
    school's top capacity by (score, `ties`) through `_admit_top_per_school`,
    whose lowest admitted score is the realized cutoff (`admitted_cutoffs`).
    Returns (cutoffs in increasing school id, iterations, residual); the
    initial cutoffs are read by position."""
    caps = np.array([s.capacity for s in sorted(schools, key=lambda s: s.id)], dtype=np.int64)
    scores, utilities, outside = applicants.score, applicants.utility, applicants.outside
    sigma = params.score_noise_sd
    floor = float(scores.min()) - 6.0 * max(sigma, 1.0) - 1.0
    if initial is not None:
        cutoffs = np.array([max(c, floor) if math.isfinite(c) else floor for c in initial])
    else:
        cutoffs = np.full(len(caps), floor)
    undersubscribed = np.ones(len(caps), dtype=bool)
    iterations = 0
    residual = math.inf
    for iterations in range(1, params.max_iter + 1):
        if sigma == 0:
            diff = scores[:, None] - cutoffs[None, :]
            prob = np.where(diff > 0, 1.0, np.where(diff == 0, 0.5, 0.0))
            prob = np.where(np.isinf(cutoffs)[None, :] & (cutoffs < 0)[None, :], 1.0, prob)
        else:
            prob = ndtr((scores[:, None] - cutoffs[None, :]) / sigma)
        surplus = utilities - outside[:, None]
        ev = np.where(surplus > 0, prob * surplus, -np.inf)
        choice = np.argmax(ev, axis=1)
        choice[~np.isfinite(ev[np.arange(len(choice)), choice])] = -1
        realized = admitted_cutoffs(choice, scores, ties, caps)
        undersubscribed = np.isneginf(realized)
        target = np.where(undersubscribed, floor, realized)
        new = (1 - params.damping) * cutoffs + params.damping * target
        residual = float(np.max(np.abs(new - cutoffs)))
        cutoffs = new
        if residual < params.tol:
            break
    return np.where(undersubscribed, -np.inf, cutoffs), iterations, residual


def _placed_births(placed, cohort):
    """The birth prefecture of each placed applicant, looked up one id (its
    cohort row) at a time."""
    births = cohort.birth.tolist()
    return [births[i] for i in placed]


def walked_year_outcome(apps, assignment, prefectures, schools, cohort, year, regime):
    """`metrics.year_outcome` as a walk over the placements of
    `Assignment.placed`: distances added one at a time in admission order,
    starting from 0.0, and urban entrants counted one at a time."""
    n_apps = len(apps)
    share_first = None
    if n_apps:
        share_first = int(np.count_nonzero(apps.schools[:, :1] == 1)) / n_apps
    host = {s.id: s.prefecture_id for s in schools}
    dmat = distance_matrix(prefectures)
    urban = [p.urban for p in prefectures]
    placed = assignment.placed
    dist_sum = 0.0
    urban_count = 0
    for b, placement in zip(_placed_births(placed, cohort), placed.values()):
        dist_sum += dmat[b, host[placement.school_id]]
        urban_count += urban[b]
    n_placed = len(placed)
    return YearOutcome(
        year=year,
        regime=regime,
        share_first_choice_school1=share_first,
        mean_enrollment_distance_km=float(dist_sum / n_placed) if n_placed else None,
        tokyo_area_entrant_share=urban_count / n_placed if n_placed else None,
        entrants_total=n_placed,
        unassigned_total=len(assignment.unassigned),
    )


def walked_year_counts(assignment, cohort, prefectures, schools):
    """`metrics.year_counts` as a walk over `Assignment.placed`, one entrant
    at a time."""
    column = {sid: k for k, sid in enumerate(sorted(s.id for s in schools))}
    entrants = np.zeros((len(prefectures), len(schools)), dtype=np.int64)
    placed = assignment.placed
    for b, placement in zip(_placed_births(placed, cohort), placed.values()):
        entrants[b, column[placement.school_id]] += 1
    counts = np.zeros(len(prefectures), dtype=np.int64)
    for b in cohort.birth.tolist():
        counts[b] += 1
    return entrants, counts


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


def row_build_panel(entrants, graduates, schedule, prefectures, schools):
    """Panel rows for every (prefecture, year) and (prefecture, year, school),
    year-major; within a prefecture the all-schools row comes first. Year t
    is `schedule[t]`, with entrants `entrants[t]` by (prefecture, school)
    and graduates `graduates[t]`; prefecture p is `prefectures[p]`."""
    schools_sorted = sorted(schools, key=lambda s: s.id)
    dmat = distance_matrix(prefectures)
    host = {s.id: s.prefecture_id for s in schools_sorted}
    tokyo = next(i for i, p in enumerate(prefectures) if p.name == "Tokyo")

    school_dist = {s.id: dmat[:, host[s.id]] for s in schools_sorted}
    nearest = np.min(np.stack([school_dist[s.id] for s in schools_sorted]), axis=0)

    rows = []
    for t, regime in enumerate(schedule):
        centralized = regime.kind.is_centralized
        year_entrants = entrants[t].tolist()
        for i, p in enumerate(prefectures):
            grads = float(graduates[t][i])
            near = p.urban and i != tokyo
            rows.append(
                PanelRow(
                    i, regime.year, None, sum(year_entrants[i]), centralized,
                    bool(nearest[i] == 0.0), bool(0.0 < nearest[i] <= 100.0), i == tokyo, near, grads,
                )
            )
            for k, s in enumerate(schools_sorted):
                d = school_dist[s.id][i]
                rows.append(
                    PanelRow(
                        i, regime.year, s.id, year_entrants[i][k], centralized,
                        bool(d == 0.0), bool(0.0 < d <= 100.0), i == tokyo, near, grads,
                    )
                )
    return rows


def panel_to_columns(rows):
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


def dominates_all_feasible_sets(scores_by_id, admitted, total_capacity):
    """Check that `admitted` first-order stochastically dominates every
    feasible admitted set.

    With complete preference lists any applicant can fill any seat, so a set
    is feasible exactly when its size is at most total capacity; enumerating
    subsets therefore covers every capacity-feasible assignment's admitted
    set. Dominance of upper-tail counts at every threshold is equivalent to
    the sorted elementwise comparison used here.
    """
    ids = sorted(scores_by_id)
    ours = sorted((scores_by_id[a] for a in admitted), reverse=True)
    for k in range(0, min(total_capacity, len(ids)) + 1):
        for combo in itertools.combinations(ids, k):
            theirs = sorted((scores_by_id[a] for a in combo), reverse=True)
            for i, s in enumerate(theirs):
                if i >= len(ours) or ours[i] < s:
                    return False
    return True


def dominates_all_feasible_assignments(scores_by_id, admitted, capacities):
    """Same check by enumerating every applicant->school-or-none assignment
    subject to capacities (exponential; only for tiny instances)."""
    ids = sorted(scores_by_id)
    ours = sorted((scores_by_id[a] for a in admitted), reverse=True)
    n_schools = len(capacities)
    for assignment in itertools.product(range(-1, n_schools), repeat=len(ids)):
        counts = [0] * n_schools
        ok = True
        for slot in assignment:
            if slot >= 0:
                counts[slot] += 1
                if counts[slot] > capacities[slot]:
                    ok = False
                    break
        if not ok:
            continue
        theirs = sorted(
            (scores_by_id[a] for a, slot in zip(ids, assignment) if slot >= 0), reverse=True
        )
        for i, s in enumerate(theirs):
            if i >= len(ours) or ours[i] < s:
                return False
    return True


def dummy_ols(y, X, unit_codes=None, time_codes=None):
    """Full dummy-variable OLS; returns the coefficients on X's columns."""
    blocks = [X]
    if unit_codes is not None:
        n_units = unit_codes.max() + 1
        blocks.append(np.eye(n_units)[unit_codes])
    if time_codes is not None:
        n_times = time_codes.max() + 1
        dummies = np.eye(n_times)[time_codes]
        if unit_codes is not None:
            dummies = dummies[:, 1:]  # drop one to avoid the shared constant
        blocks.append(dummies)
    if unit_codes is None and time_codes is None:
        blocks.append(np.ones((len(y), 1)))
    full = np.column_stack(blocks)
    beta, *_ = np.linalg.lstsq(full, y, rcond=None)
    return beta[: X.shape[1]]


def direct_cluster_cov(Xt, resid, codes, n_params_total):
    """Cluster sandwich assembled with explicit per-cluster loops."""
    n = Xt.shape[0]
    groups = sorted(set(codes.tolist()))
    bread = np.linalg.inv(Xt.T @ Xt)
    meat = np.zeros((Xt.shape[1], Xt.shape[1]))
    for g in groups:
        mask = codes == g
        s_g = Xt[mask].T @ resid[mask]
        meat += np.outer(s_g, s_g)
    G = len(groups)
    factor = (G / (G - 1.0)) * ((n - 1.0) / (n - n_params_total))
    cov = bread @ (factor * meat) @ bread
    return (cov + cov.T) / 2.0


def csv_writer_panel_csv(path, panels, school_id=None):
    """`metrics.write_panel_csv` through `csv.writer`, field by field."""
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


def add_at_group_sums(Z, codes, n_groups):
    """Group sums of Z's rows by `np.add.at`."""
    sums = np.zeros((n_groups, Z.shape[1]))
    np.add.at(sums, codes, Z)
    return sums


def add_at_group_demean(Z, codes, n_groups):
    """Z less its group means: `np.add.at` sums, gathered per row, then divided."""
    sums = add_at_group_sums(Z, codes, n_groups)
    counts = np.bincount(codes, minlength=n_groups).astype(float)
    counts[counts == 0] = 1.0
    return Z - sums[codes] / counts[codes, None]


DEMEAN_MAX_SWEEPS, DEMEAN_TOL = 100, 1e-10


def add_at_two_way_demean(Z, unit_codes, time_codes):
    """Alternating unit and time demeaning by `add_at_group_demean`, swept
    until the largest change of a sweep falls below `DEMEAN_TOL`, at most
    `DEMEAN_MAX_SWEEPS` times. The codes are 0..G-1."""
    n_units, n_times = unit_codes.max() + 1, time_codes.max() + 1
    for _ in range(DEMEAN_MAX_SWEEPS):
        prev = Z
        Z = add_at_group_demean(add_at_group_demean(Z, unit_codes, n_units), time_codes, n_times)
        if float(np.max(np.abs(Z - prev))) < DEMEAN_TOL:
            break
    return Z


def add_at_fe_ols(y, X, unit_codes, time_codes):
    """The coefficients and clustered covariance of `econometrics.fe_ols`,
    step by step, with the `np.add.at` group sums and demeaning swept to
    tolerance. The codes are 0..G-1."""
    n, k = X.shape
    n_units, n_times = unit_codes.max() + 1, time_codes.max() + 1
    Z = add_at_two_way_demean(np.column_stack([y, X]), unit_codes, time_codes)
    yt, Xt = Z[:, 0], Z[:, 1:]
    beta, *_ = np.linalg.lstsq(Xt, yt, rcond=None)
    resid = yt - Xt @ beta
    bread = np.linalg.inv(Xt.T @ Xt)
    sums = add_at_group_sums(Xt * resid[:, None], unit_codes, n_units)
    factor = (n_units / (n_units - 1.0)) * ((n - 1.0) / (n - (k + n_units + n_times - 1)))
    cov = bread @ (factor * (sums.T @ sums)) @ bread
    return beta, (cov + cov.T) / 2.0
