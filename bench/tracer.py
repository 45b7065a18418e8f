"""Traced in-process run of the `meritmatch` CLI.

Wraps the public functions at the module attributes that `meritmatch` resolves
at call time (mostly `meritmatch.pipeline`'s imported names, plus `fe_ols`
inside `econometrics` and `distance_matrix` inside `popgen` and `metrics`),
then calls `meritmatch.cli.main` once per argument list. Each call into a
wrapped function records a span (name, start, end, id, parent id, seed, pid)
and bumps exact counters. Everything is kept in memory and written as JSON
when the run ends. A forked pool worker writes its own spans to the spool
directory after each seed it simulates, because its memory never returns to
the parent.

Work the benchmark adds (pickling a SeedResult to count its bytes, the
mechanism checks) runs in spans named `bench.*`, so it is kept out of every
layer's self time and can be subtracted from the traced wall time.

With CHECK=1 every merit-capped Boston year is also checked against the
properties the mechanism must have (see `_check_placements` and
`_check_equivalence`).

Usage: python3 bench/tracer.py RESULT_JSON SPOOL_DIR CHECK ARGV_LISTS_JSON
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from multiprocessing.reduction import ForkingPickler
from pathlib import Path


class Tracer:
    def __init__(self, spool_dir: Path) -> None:
        self.main_pid = os.getpid()
        self.spool_dir = spool_dir
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[str] = []
        self.counters: Counter = Counter()
        self.seed: int | None = None
        self.next_id = 0
        self.dumps = 0

    def wrap(self, name: str, fn, after=None, seed_arg: int | None = None):
        """`fn` recording a span per call; `after(args, kwargs, result)` runs
        once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:  # first call in a forked worker
                self._reset()
            if seed_arg is not None:
                self.seed = args[seed_arg] if len(args) > seed_arg else kwargs["seed"]
            self.next_id += 1
            span_id = f"{self.pid}:{self.next_id}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append([name, start, end, span_id, parent, self.seed, self.pid])
            if after is not None:
                after(args, kwargs, result)
            if seed_arg is not None:
                self.seed = None
            return result

        return traced

    def bench(self, name: str, fn, *args):
        return self.wrap(f"bench.{name}", fn)(*args)

    def count(self, key: str, amount=1):
        def after(args, kwargs, result):
            self.counters[key] += amount(args, result) if callable(amount) else amount

        return after

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counters": dict(self.counters)}))

    def spool(self) -> None:
        """In a pool worker: hand this process's spans to the parent."""
        if os.getpid() == self.main_pid:
            return
        self.dumps += 1
        self.dump(self.spool_dir / f"{self.pid}-{self.dumps}.json")
        self.spans = []
        self.counters = Counter()


def _sd_admitted(applicants, prefs, caps: dict[int, int], ties: dict[int, float]) -> set[int]:
    """Serial dictatorship in (score desc, tie-break, id) order."""
    score = {a.id: a.score for a in applicants}
    seats = dict(caps)
    admitted = set()
    for p in sorted(prefs, key=lambda p: (-score[p.applicant_id], ties[p.applicant_id], p.applicant_id)):
        for sid in p.ranked:
            if seats[sid] > 0:
                seats[sid] -= 1
                admitted.add(p.applicant_id)
                break
    return admitted


def _ties(prefs, rng) -> dict[int, float]:
    """The lottery merit-capped Boston draws: one uniform per submitter, in id order."""
    ids = sorted(p.applicant_id for p in prefs)
    return dict(zip(ids, rng.generator().random(len(ids))))


def _check_placements(tracer: Tracer, schools, applicants, prefs, rng, assignment) -> None:
    """Properties of any merit-capped Boston assignment, on the lists submitted:
    every entrant is in the merit pool (the top total-capacity submitters by
    score, then lottery), got a school on their list at the recorded rank, and
    no school exceeds its capacity."""
    caps = {s.id: s.capacity for s in schools}
    ties = _ties(prefs, rng)
    score = {a.id: a.score for a in applicants}
    order = sorted(ties, key=lambda i: (-score[i], ties[i], i))
    pool = set(order[: sum(caps.values())])
    ranked = {p.applicant_id: p.ranked for p in prefs}
    filled = Counter(pl.school_id for pl in assignment.placed.values())
    bad = sum(1 for i in assignment.placed if i not in pool)
    bad += sum(
        1
        for i, pl in assignment.placed.items()
        if ranked[i][pl.preference_rank_obtained - 1] != pl.school_id
    )
    bad += sum(1 for sid, n in filled.items() if n > caps[sid])
    tracer.counters["bench.placement_violations"] += bad


def _check_equivalence(tracer: Tracer, original, schools, applicants, rng) -> None:
    """On the same cohort and lottery, with every school ranked by utility,
    merit-capped Boston must admit the same set as serial dictatorship (the
    merit pool). With the truncated lists applicants submit, the two differ:
    serial dictatorship fills seats from below the pool."""
    from meritmatch.mechanisms import PreferenceList

    sids = sorted(s.id for s in schools)
    complete = [
        PreferenceList(a.id, tuple(sorted(sids, key=lambda s: (-a.utility[s - 1], s)))) for a in applicants
    ]
    boston = original(schools, applicants, complete, rng)
    sd = _sd_admitted(applicants, complete, {s.id: s.capacity for s in schools}, _ties(complete, rng))
    tracer.counters["bench.equivalence_years"] += 1
    tracer.counters["bench.equivalence_mismatches"] += set(boston.placed) != sd


def install(tracer: Tracer, check: bool) -> None:
    import meritmatch.cli as cli
    import meritmatch.econometrics as econometrics
    import meritmatch.metrics as metrics
    import meritmatch.pipeline as pipeline
    import meritmatch.popgen as popgen

    def placements(args, result):
        return len(result.placed)

    def file_bytes(args, result):
        return os.path.getsize(args[0])

    def after_equilibrium(args, kwargs, result):
        params = args[2] if len(args) > 2 else kwargs["params"]
        _, iterations, residual = result
        tracer.counters["strategy.decentralized_years"] += 1
        tracer.counters["strategy.equilibrium_iterations"] += iterations
        tracer.counters["strategy.converged_years"] += residual < params.tol

    def after_simulate(args, kwargs, result):
        size = tracer.bench("pickle", lambda: len(ForkingPickler.dumps(result)))
        tracer.counters["pipeline.seed_result_pickle_bytes"] += size
        tracer.spool()

    boston = pipeline.run_meritocratic_boston

    def after_boston(args, kwargs, result):
        tracer.counters["mechanisms.placements"] += len(result.placed)
        if check:
            schools, applicants, prefs, rng = args
            tracer.bench("check_placements", _check_placements, tracer, schools, applicants, prefs, rng, result)
            tracer.bench("check_equivalence", _check_equivalence, tracer, boston, schools, applicants, rng)

    def after_grouped(args, kwargs, result):
        tracer.counters["mechanisms.placements"] += len(result.placed)
        if check:
            schools, applicants, prefs, _, rng = args
            tracer.bench("check_placements", _check_placements, tracer, schools, applicants, prefs, rng, result)

    wrapped = {
        pipeline: {
            "simulate_seed": ("pipeline.simulate_seed", after_simulate, 2),
            "seed_regressions": ("pipeline.seed_regressions", None, 2),
            "generate_applicants": (
                "popgen.generate_applicants",
                tracer.count("popgen.applicants", lambda a, r: len(r)),
                None,
            ),
            "submit_applications": ("strategy.submit_applications", None, None),
            "equilibrium_cutoffs": ("strategy.equilibrium_cutoffs", after_equilibrium, None),
            "single_applications": ("strategy.single_applications", None, None),
            "run_meritocratic_boston": ("mechanisms.run_meritocratic_boston", after_boston, None),
            "run_grouped_centralized": ("mechanisms.run_grouped_centralized", after_grouped, None),
            "run_decentralized": (
                "mechanisms.run_decentralized",
                tracer.count("mechanisms.placements", placements),
                None,
            ),
            "year_outcome": ("metrics.year_outcome", None, None),
            "build_panel": ("metrics.build_panel", tracer.count("metrics.panel_rows", lambda a, r: len(r)), None),
            "write_panel_csv": ("metrics.write_panel_csv", tracer.count("metrics.csv_bytes", file_bytes), None),
            "write_year_outcomes_csv": (
                "metrics.write_year_outcomes_csv",
                tracer.count("metrics.csv_bytes", file_bytes),
                None,
            ),
            "read_panel_csv": ("metrics.read_panel_csv", None, None),
            "read_year_outcomes_csv": ("metrics.read_year_outcomes_csv", None, None),
            "did_centralization": ("econometrics.did_centralization", None, None),
            "fe_ols": ("econometrics.fe_ols", tracer.count("econometrics.fe_ols_calls"), None),
            "newey_west_ols": ("econometrics.newey_west_ols", None, None),
            "write_regressions_csv": ("pipeline.write_regressions_csv", None, None),
        },
        econometrics: {"fe_ols": ("econometrics.fe_ols", tracer.count("econometrics.fe_ols_calls"), None)},
        popgen: {"distance_matrix": ("core.distance_matrix", tracer.count("core.distance_matrix_calls"), None)},
        metrics: {"distance_matrix": ("core.distance_matrix", tracer.count("core.distance_matrix_calls"), None)},
        cli: {"run": ("pipeline.run", None, None)},
    }
    for module, attrs in wrapped.items():
        for attr, (name, after, seed_arg) in attrs.items():
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), after, seed_arg))


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    result_path, spool_dir, check, argv_lists = Path(argv[0]), Path(argv[1]), argv[2] == "1", json.loads(argv[3])
    import meritmatch.cli as cli

    tracer = Tracer(spool_dir)
    install(tracer, check)
    main_fn = tracer.wrap("cli.main", cli.main)
    codes = [main_fn(args) for args in argv_lists]
    tracer.counters["cli.exit_nonzero"] += sum(1 for c in codes if c != 0)
    tracer.dump(result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
