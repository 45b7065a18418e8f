"""Benchmark of the `meritmatch run` CLI on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
With `--trace 0` the CLI runs in fresh processes, as a user runs it, until the
invocations have taken S seconds, and the end-to-end metrics are reported.
With `--trace 1` the workload runs once untraced and twice under
`bench/tracer.py`, and the per-layer metrics are reported. Every run checks
the artifacts with `bench/check.py`; the traced run also checks the mechanism
properties, that the exact counters repeat, and that tracing leaves the
artifacts byte-identical. A human-readable summary goes to stderr; the last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Outputs are written under `bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from check import check_artifacts

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ROOT / "bench_out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    seeds: int  # consecutive CLI seeds per round
    config: dict | None  # scenario config written to a file; None = the default scenario
    invocations: tuple[tuple[str, ...], ...]  # extra CLI arguments, one tuple per process


# Why each workload exists is in README.md. Rounds are kept at 8-13 s on 2
# cores so that a 20 s run holds two or three of them and reports their
# median: machine speed drifts by 10-20% between runs on a shared host.
WORKLOADS = {
    "full_scale": Workload(1, None, (("--jobs", "1"),)),
    "full_scale_jobs2": Workload(2, None, (("--jobs", "2"),)),
    "small_markets_staged": Workload(
        10,
        {"scale": 0.05},
        (("--stages", "simulate,metrics"), ("--stages", "estimate")),
    ),
}

E2E_UNITS = {"setup_s": "s", "seeds_per_s": "seeds/s", "peak_rss_mb": "MB"}
# per-layer time metric -> span names whose durations it sums
LAYER_TIMES = {
    "popgen.generate_applicants_s": ("popgen.generate_applicants",),
    "strategy.equilibrium_cutoffs_s": ("strategy.equilibrium_cutoffs",),
    "strategy.single_applications_s": ("strategy.single_applications",),
    "strategy.submit_applications_s": ("strategy.submit_applications",),
    "mechanisms.run_meritocratic_boston_s": (
        "mechanisms.run_meritocratic_boston",
        "mechanisms.run_grouped_centralized",
    ),
    "mechanisms.run_decentralized_s": ("mechanisms.run_decentralized",),
    "metrics.year_outcome_s": ("metrics.year_outcome",),
    "metrics.build_panel_s": ("metrics.build_panel",),
    "metrics.write_csv_s": ("metrics.write_panel_csv", "metrics.write_year_outcomes_csv"),
    "metrics.read_csv_s": ("metrics.read_panel_csv", "metrics.read_year_outcomes_csv"),
    "econometrics.fe_ols_s": ("econometrics.fe_ols",),
    "econometrics.newey_west_ols_s": ("econometrics.newey_west_ols",),
}
LAYER_SELF_TIMES = {
    "pipeline.simulate_seed_self_s": "pipeline.simulate_seed",
    "pipeline.seed_regressions_self_s": "pipeline.seed_regressions",
}
# exact per-layer counters -> unit; they must repeat between runs of the same seeds
LAYER_COUNTS = {
    "popgen.applicants": "count",
    "strategy.equilibrium_iterations": "count",
    "strategy.decentralized_years": "count",
    "mechanisms.placements": "count",
    "metrics.panel_rows": "count",
    "metrics.csv_bytes": "bytes",
    "econometrics.fe_ols_calls": "count",
    "pipeline.seed_result_pickle_bytes": "bytes",
    "core.distance_matrix_calls": "count",
}
EXACT_COUNTERS = (*LAYER_COUNTS, "strategy.converged_years")


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float


def _env(out_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MERITMATCH_OUT"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(out_dir / "tmp")
    return env


def run_child(argv: list[str], env: dict, log: Path) -> Child:
    """Run one process to its end; wall time and the peak RSS of it and of
    every process it waited for (its pool workers)."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=fh, start_new_session=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: stop the child's whole session first
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


class Runner:
    def __init__(self, name: str, seed: int) -> None:
        self.workload = WORKLOADS[name]
        self.first_seed = seed * 100
        self.seeds = list(range(self.first_seed, self.first_seed + self.workload.seeds))
        self.out = OUT_ROOT / name
        shutil.rmtree(self.out, ignore_errors=True)
        (self.out / "tmp").mkdir(parents=True)
        self.env = _env(self.out)
        self.log = self.out / "children.log"
        self.config_path = None
        if self.workload.config is not None:
            self.config_path = self.out / "config.json"
            self.config_path.write_text(json.dumps(self.workload.config))

    def cli_args(self, out_dir: Path) -> list[list[str]]:
        base = ["run", "--seed", str(self.first_seed), "--seeds", str(self.workload.seeds), "--out", str(out_dir)]
        if self.config_path is not None:
            base += ["--config", str(self.config_path)]
        return [base + list(extra) for extra in self.workload.invocations]

    def setup_s(self) -> float:
        """Median time for a fresh interpreter to import meritmatch and
        resolve the workload's config."""
        code = "import sys, meritmatch.pipeline as p; p.resolve_config(sys.argv[1] or None)"
        argv = [sys.executable, "-c", code, str(self.config_path or "")]
        times = []
        for _ in range(SETUP_REPEATS):
            child = run_child(argv, self.env, self.log)
            if child.code != 0:
                raise RuntimeError(f"setup exited with {child.code}; see {self.log}")
            times.append(child.wall_s)
        return statistics.median(times)

    def round(self, out_dir: Path) -> list[Child]:
        """One pass of the workload's CLI invocations into an empty directory;
        stops at the first invocation that fails."""
        shutil.rmtree(out_dir, ignore_errors=True)
        children = []
        for args in self.cli_args(out_dir):
            children.append(run_child([sys.executable, "-m", "meritmatch.cli"] + args, self.env, self.log))
            if children[-1].code != 0:
                break
        return children

    def check(self, out_dir: Path) -> list[str]:
        try:
            return check_artifacts(out_dir, self.seeds)
        except (OSError, LookupError, ValueError) as exc:  # missing or malformed artifact
            return [f"unreadable artifacts in {out_dir}: {exc!r}"]


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_end_to_end(runner: Runner, seconds: float) -> dict:
    setup = runner.setup_s()
    out_dir = runner.out / "artifacts"
    rates, rss, problems = [], [], []
    attempted = failed = 0
    measured = 0.0
    while measured < seconds:
        children = runner.round(out_dir)
        wall = sum(c.wall_s for c in children)
        measured += wall
        rss.extend(c.peak_rss_mb for c in children)
        attempted += len(runner.seeds)
        if children[-1].code != 0 or len(children) != len(runner.workload.invocations):
            failed += len(runner.seeds)
            continue
        rates.append(len(runner.seeds) / wall)
        problems += runner.check(out_dir)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    print(
        f"rounds={len(rss) // len(runner.workload.invocations)} seeds/round={len(runner.seeds)} "
        f"rates={[round(r, 4) for r in rates]} setup={setup:.3f}s peak_rss={max(rss):.1f}MB",
        file=sys.stderr,
    )
    values = {
        "setup_s": setup,
        "seeds_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": max(rss),
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return _result(not problems, attempted, failed, metrics)


# -- traced run ----------------------------------------------------------------


def _self_times(spans: list[list]) -> dict[str, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, span_id, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for name, start, end, span_id, *_ in spans:
        covered, reach = 0.0, start
        for s, e in sorted(children[span_id]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out[span_id] = (end - start) - covered
    return out


def _load_trace(result_path: Path, spool_dir: Path) -> tuple[list[list], dict]:
    parts = [json.loads(result_path.read_text())]
    parts += [json.loads(p.read_text()) for p in sorted(spool_dir.glob("*.json"))]
    spans = [s for p in parts for s in p["spans"]]
    counters: dict[str, int] = defaultdict(int)
    for p in parts:
        for k, v in p["counters"].items():
            counters[k] += v
    return spans, dict(counters)


def _digest(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def _traced_pass(runner: Runner, k: int, check: bool) -> tuple[Child, list[list], dict, Path]:
    out_dir = runner.out / f"traced{k}"
    spool = runner.out / f"spool{k}"
    result = runner.out / f"trace{k}.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    spool.mkdir()
    argv = [
        sys.executable,
        str(BENCH_DIR / "tracer.py"),
        str(result),
        str(spool),
        "1" if check else "0",
        json.dumps(runner.cli_args(out_dir)),
    ]
    child = run_child(argv, runner.env, runner.log)
    if child.code != 0:
        return child, [], {}, out_dir
    spans, counters = _load_trace(result, spool)
    return child, spans, counters, out_dir


def _bench_critical_path_s(spans: list[list]) -> float:
    """Time the benchmark's own `bench.*` spans add to the traced wall: all of
    it in the CLI process, and the pool workers' share split evenly across
    the workers, which run side by side."""
    main_pid = next(s[6] for s in spans if s[0] == "cli.main")
    bench = [s for s in spans if s[0].startswith("bench.")]
    in_main = sum(s[2] - s[1] for s in bench if s[6] == main_pid)
    in_workers = sum(s[2] - s[1] for s in bench if s[6] != main_pid)
    workers = {s[6] for s in spans if s[6] != main_pid}
    return in_main + (in_workers / len(workers) if workers else 0.0)


def _layer_metrics(spans: list[list], counters: dict, self_time: dict[str, float]) -> dict[str, float]:
    total = defaultdict(float)
    self_total = defaultdict(float)
    for name, start, end, span_id, *_ in spans:
        total[name] += end - start
        self_total[name] += self_time[span_id]
    out = {k: sum(total[n] for n in names) for k, names in LAYER_TIMES.items()}
    out.update({k: self_total[n] for k, n in LAYER_SELF_TIMES.items()})
    out.update({k: counters.get(k, 0) for k in LAYER_COUNTS})
    years = counters.get("strategy.decentralized_years", 0)
    out["strategy.converged_ratio"] = counters.get("strategy.converged_years", 0) / years if years else 1.0
    return out


def run_traced(runner: Runner) -> dict:
    """One untraced round, then two traced passes of the same seeds."""
    problems: list[str] = []
    attempted, failed = 3 * len(runner.seeds), 0
    untraced_dir = runner.out / "untraced"
    children = runner.round(untraced_dir)
    if children[-1].code != 0 or len(children) != len(runner.workload.invocations):
        return _result(True, attempted, attempted, {})
    problems += runner.check(untraced_dir)
    untraced_wall = sum(c.wall_s for c in children)
    reference = _digest(untraced_dir)

    passes = []
    for k, check in ((1, True), (2, False)):
        child, spans, counters, out_dir = _traced_pass(runner, k, check)
        if child.code != 0 or counters.get("cli.exit_nonzero", 0):
            failed += len(runner.seeds)
            continue
        if _digest(out_dir) != reference:
            problems.append(f"traced pass {k} artifacts differ from the untraced run")
        problems += runner.check(out_dir)
        passes.append((child, spans, counters))
    if len(passes) != 2:
        return _result(not problems, attempted, failed, {})

    exact = [{k: c.get(k, 0) for k in EXACT_COUNTERS} for _, _, c in passes]
    if exact[0] != exact[1]:
        diff = {k: (exact[0][k], exact[1][k]) for k in EXACT_COUNTERS if exact[0][k] != exact[1][k]}
        problems.append(f"exact counters differ between two runs of the same seeds: {diff}")
    checked = passes[0][2]
    centralized_years = checked.get("bench.equivalence_years", 0)
    if not centralized_years:
        problems.append("no merit-capped Boston year was checked")
    for key in ("bench.equivalence_mismatches", "bench.placement_violations"):
        if checked.get(key, 0):
            problems.append(f"{key} = {checked[key]} over {centralized_years} centralized years")

    layers, overheads = [], []
    for child, spans, counters in passes:
        self_time = _self_times(spans)
        sim = [s for s in spans if s[0] == "pipeline.simulate_seed"]
        if len(sim) != len(runner.seeds):
            problems.append(f"{len(sim)} simulate_seed spans for {len(runner.seeds)} seeds")
        # self times of every span under simulate_seed add up to its wall time
        subtree = defaultdict(list)
        for s in spans:
            subtree[s[4]].append(s)
        sim_wall = sum(s[2] - s[1] for s in sim)
        stack, self_sum, bench_in_sim = list(sim), 0.0, 0.0
        while stack:
            s = stack.pop()
            self_sum += self_time[s[3]]
            if s[0].startswith("bench."):
                bench_in_sim += s[2] - s[1]
            stack += subtree[s[3]]
        if abs(self_sum - sim_wall) > 1e-6 * max(1, len(spans)):
            problems.append(f"self times under simulate_seed sum to {self_sum:.6f}s, wall {sim_wall:.6f}s")
        bench_s = _bench_critical_path_s(spans)
        overheads.append(child.wall_s - bench_s - untraced_wall)
        layers.append(_layer_metrics(spans, counters, self_time))
        print(
            f"traced pass: wall {child.wall_s:.3f}s (benchmark checks {bench_s:.3f}s), "
            f"simulate_seed {sim_wall - bench_in_sim:.3f}s = sum of layer self times",
            file=sys.stderr,
        )

    # times are the mean of the two passes; counts are equal in both
    values = {k: v if k in LAYER_COUNTS else statistics.fmean(layer[k] for layer in layers) for k, v in layers[0].items()}
    values["trace.overhead_s"] = statistics.fmean(overheads)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    print(
        f"untraced wall {untraced_wall:.3f}s; converged {checked.get('strategy.converged_years', 0)}"
        f"/{checked.get('strategy.decentralized_years', 0)} decentralized years; "
        f"{centralized_years} centralized years checked against serial dictatorship",
        file=sys.stderr,
    )
    for k in sorted(values):
        print(f"  {k:40s} {values[k]:.6g}", file=sys.stderr)
    units = {**LAYER_COUNTS, "strategy.converged_ratio": "ratio"}
    metrics = {k: {"value": v, "unit": units.get(k, "s")} for k, v in values.items()}
    return _result(not problems, attempted, failed, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (ROOT / "src" / "meritmatch" / "__init__.py").is_file():
        print(f"error: no meritmatch sources under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args.workload, args.seed)
    result = run_traced(runner) if args.trace else run_end_to_end(runner, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
