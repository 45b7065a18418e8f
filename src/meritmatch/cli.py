"""Command-line entry point.

`meritmatch run` executes a manifest (config, seed, output directory, stage
subset) and writes the CSV artifacts; `meritmatch diff-regimes` summarizes an
emitted year-outcome series by admission regime, printing to stdout as CSV
one row per outcome statistic: the `DiffRegimeRow` fields in order (metric,
mean_centralized, mean_decentralized, difference, trend_coefficient,
trend_p_value), each number as its float `repr`. A multi-seed run simulates
its seeds in parallel, in at most one worker process per seed and per CPU
this process may run on: by default as many workers as there are such CPUs,
`--jobs N` for at most N. `--jobs 1` and a one-seed run stay in the calling
process; the artifacts are the same bytes either way.

Exit codes: 0 ok, 2 config error or malformed artifact, 3 IO error, 4
invariant violation. Errors print a single machine-parsable line
`error: <category>: <message>`, the category being `config`, `artifact`,
`io` or `invariant`. `artifact` (exit 2) reports an artifact read back from
disk that is malformed or does not fit the run: a panel CSV,
year_outcomes.csv or manifest.lock under `run --stages estimate`, a panel
file that the lock's scenario and the school panels' counts do not
reproduce, or the input of `diff-regimes`. A year_outcomes.csv that does not
decode as text or holds a field longer than the CSV parser's limit is one. A
bad config file or lockfile, or a geography or school CSV a config names, is
a `config` error. So is a value of the wrong type (a bool, a string or a
fraction for an integer, a number for a prefecture name), a null, a
non-finite number (NaN, Infinity) anywhere in the population, behavior,
geography or school values, a population whose mean scores or base utilities
overflow, an empty school table, a `behavior.max_iter` outside 1..1000, a
lockfile row with too many or too few entries, seeds outside 0..2^64-1
(`--seed` below 0, or `--seed` + `--seeds` above 2^64), and a `--seeds`
count outside 1..10^6: each is rejected before `--out` is touched (exit 2).
A cohort whose utility minus outside option overflows is a `config` error of
the simulate stage.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields

from .config import ArtifactError, InvariantError, RunManifest
from .core import DomainError
from .metrics import read_year_outcomes_csv, write_rows
from .pipeline import DiffRegimeRow, diff_regimes, run


def _fail(category: str, exc: Exception) -> int:
    message = str(exc).splitlines()[0] if str(exc) else exc.__class__.__name__
    print(f"error: {category}: {message}", file=sys.stderr)
    return {"config": 2, "artifact": 2, "io": 3, "invariant": 4}[category]


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        manifest = RunManifest(
            config_path=args.config,
            seed=args.seed,
            seeds=args.seeds,
            out_dir=args.out,
            stages=tuple(s.strip() for s in args.stages.split(",") if s.strip()),
            **({} if args.jobs is None else {"jobs": args.jobs}),
        )
        artifacts = run(manifest)
    except ArtifactError as exc:
        return _fail("artifact", exc)
    except DomainError as exc:  # a ConfigError among them
        return _fail("config", exc)
    except InvariantError as exc:
        return _fail("invariant", exc)
    except OSError as exc:
        return _fail("io", exc)
    for name in sorted(artifacts):
        print(f"wrote {artifacts[name]}")
    return 0


def _cmd_diff_regimes(args: argparse.Namespace) -> int:
    try:
        rows = diff_regimes(read_year_outcomes_csv(args.year_outcomes))
    except DomainError as exc:
        return _fail("artifact", exc)
    except OSError as exc:
        return _fail("io", exc)
    write_rows(sys.stdout, [f.name for f in fields(DiffRegimeRow)], map(astuple, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="meritmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate, compute metrics, and estimate")
    run_p.add_argument("--config", default=None, help="scenario config JSON (or a manifest.lock)")
    run_p.add_argument("--seed", type=int, default=0, help="first root seed")
    run_p.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.add_argument("--stages", default="simulate,metrics,estimate", help="comma list of stages")
    run_p.add_argument(
        "--jobs", type=int, default=None, help="parallel seed workers, capped by seeds and usable CPUs (default: all)"
    )
    run_p.set_defaults(func=_cmd_run)

    diff_p = sub.add_parser("diff-regimes", help="regime means and trend-controlled differences")
    diff_p.add_argument("year_outcomes", help="path to an emitted year_outcomes.csv")
    diff_p.set_defaults(func=_cmd_diff_regimes)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
