"""End-to-end scenario runner: simulate years under the regime schedule,
compute metrics, run the regression battery, and emit CSV artifacts.

All randomness flows from one root seed through named streams (popgen/year,
lottery/year), so re-running any stage from the same manifest reproduces
artifacts byte for byte. `config.resolve_config` builds the run's scenario
from a config or lockfile, rejecting any bad value before the output
directory is touched. The resolved configuration, including the full
geography and school tables, is written to manifest.lock; a lockfile is
itself a valid --config input and replays the run exactly.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config import ArtifactError, ConfigError, ResolvedConfig, RunManifest, check_lock, resolve_config, write_lock
from .config import _usable_cpus
from .core import DomainError, RegimeKind, SeededRng, panel_grid
from .econometrics import RegressionResult, did_centralization, fe_ols, newey_west_ols, with_interaction
from .mechanisms import run_decentralized, run_grouped_centralized, run_meritocratic_boston
from .metrics import (
    OUTCOME_STATISTICS,
    PER_PANEL_COLUMNS,
    YearOutcome,
    YearRecord,
    build_panel,
    read_panel_csv,
    read_year_outcomes_csv,
    write_panel_csv,
    write_rows,
    write_year_outcomes_csv,
    year_outcome,
    year_record,
)
from .popgen import Scenario, generate_applicants
from .strategy import BehaviorParams, equilibrium_cutoffs, single_applications, submit_applications


# -- simulation ----------------------------------------------------------------


@dataclass(frozen=True)
class SeedResult:
    seed: int
    outcomes: tuple[YearOutcome, ...]
    records: tuple[YearRecord, ...]
    equilibrium_log: tuple[tuple[int, int, float], ...]  # (year, iterations, residual)


def simulate_seed(scenario: Scenario, behavior: BehaviorParams, seed: int) -> SeedResult:
    """Simulate every year of the schedule for one seed, holding one year's
    cohort, applications and assignment at a time.

    Decentralized years warm-start their cutoff iteration from the previous
    decentralized equilibrium, which is deterministic and much faster than a
    cold start (cohorts are statistically identical across years).
    """
    root = SeededRng(seed)
    schools = scenario.schools
    outcomes: list[YearOutcome] = []
    records: list[YearRecord] = []
    eq_log: list[tuple[int, int, float]] = []
    beliefs = None

    for regime in scenario.schedule:
        year = regime.year
        cohort = generate_applicants(scenario, year, root)
        lottery_rng = root.substream("lottery", year)
        if regime.kind.is_centralized:
            apps = submit_applications(cohort, regime)
            if regime.kind == RegimeKind.GROUPED_CENTRALIZED:
                assignment = run_grouped_centralized(schools, cohort, apps, regime.groups, lottery_rng)
            else:
                assignment = run_meritocratic_boston(schools, cohort, apps, lottery_rng)
        else:
            beliefs, iters, resid = equilibrium_cutoffs(schools, cohort, behavior, initial=beliefs)
            eq_log.append((year, iters, resid))
            apps = single_applications(cohort, beliefs, behavior)
            assignment = run_decentralized(schools, cohort, apps, lottery_rng)

        outcomes.append(year_outcome(apps, assignment, scenario, cohort, year, regime.kind))
        records.append(year_record(assignment, cohort, scenario, year, regime.kind))
        del cohort, apps, assignment  # freed before the next year's draw, not after it
    return SeedResult(
        seed=seed,
        outcomes=tuple(outcomes),
        records=tuple(records),
        equilibrium_log=tuple(eq_log),
    )


# -- regressions ---------------------------------------------------------------


@dataclass(frozen=True)
class RegressionRow:
    spec_id: str
    seed: int | str
    coefficient: str
    estimate: float
    std_error: float | None
    t_stat: float | None
    p_value: float | None
    n_obs: int
    n_clusters: int | None


REGRESSION_COLUMNS = [f.name for f in fields(RegressionRow)]


def _row_from_result(spec_id: str, seed: int, res: RegressionResult, coefficient: str) -> RegressionRow:
    return RegressionRow(
        spec_id=spec_id,
        seed=seed,
        coefficient=coefficient,
        estimate=res.coef(coefficient),
        std_error=res.se_of(coefficient),
        t_stat=float(res.t_stats[res.names.index(coefficient)]),
        p_value=res.p_of(coefficient),
        n_obs=res.n_obs,
        n_clusters=res.n_clusters,
    )


def local_monopoly_regression(school_panel: Mapping[str, Sequence]) -> RegressionResult:
    """Per-school spec: entrants on centralized x located-in and
    centralized x within-100km with the graduate-pool control, two-way fixed
    effects, clustered by prefecture."""
    cols = with_interaction(school_panel, "centralized", "located_in")
    cols = with_interaction(cols, "centralized", "within_100km")
    return fe_ols(cols, ("centralized_x_located_in", "centralized_x_within_100km", "middle_school_grads"))


def tokyo_gradient_regression(all_panel: Mapping[str, Sequence]) -> RegressionResult:
    """All-schools spec: entrants on centralized x Tokyo and
    centralized x near-Tokyo, controlling for the school-location bands and
    the graduate pool."""
    cols = all_panel
    for b in ("tokyo", "near_tokyo", "located_in", "within_100km"):
        cols = with_interaction(cols, "centralized", b)
    return fe_ols(
        cols,
        (
            "centralized_x_tokyo",
            "centralized_x_near_tokyo",
            "centralized_x_located_in",
            "centralized_x_within_100km",
            "middle_school_grads",
        ),
    )


def _outcome_series(outcomes: Sequence[YearOutcome]) -> dict[str, np.ndarray]:
    """Average year outcomes by year across seeds into one time series. A
    year whose rows name different regimes is a DomainError."""
    years = sorted({o.year for o in outcomes})
    series: dict[str, list] = {m: [] for m in OUTCOME_STATISTICS}
    centralized = []
    for y in years:
        rows = [o for o in outcomes if o.year == y]
        regimes = {o.regime.value for o in rows}
        if len(regimes) > 1:
            raise DomainError(f"year {y} is under more than one regime: {', '.join(sorted(regimes))}")
        centralized.append(float(rows[0].regime.is_centralized))
        for m in OUTCOME_STATISTICS:
            vals = [getattr(o, m) for o in rows if getattr(o, m) is not None]
            series[m].append(float(np.mean(vals)) if vals else np.nan)
    y0 = years[0]
    table = {
        "year": np.array(years, dtype=float),
        "centralized": np.array(centralized),
        "trend": np.array([y - (y0 - 1) for y in years], dtype=float),
    }
    table["trend_sq"] = table["trend"] ** 2
    for m in OUTCOME_STATISTICS:
        table[m] = np.array(series[m])
    return table


def trend_regression(table: Mapping[str, np.ndarray], metric: str) -> RegressionResult:
    """Regime coefficient for one outcome series with quadratic trend controls
    and Newey-West inference (lag 3). Years with a missing metric are dropped.

    The rows must be in ascending year order, as `_outcome_series` builds
    them: the Newey-West weights pair each year with the years before it.
    Every DomainError names the metric."""
    keep = np.isfinite(np.asarray(table[metric], dtype=float))
    if not keep.any():
        raise DomainError(f"trend metric {metric} is missing in every year")
    filtered = {k: np.asarray(v)[keep] for k, v in table.items()}
    try:
        return newey_west_ols(filtered, metric, ("centralized", "trend", "trend_sq"), 3)
    except DomainError as exc:
        raise DomainError(f"trend metric {metric}: {exc}") from exc


@dataclass(frozen=True)
class DiffRegimeRow:
    metric: str
    mean_centralized: float
    mean_decentralized: float
    difference: float
    trend_coefficient: float
    trend_p_value: float


def diff_regimes(rows: Sequence[tuple[int, YearOutcome]]) -> list[DiffRegimeRow]:
    """Per-metric regime means, difference, and the quadratic-trend-controlled
    regime coefficient (Newey-West, lag 3) of the (seed, outcome) rows that
    `read_year_outcomes_csv` returns. Multi-seed series are averaged within
    year first; a seed whose years differ from another seed's is a
    DomainError naming it."""
    years: dict[int, set[int]] = {}
    for seed, o in rows:
        years.setdefault(seed, set()).add(o.year)
    first = rows[0][0] if rows else None
    for seed, held in years.items():
        if held != years[first]:
            raise DomainError(f"seed {seed} and seed {first} differ in years {sorted(held ^ years[first])}")
    outcomes = [o for _, o in rows]
    kinds = {o.regime for o in outcomes}
    if not any(k.is_centralized for k in kinds):
        raise DomainError("no centralized years in the outcome series")
    if not any(not k.is_centralized for k in kinds):
        raise DomainError("no decentralized years in the outcome series")
    table = _outcome_series(outcomes)
    cen = table["centralized"] == 1.0
    out = []
    for m in OUTCOME_STATISTICS:
        vals = table[m]
        res = trend_regression(table, m)
        out.append(
            DiffRegimeRow(
                metric=m,
                mean_centralized=float(np.nanmean(vals[cen])),
                mean_decentralized=float(np.nanmean(vals[~cen])),
                difference=float(np.nanmean(vals[cen]) - np.nanmean(vals[~cen])),
                trend_coefficient=res.coef("centralized"),
                trend_p_value=res.p_of("centralized"),
            )
        )
    return out


def seed_regressions(
    panel: Mapping[int | None, Mapping[str, Sequence]],
    outcomes: Sequence[YearOutcome],
    seed: int,
) -> list[RegressionRow]:
    """The regression battery for one seed's panels (`build_panel`'s form)
    and year outcomes. A trend regression's DomainError names the seed."""
    rows: list[RegressionRow] = []
    res = did_centralization(panel[None])
    rows.append(_row_from_result("did_tokyo_area", seed, res, "centralized_x_tokyo_area"))
    res = tokyo_gradient_regression(panel[None])
    rows.append(_row_from_result("tokyo_gradient", seed, res, "centralized_x_tokyo"))
    for s in sorted(k for k in panel if k is not None):
        res = local_monopoly_regression(panel[s])
        rows.append(_row_from_result(f"local_monopoly_s{s}", seed, res, "centralized_x_located_in"))
    table = _outcome_series(outcomes)
    for m in OUTCOME_STATISTICS:
        try:
            res = trend_regression(table, m)
        except DomainError as exc:
            raise DomainError(f"seed {seed}: {exc}") from exc
        rows.append(_row_from_result(f"trend_{m}", seed, res, "centralized"))
    return rows


def pooled_rows(per_seed: Sequence[RegressionRow]) -> list[RegressionRow]:
    """Cross-seed mean per spec; the pooled std error is the standard error
    of the mean estimate across seeds (empty with a single seed)."""
    by_spec: dict[tuple[str, str], list[RegressionRow]] = {}
    for row in per_seed:
        by_spec.setdefault((row.spec_id, row.coefficient), []).append(row)
    out = []
    for (spec_id, coefficient), rows in sorted(by_spec.items()):
        est = np.array([r.estimate for r in rows])
        se = float(est.std(ddof=1) / np.sqrt(len(est))) if len(est) > 1 else None
        out.append(
            RegressionRow(
                spec_id=spec_id,
                seed="pooled",
                coefficient=coefficient,
                estimate=float(est.mean()),
                std_error=se,
                t_stat=None,
                p_value=None,
                n_obs=int(sum(r.n_obs for r in rows)),
                n_clusters=None,
            )
        )
    return out


# -- artifact writing ----------------------------------------------------------


def write_regressions_csv(path: str | Path, rows: Sequence[RegressionRow]) -> None:
    with open(path, "w", newline="") as fh:
        write_rows(fh, REGRESSION_COLUMNS, map(astuple, rows))


def _panel_files(scenario: Scenario) -> dict[int | None, str]:
    """The panel CSV of each `build_panel` key: all schools, then each school id."""
    return {None: "panel_all.csv", **{s: f"panel_school_{s}.csv" for s in sorted(x.id for x in scenario.schools)}}


def _panels_from_disk(
    out_dir: Path, panel_files: Mapping[int | None, str], seeds: list[int], scenario: Scenario
) -> dict[int, dict]:
    """Each seed's panels, read back for the estimate stage.

    Every file's `seed`, `prefecture_id` and `year` columns must equal the
    run's layout: each of `seeds`, in order, over the full year x prefecture
    grid. A school panel must repeat the shared columns of panel_all.csv bit
    for bit, and panel_all.csv's entrants must be the school panels' sum in
    every row. Seed k's panels are then the rows [k*G, (k+1)*G) of the
    files, G the grid's size, and each school panel reuses panel_all's
    read-only slice of every shared column.
    """
    grid = panel_grid(sorted(r.year for r in scenario.schedule), len(scenario.prefectures))
    size = len(grid["year"])
    layout = {"seed": np.repeat(np.array(seeds, dtype=np.uint64), size)}
    layout.update((c, np.tile(col, len(seeds))) for c, col in grid.items())
    panels: dict[int, dict] = {s: {} for s in seeds}
    summed = 0.0  # the school panels' entrants
    for key, name in panel_files.items():  # panel_all.csv first
        path = out_dir / name
        cols = read_panel_csv(path, key)
        if not all(np.array_equal(cols[c], want) for c, want in layout.items()):
            raise DomainError(f"{path} must hold seeds {seeds} in order, each over the full year x prefecture grid")
        del cols["seed"]
        if key is None:
            shared = cols
        else:
            for c, col in shared.items():
                if c not in PER_PANEL_COLUMNS and cols[c].tobytes() != col.tobytes():
                    raise DomainError(f"{path}: column {c} differs from {panel_files[None]}")
            cols = {c: cols[c] for c in PER_PANEL_COLUMNS}
            summed = summed + cols["entrants"]
        for k, s in enumerate(seeds):  # seed k's rows; a school panel takes panel_all's slice of each shared column
            own = {c: col[k * size : (k + 1) * size] for c, col in cols.items()}
            panels[s][key] = own if key is None else {**panels[s][None], **own}
    if not np.array_equal(summed, shared["entrants"]):  # whole counts below 2^53: the float sums are exact
        raise DomainError(f"{out_dir / panel_files[None]}: entrants differ from the sum over the school panels")
    return panels


def _outcomes_from_disk(path: Path, seeds: list[int], scenario: Scenario) -> dict[int, list[YearOutcome]]:
    """Each seed's year outcomes, read back for the estimate stage: the rows
    of each of `seeds` in turn, one per year of the schedule, ascending, each
    under the schedule's regime."""
    rows = read_year_outcomes_csv(path)
    schedule = [(r.year, r.kind) for r in sorted(scenario.schedule, key=lambda r: r.year)]
    if [(s, o.year, o.regime) for s, o in rows] != [(s, *y) for s in seeds for y in schedule]:
        raise DomainError(f"{path} must hold seeds {seeds} in order, each with the schedule's years and regimes")
    n = len(schedule)
    return {s: [o for _, o in rows[k * n : (k + 1) * n]] for k, s in enumerate(seeds)}


def _simulate_and_write(
    manifest: RunManifest, resolved: ResolvedConfig, seeds: list[int], panel_files: Mapping[int | None, str], out: Path
) -> None:
    """The simulate stage, then the metrics stage if the manifest names it:
    write year_outcomes.csv and manifest.lock, then the panel CSVs, into `out`."""
    if manifest.jobs > 1 and len(seeds) > 1:
        import concurrent.futures  # here, not at the top: it loads logging, which no other path needs

        # a fork pool starts all of its workers at once: no more than there are seeds and usable CPUs
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(manifest.jobs, len(seeds), _usable_cpus())) as pool:
            futures = [pool.submit(simulate_seed, resolved.scenario, resolved.behavior, s) for s in seeds]
            results = [f.result() for f in futures]
    else:
        results = [simulate_seed(resolved.scenario, resolved.behavior, s) for s in seeds]

    write_year_outcomes_csv(out / "year_outcomes.csv", [(r.seed, o) for r in results for o in r.outcomes])
    write_lock(out / "manifest.lock", manifest, resolved)

    if "metrics" in manifest.stages:
        panels = {r.seed: build_panel(r.records, resolved.scenario) for r in results}
        for key, name in panel_files.items():
            write_panel_csv(out / name, {s: panels[s][key] for s in seeds}, key)


def run(manifest: RunManifest) -> dict[str, Path]:
    """Execute the manifest; returns artifact name -> path.

    Stage dependencies: metrics needs simulate in the same invocation;
    estimate can run alone only when the panel CSVs of the configured
    schools, year_outcomes.csv and a manifest.lock whose version_hash, seed
    and seeds match this manifest are already on disk. The estimate stage
    always reads its inputs from files: the staged ones when the earlier
    stages ran in this invocation, those on disk otherwise. Each file must
    hold the manifest's seeds in order: each panel every seed's full year x
    prefecture grid, each school panel panel_all.csv's shared columns bit for
    bit and panel_all.csv the sum of their entrants, and year_outcomes.csv
    each seed's schedule years, ascending, under the schedule's regimes;
    anything else is an ArtifactError raised before regressions.csv is
    written.

    Every artifact is written into a private staging directory inside the
    output directory and renamed into place, one file at a time, only after
    every stage has succeeded. A run that simulates then removes the panel
    files and regressions.csv that its stages did not write, so no artifact
    of an earlier run stays beside its own; nothing else in the output
    directory is touched. A run that fails or is interrupted (Ctrl-C) before
    then leaves the output directory as it found it, and removes it if the
    run created it.
    """
    stages = set(manifest.stages)
    resolved = resolve_config(manifest.config_path)
    panel_files = _panel_files(resolved.scenario)
    out_dir = Path(manifest.out_dir)
    if stages == {"estimate"}:
        needed = [out_dir / f for f in [*panel_files.values(), "year_outcomes.csv", "manifest.lock"]]
        missing = [str(f) for f in needed if not f.exists()]
        if missing:
            raise ConfigError(f"estimate without metrics requires existing inputs; missing: {', '.join(missing)}")
        check_lock(out_dir / "manifest.lock", manifest, resolved)
    created = not out_dir.exists()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc

    seeds = list(range(manifest.seed, manifest.seed + manifest.seeds))
    # every artifact is written here first and moved into out_dir only once
    # every stage has succeeded; a rename, as it stays on out_dir's filesystem
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    names = None
    try:
        if "simulate" in stages:  # returns before the estimate stage, so its results are released
            _simulate_and_write(manifest, resolved, seeds, panel_files, staging)
        if "estimate" in stages:
            inputs = staging if "metrics" in stages else out_dir
            try:
                panels = _panels_from_disk(inputs, panel_files, seeds, resolved.scenario)
                outcomes = _outcomes_from_disk(inputs / "year_outcomes.csv", seeds, resolved.scenario)
            except DomainError as exc:
                raise ArtifactError(str(exc)) from exc
            reg_rows: list[RegressionRow] = []
            for s in seeds:
                reg_rows.extend(seed_regressions(panels[s], outcomes[s], s))
            reg_rows.extend(pooled_rows([r for r in reg_rows if r.seed != "pooled"]))
            write_regressions_csv(staging / "regressions.csv", reg_rows)
        names = sorted(os.listdir(staging))
        for name in names:
            os.replace(staging / name, out_dir / name)
        if "simulate" in stages:  # the later artifacts of an earlier run would not match this run's
            for name in {*panel_files.values(), "regressions.csv"}.difference(names):
                (out_dir / name).unlink(missing_ok=True)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if created and names is None:
            out_dir.rmdir()  # empty: nothing is moved in before `names` is set
    return {name: out_dir / name for name in names}
