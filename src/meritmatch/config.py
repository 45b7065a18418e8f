"""Run inputs: the manifest, the config and lockfile formats, and the one
builder from them to a run's scenario.

A config is a JSON object of optional overrides and the paths of a geography
and a school CSV; a lockfile is the manifest.lock a run writes, the resolved
scenario itself, which replays the run exactly. Each reader checks the shape
of what it reads and hands typed rows to `build_scenario`, which checks every
value once. The geography and school CSVs are read by `metrics.read_rows`,
the reader of every row CSV, which reports a bad header, row or value as a
ConfigError naming the file (and the line). An unknown, missing or null
key, a value of the wrong type (a bool, string or fraction for an integer),
a non-finite number and a lockfile row of the wrong length are each a
ConfigError (exit 2), raised before anything is written; a market
`validate_market` rejects is an InvariantError (exit 4).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .core import (
    DomainError,
    Prefecture,
    School,
    build_prefectures,
    check_groups,
    default_prefectures,
    default_schools,
    validate_market,
)
from .metrics import read_rows
from .popgen import _MAX_COHORT, DEFAULT_GROUPS, PopulationConfig, Scenario, regime_schedule
from .strategy import BehaviorParams


class ConfigError(DomainError):
    """Bad or inconsistent run configuration: a DomainError of the run's inputs."""


class InvariantError(RuntimeError):
    """A market invariant failed validation."""


class ArtifactError(DomainError):
    """An artifact read back for the estimate stage is malformed or does not
    match this run's configuration."""


STAGES = ("simulate", "metrics", "estimate")
# The most seeds one run may have: each keeps ~0.1 MB of year records in memory
# until the metrics stage, so a larger count comes from a mistyped flag.
_MAX_SEEDS = 10**6


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the platform
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class RunManifest:
    """One run, of the seeds `seed`..`seed` + `seeds` - 1, all within
    0..2^64-1 (`SeededRng`), and at most `_MAX_SEEDS` of them. `jobs` caps
    the worker processes that simulate seeds; a multi-seed run uses every
    usable CPU unless told otherwise. The metrics stage needs simulate, and
    estimate needs metrics when simulate runs."""

    config_path: str | None = None
    seed: int = 0
    seeds: int = 1
    out_dir: str = "out"
    stages: tuple[str, ...] = STAGES
    jobs: int = field(default_factory=_usable_cpus)

    def __post_init__(self) -> None:
        if not 1 <= self.seeds <= _MAX_SEEDS:
            raise ConfigError(f"seeds count must be in 1..{_MAX_SEEDS}, got {self.seeds}")
        if not (0 <= self.seed and self.seed + self.seeds <= 2**64):
            raise ConfigError(f"seeds {self.seed}..{self.seed + self.seeds - 1} must lie within 0..2^64-1")
        if not self.stages:
            raise ConfigError("stages must be nonempty")
        for s in self.stages:
            if s not in STAGES:
                raise ConfigError(f"unknown stage {s!r}; valid stages are {', '.join(STAGES)}")
        if "metrics" in self.stages and "simulate" not in self.stages:
            raise ConfigError("the metrics stage needs simulate in the same run (entrant counts are not persisted)")
        if "estimate" in self.stages and "simulate" in self.stages and "metrics" not in self.stages:
            raise ConfigError("estimate needs the metrics stage when simulate runs in the same invocation")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")


@dataclass(frozen=True)
class ResolvedConfig:
    scenario: Scenario
    behavior: BehaviorParams
    groups: tuple[frozenset[int], frozenset[int]]

    def as_dict(self) -> dict:
        """The config section of the run's lockfile."""
        return {
            "population": asdict(self.scenario.population),
            "behavior": asdict(self.behavior),
            "groups": [sorted(self.groups[0]), sorted(self.groups[1])],
            "geography": [[p.name, *p.coord, p.pop_weight, p.edu_index] for p in self.scenario.prefectures],
            "schools": [[s.id, s.prefecture_id, s.capacity, s.prestige] for s in self.scenario.schools],
        }


_CONFIG_KEYS = ("scale", "population", "behavior", "capacities", "groups", "geography", "schools")
_LOCK_KEYS = ("locked", "version", "version_hash", "seed", "seeds", "stages", "format", "config")
_LOCKED = ("population", "behavior", "groups", "geography", "schools")  # the keys of a lock's config, all required


def _check_keys(mapping, allowed, what: str, required=()) -> None:
    """DomainError unless `mapping` is a JSON object whose keys are all
    `allowed`, include every `required` one and hold no null."""
    if not isinstance(mapping, Mapping):
        raise DomainError(f"{what} must be a JSON object, got {json.dumps(mapping)}")
    for problem, keys in (
        ("unknown key(s)", set(mapping) - set(allowed)),
        ("missing key(s)", set(required) - set(mapping)),
        ("null value(s)", {k for k, v in mapping.items() if v is None}),
    ):
        if keys:
            raise DomainError(f"{problem} in {what}: {', '.join(sorted(map(str, keys)))}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON's true is a Python int


def _is_float(value) -> bool:
    """A float, finite or not, or an int within the float range."""
    try:
        return isinstance(value, float) or (_is_int(value) and math.isfinite(value))
    except OverflowError:
        return False


def _is_number(value) -> bool:
    """A finite `_is_float` value (JSON's NaN and Infinity are not)."""
    return _is_float(value) and math.isfinite(value)


# annotation string of a config field -> (check, what the check wants); a
# list's numbers may be non-finite here: the builder checks the prestige
_FIELD_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "tuple[float, ...]": (lambda v: isinstance(v, list) and all(map(_is_float, v)), "a list of numbers"),
}


def _fields(cls, given, what: str) -> dict:
    """`given` as keyword arguments of the config dataclass `cls`: each key a
    field of it, each value of the field's type."""
    _check_keys(given, cls.__dataclass_fields__, what)
    kinds = {f.name: f.type for f in fields(cls)}  # annotation strings: evaluation is postponed
    for name, value in given.items():
        check, wanted = _FIELD_CHECKS[kinds[name]]
        if not check(value):
            raise DomainError(f"{name} must be {wanted}, got {json.dumps(value)}")
    return dict(given)


def _groups_from(raw) -> tuple[frozenset[int], frozenset[int]]:
    if not (isinstance(raw, list) and len(raw) == 2 and all(isinstance(g, list) and all(map(_is_int, g)) for g in raw)):
        raise DomainError(f"groups must be a pair of lists of integer school ids, got {json.dumps(raw)}")
    if any(len(set(g)) != len(g) for g in raw):
        raise DomainError(f"a group lists a school twice: {json.dumps(raw)}")
    return (frozenset(raw[0]), frozenset(raw[1]))


def build_scenario(
    scale: float = 1.0,
    population: Mapping | None = None,
    prefectures: Sequence[Prefecture] | None = None,
    schools: Sequence[School] | None = None,
    capacities: list[int] | None = None,
    groups: tuple[frozenset[int], frozenset[int]] = DEFAULT_GROUPS,
) -> Scenario:
    """A scenario from its config pieces; every omitted piece is the default,
    so `build_scenario()` is the shipped 47-prefecture, 8-school scenario over
    1900-1930.

    `scale` shrinks or grows the default applicants (10777 a year) and seats
    (251 a school) together, preserving selectivity. `population` overrides
    PopulationConfig fields, each with a value of the field's type. Given
    `schools`, their prestige is the population's and their capacities are
    the seats, and a different population prestige or `capacities` is a
    DomainError; otherwise the eight default schools are placed with
    `capacities` (or the scaled default). A capacity above `_MAX_COHORT` or a
    non-finite prestige, from either source, is a DomainError, as are groups
    that do not split the schools when the schedule has a grouped year. So
    is a population whose mean score in a prefecture, base utility of a
    school (prestige minus distance cost) or base utility minus
    `outside_option_mean` is not finite in floating point, or whose mean
    score in a prefecture exceeds 1e100 in magnitude. A market that
    `validate_market` rejects is an InvariantError.
    """
    # a larger scale overflows the default cohort size
    if not (_is_number(scale) and 0 < scale < 1e300):
        raise DomainError(f"scale must be a positive number below 1e300, got {json.dumps(scale)}")
    overrides = _fields(PopulationConfig, {} if population is None else population, "population")
    overrides.setdefault("applicants_per_year", max(1, int(round(10777 * scale))))
    if "prestige" in overrides:
        overrides["prestige"] = tuple(float(v) for v in overrides["prestige"])
    config = PopulationConfig(**overrides)
    if capacities is not None and not (isinstance(capacities, list) and all(map(_is_int, capacities))):
        raise DomainError(f"capacities must be a list of integers, got {json.dumps(capacities)}")
    prefectures = default_prefectures() if prefectures is None else prefectures
    by_id = None if schools is None else sorted(schools, key=lambda s: s.id)
    prestige = config.prestige if by_id is None else tuple(s.prestige for s in by_id)
    if not all(math.isfinite(p) for p in prestige):
        raise DomainError(f"school prestige must be finite, got {list(prestige)}")
    if by_id is None:
        seats = [max(1, int(round(251 * scale)))] * 8 if capacities is None else capacities
        schools = default_schools(prefectures, seats, prestige)
    else:
        if "prestige" in overrides and overrides["prestige"] != prestige:
            raise DomainError(f"population prestige {overrides['prestige']} differs from the schools' {prestige}")
        seats = [s.capacity for s in by_id]
        if capacities is not None and capacities != seats:
            raise DomainError(f"capacities {capacities} differ from the schools' {seats}")
        config = replace(config, prestige=prestige)
    for s in schools:  # no cohort fills more seats: the bound changes no outcome and keeps seat sums in int64
        if s.capacity > _MAX_COHORT:
            raise DomainError(f"school {s.id} has capacity {s.capacity}, more than the largest cohort, {_MAX_COHORT}")
    schedule = tuple(regime_schedule(config.year_start, config.year_end, groups))
    if any(r.groups is not None for r in schedule):
        check_groups(groups, (s.id for s in schools))
    violations = validate_market(prefectures, schools)
    if violations:
        raise InvariantError("; ".join(violations))
    scenario = Scenario(prefectures=tuple(prefectures), schools=tuple(schools), population=config, schedule=schedule)
    # the means of the draws, formed as `generate_applicants` forms them: one
    # that overflows would leave every cohort with non-finite values
    with np.errstate(over="ignore", invalid="ignore"):
        mean = config.score_mean_base + config.urban_score_shift * scenario.edu
        base = scenario.prestige - config.distance_cost * scenario.school_km
        for what, values in (
            ("mean score", mean),
            ("base utility", base),
            ("base utility minus outside_option_mean", base - config.outside_option_mean),
        ):
            if not np.isfinite(values).all():
                p = int(np.argwhere(~np.isfinite(values))[0, 0])
                raise DomainError(f"the population's {what} in prefecture {p} is not finite")
    far = np.abs(mean) > 1e100  # with score_sd's bound, keeps `BehaviorParams`' gaps finite
    if far.any():
        p = int(far.argmax())
        raise DomainError(f"the population's mean score in prefecture {p} is {mean[p]}, beyond 1e100 in magnitude")
    return scenario


def resolve_config(config_path: str | Path | None) -> ResolvedConfig:
    """Build the fully-resolved scenario from a config file (or defaults).

    The file is JSON; a manifest.lock file (marked "locked": true) is also
    accepted and replayed verbatim. Every rejected value is a ConfigError
    that names it, prefixed "bad config:" or "bad lockfile:" unless it names
    the file it is in.
    """
    raw: Mapping = {}
    where, base_dir = "config", Path()
    if config_path is not None:
        path = Path(config_path)
        try:
            raw = json.loads(path.read_text())
        except ValueError as exc:  # not JSON, or not text
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must contain a JSON object")
        where, base_dir = "lockfile" if raw.get("locked") else "config", path.parent
    try:
        pieces = _read_lockfile(raw) if where == "lockfile" else _read_config(raw, base_dir)
        behavior = BehaviorParams(**_fields(BehaviorParams, pieces.pop("behavior", {}), "behavior"))
        return ResolvedConfig(build_scenario(**pieces), behavior, pieces.get("groups", DEFAULT_GROUPS))
    except ConfigError:
        raise
    except DomainError as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _read_config(raw: Mapping, base_dir: Path) -> dict:
    """The builder's arguments from a config, the CSVs it names (relative to
    `base_dir`) loaded."""
    _check_keys(raw, _CONFIG_KEYS, "the config")
    pieces = {key: raw[key] for key in ("scale", "population", "behavior", "capacities") if key in raw}
    if "groups" in raw:
        pieces["groups"] = _groups_from(raw["groups"])
    for key, name, load in (("geography", "prefectures", load_geography), ("schools", "schools", load_schools)):
        if key in raw:
            if not isinstance(raw[key], str):
                raise DomainError(f"{key} must be the path of a CSV file, got {json.dumps(raw[key])}")
            pieces[name] = load(base_dir / raw[key])
    return pieces


def _rows(rows, what: str, columns: Sequence[str], checks) -> list[list]:
    """`rows` if it is a JSON array of rows, each an array of one value per
    column that passes the column's check."""
    if not isinstance(rows, list):
        raise DomainError(f"{what} must be a list of rows, got {json.dumps(rows)}")
    for k, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == len(checks) and all(c(v) for c, v in zip(checks, row))):
            raise DomainError(f"{what} row {k} must be [{', '.join(columns)}], got {json.dumps(row)}")
    return rows


def _read_lockfile(raw: Mapping) -> dict:
    """The builder's arguments from a lockfile: its tables as they were
    locked."""
    _check_keys(raw, _LOCK_KEYS, "the lockfile", required=("config",))
    cfg = raw["config"]
    _check_keys(cfg, _LOCKED, "the lockfile's config", required=_LOCKED)
    name = (lambda v: isinstance(v, str),)
    rows = _rows(cfg["geography"], "geography", GEOGRAPHY_COLUMNS[1:], name + (_is_float,) * 4)
    # the locked weights are already normalized; normalizing them again can move their last bits
    prefectures = [replace(p, pop_weight=float(r[3])) for p, r in zip(build_prefectures(rows), rows)]
    rows = _rows(cfg["schools"], "schools", SCHOOL_COLUMNS, (_is_int,) * 3 + (_is_float,))
    schools = [School(*r[:3], prestige=float(r[3])) for r in rows]
    pieces = {key: cfg[key] for key in ("population", "behavior")}
    return {**pieces, "groups": _groups_from(cfg["groups"]), "prefectures": prefectures, "schools": schools}


GEOGRAPHY_COLUMNS = ["id", "name", "x_km", "y_km", "weight", "edu_index"]
SCHOOL_COLUMNS = ["id", "prefecture_id", "capacity", "prestige"]


def load_geography(path: str | Path) -> list[Prefecture]:
    """Load prefectures from a CSV with columns id,name,x_km,y_km,weight,edu_index.

    Rows must be sorted by id, 0..P-1. Weights are normalized on load; the
    urban flag is derived from the 100 km Tokyo band."""
    rows = read_rows(path, GEOGRAPHY_COLUMNS, lambda r: [int(r[0]), r[1], *map(float, r[2:])], "geography", ConfigError)
    for k, row in enumerate(rows):
        if row[0] != k:
            raise ConfigError(f"geography row {k} has id {row[0]}; ids must be 0..P-1 in row order")
    return build_prefectures([row[1:] for row in rows])


def load_schools(path: str | Path) -> list[School]:
    """Load schools from a CSV with columns id,prefecture_id,capacity,prestige;
    a value that does not parse (a fractional capacity) is a ConfigError."""
    return read_rows(path, SCHOOL_COLUMNS, lambda r: School(*map(int, r[:3]), float(r[3])), "school", ConfigError)


def _lock_payload(manifest: RunManifest, resolved: ResolvedConfig) -> dict:
    config = resolved.as_dict()
    digest = hashlib.sha256((json.dumps(config, sort_keys=True) + __version__).encode()).hexdigest()[:16]
    return {
        "locked": True,
        "version": __version__,
        "version_hash": digest,
        "seed": manifest.seed,
        "seeds": manifest.seeds,
        "stages": list(manifest.stages),
        "format": "csv",
        "config": config,
    }


def write_lock(path: Path, manifest: RunManifest, resolved: ResolvedConfig) -> None:
    """Write the run's manifest.lock: a lockfile of its resolved config."""
    path.write_text(json.dumps(_lock_payload(manifest, resolved), indent=2, sort_keys=True) + "\n")


def check_lock(path: Path, manifest: RunManifest, resolved: ResolvedConfig) -> None:
    """ArtifactError unless the manifest.lock at `path`, which an estimate-only
    run reads, is from a run of this config, seed and seed count."""
    expected = _lock_payload(manifest, resolved)
    try:
        lock = json.loads(path.read_text())
        stale = [k for k in ("version_hash", "seed", "seeds") if lock[k] != expected[k]]
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"unreadable {path}: {exc}") from exc
    if stale:
        raise ArtifactError(f"{path} is from another run: {', '.join(stale)} differ")
