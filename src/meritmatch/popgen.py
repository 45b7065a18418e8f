"""Synthetic yearly applicant populations.

Cohorts are drawn fresh each year from a year-invariant configuration, so
regime switches are the only time-varying treatment. A year's draw is
returned as one `Cohort` of arrays, with applicant ids 0..n-1. The urban
advantage enters only through the education-infrastructure channel: a
prefecture's edu_index shifts its mean exam score. Preferences are prestige
minus a linear distance cost plus idiosyncratic noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (
    Cohort,
    DomainError,
    Prefecture,
    Regime,
    RegimeKind,
    School,
    SeededRng,
    default_prefectures,
    default_schools,
    distance_matrix,
)

#: Default two-group split for the grouped regime years. The historical
#: grouping is not part of the shipped data; odd/even ids are a synthetic
#: stand-in that puts the two most selective schools in the same group.
DEFAULT_GROUPS: tuple[frozenset[int], frozenset[int]] = (
    frozenset({1, 3, 5, 7}),
    frozenset({2, 4, 6, 8}),
)

# Default prestige by school id. Most selective first: 1, 3, 4, 2, 8, 6, 5, 7
# (top of the order is institutional; the tail ranking is synthetic).
DEFAULT_PRESTIGE: tuple[float, ...] = (13.0, 8.8, 9.6, 9.0, 7.8, 8.2, 7.5, 8.5)


@dataclass(frozen=True)
class PopulationConfig:
    applicants_per_year: int = 10777
    score_mean_base: float = 50.0
    score_sd: float = 10.0
    urban_score_shift: float = 6.0  # mean-score points per unit of edu_index
    prestige: tuple[float, ...] = DEFAULT_PRESTIGE
    distance_cost: float = 0.009  # utility per km
    preference_noise_sd: float = 2.0
    outside_option_mean: float = 4.0
    outside_option_sd: float = 1.0
    year_start: int = 1900
    year_end: int = 1930
    applicant_growth_per_year: float = 0.0  # linear volume trend, for robustness runs

    def __post_init__(self) -> None:
        if self.applicants_per_year <= 0:
            raise DomainError("applicants_per_year must be positive")
        for name in ("score_sd", "preference_noise_sd", "outside_option_sd"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")
        if self.year_end < self.year_start:
            raise DomainError("year_end before year_start")

    def cohort_size(self, year: int) -> int:
        n = self.applicants_per_year * (1.0 + self.applicant_growth_per_year * (year - self.year_start))
        return max(1, int(round(n)))


def generate_applicants(
    config: PopulationConfig,
    prefectures: Sequence[Prefecture],
    schools: Sequence[School],
    year: int,
    rng: SeededRng,
    distances: np.ndarray | None = None,
) -> Cohort:
    """Draw one year's cohort. The draw uses a ("popgen", year) substream of
    `rng`, so a cohort depends only on (seed, year), not on draw order.
    `distances` is `distance_matrix(prefectures)`, if already computed."""
    gen = rng.substream("popgen", year).generator()
    n = config.cohort_size(year)
    n_prefs = len(prefectures)
    prefs_sorted = sorted(prefectures, key=lambda p: p.id)
    weights = np.array([p.pop_weight for p in prefs_sorted])
    weights = weights / weights.sum()
    edu = np.array([p.edu_index for p in prefs_sorted])

    schools_sorted = sorted(schools, key=lambda s: s.id)
    if len(config.prestige) != len(schools_sorted):
        raise DomainError("prestige vector length does not match the school count")
    dmat = distance_matrix(prefectures) if distances is None else distances
    school_dist = dmat[:, [s.prefecture_id for s in schools_sorted]]  # (P, S)
    prestige = np.array(config.prestige)

    birth = gen.choice(n_prefs, size=n, p=weights)
    scores = gen.normal(config.score_mean_base + config.urban_score_shift * edu[birth], config.score_sd)
    noise = gen.normal(0.0, config.preference_noise_sd, size=(n, len(schools_sorted)))
    utilities = prestige[None, :] - config.distance_cost * school_dist[birth] + noise
    outside = gen.normal(config.outside_option_mean, config.outside_option_sd, size=n)

    return Cohort(ids=np.arange(n), birth=birth, score=scores, utility=utilities, outside=outside)


def regime_schedule(
    year_start: int = 1900,
    year_end: int = 1930,
    groups: tuple[frozenset[int], frozenset[int]] = DEFAULT_GROUPS,
) -> list[Regime]:
    """The admission-rule chronology: single applications in 1900, a unified
    exam with decentralized admissions in 1901, centralized assignment in
    1902-1907 and 1917-1918, the grouped two-list variant (over `groups`) in
    1926-1927, and the unified-exam decentralized rule in all remaining years."""
    out = []
    for year in range(year_start, year_end + 1):
        if year <= 1900:
            kind = RegimeKind.DECENTRALIZED
        elif 1902 <= year <= 1907 or 1917 <= year <= 1918:
            kind = RegimeKind.CENTRALIZED
        elif 1926 <= year <= 1927:
            kind = RegimeKind.GROUPED_CENTRALIZED
        else:
            kind = RegimeKind.DECENTRALIZED_UNIFIED_EXAM
        out.append(Regime(kind=kind, year=year, groups=groups if kind == RegimeKind.GROUPED_CENTRALIZED else None))
    return out


@dataclass(frozen=True)
class Scenario:
    prefectures: tuple[Prefecture, ...]
    schools: tuple[School, ...]
    population: PopulationConfig
    schedule: tuple[Regime, ...]


def build_scenario(
    scale: float = 1.0,
    population: Mapping | None = None,
    prefectures: Sequence[Prefecture] | None = None,
    schools: Sequence[School] | None = None,
    capacities: Sequence[int] | None = None,
    groups: tuple[frozenset[int], frozenset[int]] = DEFAULT_GROUPS,
) -> Scenario:
    """A scenario from its config pieces; every omitted piece is the default,
    so `build_scenario()` is the shipped 47-prefecture, 8-school scenario over
    1900-1930.

    `scale` shrinks or grows the default applicants (10777 a year) and seats
    (251 a school) together, preserving selectivity. `population` overrides
    PopulationConfig fields. Given `schools`, their prestige is the
    population's and their capacities are the seats, and a different
    population prestige or `capacities` is a DomainError; otherwise the eight
    default schools are placed with `capacities` (or the scaled default).
    A non-finite prestige, from either source, is a DomainError.
    """
    if scale <= 0:
        raise DomainError("scale must be positive")
    overrides = dict(population or {})
    overrides.setdefault("applicants_per_year", max(1, int(round(10777 * scale))))
    if "prestige" in overrides:
        overrides["prestige"] = tuple(float(v) for v in overrides["prestige"])
    config = PopulationConfig(**overrides)
    prefectures = default_prefectures() if prefectures is None else prefectures
    by_id = None if schools is None else sorted(schools, key=lambda s: s.id)
    prestige = config.prestige if by_id is None else tuple(s.prestige for s in by_id)
    if not all(math.isfinite(p) for p in prestige):
        raise DomainError(f"school prestige must be finite, got {list(prestige)}")
    if by_id is None:
        if capacities is None:
            capacities = [max(1, int(round(251 * scale)))] * 8
        schools = default_schools(prefectures, capacities, prestige)
    else:
        if "prestige" in overrides and overrides["prestige"] != prestige:
            raise DomainError(f"population prestige {overrides['prestige']} differs from the schools' {prestige}")
        seats = [s.capacity for s in by_id]
        if capacities is not None and [int(c) for c in capacities] != seats:
            raise DomainError(f"capacities {list(capacities)} differ from the schools' {seats}")
        config = replace(config, prestige=prestige)
    return Scenario(
        prefectures=tuple(prefectures),
        schools=tuple(schools),
        population=config,
        schedule=tuple(regime_schedule(config.year_start, config.year_end, groups)),
    )

