"""Synthetic yearly applicant populations.

Cohorts are drawn fresh each year from a year-invariant configuration, so
regime switches are the only time-varying treatment. A year's draw is
returned as one `Cohort` of arrays; an applicant is a row of it, and the
applicant's id is that row, 0..n-1. The urban advantage enters only through
the education-infrastructure channel: a prefecture's edu_index shifts its
mean exam score. Preferences are prestige minus a linear distance cost plus
idiosyncratic noise. `config.build_scenario` builds and checks a `Scenario`,
which derives once the id-ordered arrays the yearly layers read, the draw's
means among them (prefecture p is row p, school s is column s - 1); a draw
that overflows a utility or outside option is a DomainError from `Cohort`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Cohort, DomainError, Prefecture, Regime, RegimeKind, School, SeededRng, distance_matrix

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

# The calendar years a schedule may span. The chronology is the reforms of
# 1900-1930; the range leaves room around it for robustness runs and keeps a
# mistyped year from building a schedule of millions of years.
_YEARS = (1800, 2100)
# The largest cohort a scenario may have, about 1,000x the default: a year
# holds several (n, S) float arrays, each 640 MB at this size with 8 schools,
# so a larger cohort comes from a mistyped config, not from a run that fits.
_MAX_COHORT = 10**7


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
        if self.score_sd > 1e100:  # with the mean score's bound, keeps `BehaviorParams`' gaps finite
            raise DomainError(f"score_sd must be at most 1e100, got {self.score_sd}")
        for name in ("year_start", "year_end"):
            if not _YEARS[0] <= getattr(self, name) <= _YEARS[1]:
                raise DomainError(f"{name} must be in {_YEARS[0]}-{_YEARS[1]}, got {getattr(self, name)}")
        if self.year_end < self.year_start:
            raise DomainError("year_end before year_start")
        # sizes change linearly over the years, so the first or the last is the largest
        first = self.applicants_per_year
        if first > _MAX_COHORT:
            raise DomainError(f"the {self.year_start} cohort would have {first} applicants, more than {_MAX_COHORT}")
        last = first * (1.0 + self.applicant_growth_per_year * (self.year_end - self.year_start))
        if not math.isfinite(last):  # a finite last size bounds every size before it
            raise DomainError(f"the {self.year_end} cohort would have {last} applicants, not a finite number")
        if not last <= _MAX_COHORT + 0.5:  # `cohort_size` rounds it
            raise DomainError(f"the {self.year_end} cohort would have {last:.4g} applicants, more than {_MAX_COHORT}")

    def cohort_size(self, year: int) -> int:
        n = self.applicants_per_year * (1.0 + self.applicant_growth_per_year * (year - self.year_start))
        return max(1, int(round(n)))


def generate_applicants(scenario: Scenario, year: int, rng: SeededRng) -> Cohort:
    """Draw one year's cohort from the id-ordered arrays of `scenario`: births
    by `weights`, each score around its birth row's `mean_score`, and each
    utility row its birth row's `base_utility` plus noise. The draw uses a
    ("popgen", year) substream of `rng`, so a cohort depends only on (seed,
    year), not on draw order."""
    gen = rng.substream("popgen", year).generator()
    config = scenario.population
    n = config.cohort_size(year)
    birth = gen.choice(len(scenario.weights), size=n, p=scenario.weights)
    scores = gen.normal(scenario.mean_score[birth], config.score_sd)
    noise = gen.normal(0.0, config.preference_noise_sd, size=(n, len(scenario.hosts)))
    utilities = np.add(scenario.base_utility.take(birth, axis=0), noise, out=noise)
    outside = gen.normal(config.outside_option_mean, config.outside_option_sd, size=n)

    return Cohort(birth=birth, score=scores, utility=utilities, outside=outside)


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


@dataclass(frozen=True, eq=False)
class Scenario:
    """One run's geography, schools, population and schedule, plus the arrays
    the yearly layers read, derived once from them: prefecture p is row p and
    school s is column s - 1 (`validate_market` holds hosts and ids to both).
    The arrays are read-only, since every year and seed shares them; a mean
    of the draw that overflows is left non-finite for `build_scenario`. Only
    `build_scenario` builds one, so `schedule` is `regime_schedule`'s,
    ascending by year, which `build_panel` relies on."""

    prefectures: tuple[Prefecture, ...]
    schools: tuple[School, ...]
    population: PopulationConfig
    schedule: tuple[Regime, ...]
    weights: np.ndarray = field(init=False, repr=False)  # (P,) birth probabilities, summing to 1
    urban: np.ndarray = field(init=False, repr=False)  # (P,) bool, inside the Tokyo band
    tokyo: np.ndarray = field(init=False, repr=False)  # (P,) bool, the row named Tokyo
    hosts: np.ndarray = field(init=False, repr=False)  # (S,) host prefecture row
    school_km: np.ndarray = field(init=False, repr=False)  # (P, S) distance from each prefecture to each school
    mean_score: np.ndarray = field(init=False, repr=False)  # (P,) mean exam score of the prefecture's applicants
    base_utility: np.ndarray = field(init=False, repr=False)  # (P, S) prestige minus distance cost

    def __post_init__(self) -> None:
        prefs, pop = self.prefectures, self.population
        schools = sorted(self.schools, key=lambda s: s.id)
        weights = np.array([p.pop_weight for p in prefs])
        hosts = np.array([s.prefecture_id for s in schools])
        derived = {
            "weights": weights / weights.sum(),
            "urban": np.array([p.urban for p in prefs]),
            "tokyo": np.arange(len(prefs)) == next(i for i, p in enumerate(prefs) if p.name == "Tokyo"),
            "hosts": hosts,
            "school_km": distance_matrix(self.prefectures)[:, hosts],
        }
        with np.errstate(over="ignore", invalid="ignore"):
            derived["mean_score"] = pop.score_mean_base + pop.urban_score_shift * np.array([p.edu_index for p in prefs])
            derived["base_utility"] = np.array([s.prestige for s in schools]) - pop.distance_cost * derived["school_km"]
        self.__setstate__(derived)

    def __setstate__(self, state: dict) -> None:
        """Set the fields in `state`, its arrays read-only: the derived ones,
        and those of a copy a pool worker unpickles, which numpy makes writeable."""
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)
