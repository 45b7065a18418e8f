"""Domain types, geography, deterministic randomness, and market validation.

Everything downstream (mechanisms, strategy, population generation, metrics)
works with the immutable types defined here. Geography is planar, in km:
only relative distances and the 100 km urban band matter, so a flat map is
both simpler and exactly testable. Prefecture p is row p of the geography,
as applicant i is cohort row i: a school's host, a birth prefecture and a
panel's `prefecture_id` are rows. A non-finite number is a DomainError where
it enters: a coordinate, weight or edu_index in `build_prefectures`, a score,
utility or outside option in `Cohort`; `validate_market` flags a NaN weight
sum too.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

URBAN_RADIUS_KM = 100.0
# the farthest apart two prefectures may be, so that a mean enrollment distance keeps its trend fit finite
MAX_KM = 1e100


class DomainError(ValueError):
    """Raised when an operation receives inputs outside its domain."""


@dataclass(frozen=True)
class Prefecture:
    """One row of the geography; its id is its position in the list."""

    name: str
    coord: tuple[float, float]  # planar position, km
    urban: bool  # inside the 100 km Tokyo band
    pop_weight: float  # share of applicant mass
    edu_index: float  # middle-school-graduate density driver


@dataclass(frozen=True)
class School:
    id: int
    prefecture_id: int  # the host's row in the prefecture list
    capacity: int
    prestige: float


@dataclass(frozen=True)
class Applicant:
    id: int  # the applicant's row in its `Cohort`
    birth_prefecture: int
    score: float
    utility: tuple[float, ...]  # cardinal value of each school, indexed by school id - 1
    outside_option: float


@dataclass(frozen=True, eq=False)
class Cohort:
    """One year's applicants as columns, one row per applicant, whose id is
    that row from generation to panel. `utility[:, k]` is the value of the
    school with id k + 1. Every score, utility and outside option is finite."""

    birth: np.ndarray  # (n,) int, birth prefecture row
    score: np.ndarray  # (n,) float
    utility: np.ndarray  # (n, S) float
    outside: np.ndarray  # (n,) float, outside option

    def __post_init__(self) -> None:
        # a NaN score would sort silently in the priority order; a best response needs finite surpluses
        for what, column in (("score", self.score), ("utility", self.utility), ("outside option", self.outside)):
            bad = ~np.isfinite(column)
            if bad.any():
                raise DomainError(f"applicant {np.argwhere(bad)[0, 0]} has non-finite {what}")

    def __len__(self) -> int:
        return len(self.score)

    def __iter__(self) -> Iterator[Applicant]:
        columns = (self.birth, self.score, self.utility, self.outside)
        for i, (b, s, u, o) in enumerate(zip(*(c.tolist() for c in columns))):
            yield Applicant(id=i, birth_prefecture=b, score=s, utility=tuple(u), outside_option=o)


class RegimeKind(str, Enum):
    DECENTRALIZED = "decentralized"
    DECENTRALIZED_UNIFIED_EXAM = "decentralized_unified_exam"
    CENTRALIZED = "centralized"
    GROUPED_CENTRALIZED = "grouped_centralized"

    @property
    def is_centralized(self) -> bool:
        """True for the regimes that run the merit-capped centralized algorithm."""
        return self in (RegimeKind.CENTRALIZED, RegimeKind.GROUPED_CENTRALIZED)


@dataclass(frozen=True)
class Regime:
    kind: RegimeKind
    year: int
    # Only for GROUPED_CENTRALIZED: two groups of school ids; applicants may
    # rank at most one school per group.
    groups: tuple[frozenset[int], frozenset[int]] | None = None


def check_groups(groups: tuple[frozenset[int], frozenset[int]], school_ids: Iterable[int]) -> None:
    """DomainError unless `groups` splits `school_ids` into two nonempty,
    disjoint parts: the partition a grouped regime's lists are drawn over."""
    first, second = (set(g) for g in groups)
    ids = set(school_ids)
    if first | second != ids or first & second or not (first and second):
        raise DomainError(
            f"groups {sorted(first)} and {sorted(second)} "
            f"must split the school ids {sorted(ids)} into two nonempty parts"
        )


@dataclass(frozen=True)
class Placement:
    school_id: int
    preference_rank_obtained: int  # position of the school on the submitted list, >= 1


@dataclass(frozen=True, eq=False)
class Assignment:
    """Outcome of one mechanism run as arrays: row i places applicant `ids[i]`
    at school `school_ids[i]`, the `ranks[i]`-th school of their list, rows
    in admission order; `unassigned` holds the other submitters, sorted.
    Admission order is part of the outcome: the mean enrollment distance is
    summed in it."""

    ids: np.ndarray  # (k,) int
    school_ids: np.ndarray  # (k,) int
    ranks: np.ndarray  # (k,) int, >= 1
    unassigned: np.ndarray  # (u,) int, increasing

    @property
    def placed(self) -> dict[int, Placement]:
        """The placements as a map from applicant id, in admission order,
        built on each access."""
        rows = zip(self.ids.tolist(), self.school_ids.tolist(), self.ranks.tolist())
        return {i: Placement(school_id=s, preference_rank_obtained=r) for i, s, r in rows}


@dataclass(frozen=True)
class SeededRng:
    """Reproducible random source: identical (seed, stream_id) gives identical
    draw sequences across runs and platforms. Both are integers in
    0..2^64-1, the words numpy's SeedSequence takes; any other value is a
    DomainError, so that no two seeds draw alike."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not 0 <= value < 2**64:
                raise DomainError(f"{name} {value} is outside 0..2^64-1")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.stream_id)))

    def substream(self, label: str, index: int = 0) -> "SeededRng":
        """Derive a named stream (stable across runs and platforms)."""
        key = f"{self.stream_id}/{label}/{index}".encode()
        sid = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
        return SeededRng(seed=self.seed, stream_id=sid)


def distance_matrix(prefectures: Sequence[Prefecture]) -> np.ndarray:
    """Pairwise distance matrix, row and column p for `prefectures[p]`."""
    coords = np.array([p.coord for p in prefectures], dtype=float).reshape(-1, 2)
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def panel_grid(years: Sequence[int], n_prefectures: int) -> dict[str, np.ndarray]:
    """The `prefecture_id` and `year` columns of one seed's panel: every
    (year, prefecture) pair, year-major, both ascending. `fe_ols` takes
    panels on this grid only."""
    return {
        "prefecture_id": np.tile(np.arange(n_prefectures, dtype=np.int64), len(years)),
        "year": np.repeat(np.asarray(years, dtype=np.int64), n_prefectures),
    }


def validate_market(prefectures: Sequence[Prefecture], schools: Sequence[School]) -> list[str]:
    """Check the invariants of a geography and its schools; returns every
    violation found as a "code: message" string (empty = ok). A school's host
    must be a row of `prefectures`. `urban` is taken as given, and applicants
    are checked where they are built (see `Cohort`). `build_prefectures` rules
    out `no_tokyo` and `weights_not_normalized`, but `build_scenario` takes
    hand-built lists, and a lockfile's weights are taken verbatim."""
    out: list[str] = []

    total = sum(p.pop_weight for p in prefectures)
    if not abs(total - 1.0) <= 1e-9:  # a NaN sum fails too
        out.append(f"weights_not_normalized: pop_weights sum to {total!r}, expected 1")
    for i, p in enumerate(prefectures):
        if p.pop_weight < 0:
            out.append(f"negative_weight: prefecture {i} has pop_weight {p.pop_weight}")
        if p.edu_index < 0:
            out.append(f"negative_edu_index: prefecture {i} has edu_index {p.edu_index}")
    seen_coords: dict[tuple[float, float], int] = {}
    for i, p in enumerate(prefectures):
        if p.coord in seen_coords:
            out.append(f"duplicate_coord: prefectures {seen_coords[p.coord]} and {i} share a coordinate")
        seen_coords[p.coord] = i

    if not any(p.name == "Tokyo" for p in prefectures):
        out.append("no_tokyo: no prefecture named Tokyo to anchor the urban band")

    # 1..S in any order, which also makes them unique; utility column k belongs to school k + 1 (see `Cohort`)
    if sorted(s.id for s in schools) != list(range(1, len(schools) + 1)):
        out.append(f"school_ids: school ids are not 1..{len(schools)} without gaps")
    for s in schools:
        if s.capacity <= 0:
            out.append(f"nonpositive_capacity: school {s.id} has capacity {s.capacity}")
        if not 0 <= s.prefecture_id < len(prefectures):
            out.append(f"unknown_prefecture: school {s.id} hosted by unknown prefecture {s.prefecture_id}")
    prestiges = [s.prestige for s in schools]
    if len(set(prestiges)) != len(prestiges):
        out.append("prestige_ties: school prestiges are not strictly ordered (ties present)")

    return out


# ---------------------------------------------------------------------------
# Default geography: 47 prefectures on a planar km grid (equirectangular
# projection of capital-city positions, reference 36N/138E). Three borderline
# positions are nudged so that exactly 7 prefectures fall inside the 100 km
# Tokyo band with a comfortable margin. Population weights are rough
# turn-of-the-century relative sizes; edu_index peaks in Tokyo and the large
# urban centers.
# ---------------------------------------------------------------------------

# name, x_km, y_km, raw population weight, edu_index
_PREFECTURE_TABLE: list[tuple[str, float, float, float, float]] = [
    ("Hokkaido", 301.4, 786.4, 10.5, 0.30),
    ("Aomori", 246.8, 537.0, 6.1, 0.25),
    ("Iwate", 284.0, 412.3, 7.2, 0.25),
    ("Miyagi", 258.7, 252.6, 8.6, 0.45),
    ("Akita", 189.3, 414.0, 7.8, 0.25),
    ("Yamagata", 212.9, 249.4, 8.3, 0.28),
    ("Fukushima", 222.3, 194.8, 10.9, 0.30),
    ("Ibaraki", 216.6, 34.1, 11.2, 0.45),
    ("Tochigi", 168.8, 58.0, 8.4, 0.40),
    ("Gunma", 95.5, 43.5, 8.1, 0.40),
    ("Saitama", 148.5, -15.9, 12.0, 0.45),
    ("Chiba", 191.2, -44.0, 12.8, 0.45),
    ("Tokyo", 152.4, -34.6, 19.6, 1.00),
    ("Kanagawa", 147.9, -61.4, 9.3, 0.55),
    ("Niigata", 92.1, 211.7, 17.8, 0.35),
    ("Toyama", -71.1, 77.4, 7.7, 0.30),
    ("Ishikawa", -123.7, 66.1, 7.5, 0.40),
    ("Fukui", -160.1, 7.2, 6.2, 0.30),
    ("Yamanashi", 44.4, -37.6, 5.0, 0.28),
    ("Nagano", 16.3, 72.5, 13.0, 0.35),
    ("Gifu", -115.1, -67.8, 9.9, 0.32),
    ("Shizuoka", 34.5, -113.9, 12.2, 0.38),
    ("Aichi", -98.4, -91.3, 15.9, 0.50),
    ("Mie", -134.3, -141.4, 9.8, 0.32),
    ("Shiga", -191.9, -110.9, 6.8, 0.30),
    ("Kyoto", -202.1, -109.0, 9.5, 0.60),
    ("Osaka", -223.3, -146.3, 18.3, 0.55),
    ("Hyogo", -253.7, -145.7, 17.3, 0.45),
    ("Nara", -195.2, -146.4, 5.4, 0.28),
    ("Wakayama", -255.1, -197.5, 6.8, 0.28),
    ("Tottori", -338.8, -55.2, 4.1, 0.25),
    ("Shimane", -445.7, -58.8, 7.0, 0.25),
    ("Okayama", -366.1, -148.9, 11.2, 0.42),
    ("Hiroshima", -498.9, -178.6, 14.1, 0.40),
    ("Yamaguchi", -588.0, -201.9, 9.8, 0.35),
    ("Tokushima", -309.9, -215.3, 6.8, 0.28),
    ("Kagawa", -356.4, -184.8, 7.0, 0.30),
    ("Ehime", -471.4, -240.2, 9.9, 0.30),
    ("Kochi", -402.5, -271.6, 6.2, 0.28),
    ("Fukuoka", -682.8, -266.4, 13.7, 0.40),
    ("Saga", -693.5, -306.2, 6.2, 0.28),
    ("Nagasaki", -731.8, -362.3, 8.5, 0.32),
    ("Kumamoto", -653.7, -357.3, 11.8, 0.42),
    ("Oita", -575.2, -307.5, 8.3, 0.28),
    ("Miyazaki", -592.2, -455.2, 4.6, 0.25),
    ("Kagoshima", -670.2, -494.3, 11.0, 0.38),
    ("Okinawa", -929.3, -1089.6, 4.7, 0.20),
]

# The eight-school hierarchy: id, host prefecture name. School 1 (Tokyo) is
# the most selective, School 3 (Kyoto) second; 5 and 7 sit at the bottom.
_SCHOOL_HOSTS: list[tuple[int, str]] = [
    (1, "Tokyo"),
    (2, "Miyagi"),
    (3, "Kyoto"),
    (4, "Ishikawa"),
    (5, "Kumamoto"),
    (6, "Okayama"),
    (7, "Kagoshima"),
    (8, "Aichi"),
]

def build_prefectures(rows: Iterable[tuple[str, float, float, float, float]]) -> list[Prefecture]:
    """Construct prefectures from (name, x_km, y_km, weight, edu_index) rows.

    Weights are normalized to sum to 1; the urban flag is derived from the
    100 km band around the row named Tokyo. Coordinates that spread more than
    `MAX_KM` and a name on two rows, which the schools' hosts and the Tokyo
    band look up, are each a DomainError.
    """
    raw = list(rows)
    if not raw:
        raise DomainError("empty prefecture table")
    first: dict[str, int] = {}
    for k, (name, *_) in enumerate(raw):
        if first.setdefault(name, k) != k:
            raise DomainError(f"prefecture rows {first[name]} and {k} are both named {name!r}")
    for name, *numbers in raw:
        if not all(map(math.isfinite, numbers)):
            raise DomainError(f"prefecture {name} has a non-finite x_km, y_km, weight or edu_index: {numbers}")
    # no pair of prefectures is further apart in x or in y than the largest spreads
    dx, dy = (max(r[k] for r in raw) - min(r[k] for r in raw) for k in (1, 2))
    if not math.hypot(dx, dy) <= MAX_KM:
        raise DomainError(f"prefecture coordinates spread {dx:.4g} km in x and {dy:.4g} km in y, more than {MAX_KM:g} km")
    total = sum(r[3] for r in raw)
    if total <= 0:
        raise DomainError("prefecture weights must have a positive sum")
    tokyo = next(((x, y) for name, x, y, _, _ in raw if name == "Tokyo"), None)
    if tokyo is None:
        raise DomainError("prefecture table must contain a row named Tokyo")
    return [
        Prefecture(name, (x, y), math.hypot(x - tokyo[0], y - tokyo[1]) <= URBAN_RADIUS_KM, w / total, edu)
        for name, x, y, w, edu in raw
    ]


def default_prefectures() -> list[Prefecture]:
    return build_prefectures(_PREFECTURE_TABLE)


def default_schools(prefectures: Sequence[Prefecture], capacities: Sequence[int], prestige: Sequence[float]) -> list[School]:
    """The 8-school hierarchy placed on its host prefectures.

    `capacities` and `prestige` are indexed by school id - 1.
    """
    if len(capacities) != len(_SCHOOL_HOSTS) or len(prestige) != len(_SCHOOL_HOSTS):
        raise DomainError(f"expected {len(_SCHOOL_HOSTS)} capacities and prestige values")
    by_name = {p.name: i for i, p in enumerate(prefectures)}
    missing = [host for _, host in _SCHOOL_HOSTS if host not in by_name]
    if missing:
        raise DomainError(f"school host prefecture {missing[0]!r} not in geography")
    return [School(sid, by_name[host], capacities[sid - 1], prestige[sid - 1]) for sid, host in _SCHOOL_HOSTS]
