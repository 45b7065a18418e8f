"""Least-squares estimators for simulated panels and series.

Provides two-way fixed-effects OLS via iterated within-demeaning with
classical or cluster-robust (CR0) covariance; trend OLS with Newey-West
(Bartlett) covariance; and the centralization difference-in-differences
spec.

Conventions, chosen once and used by tests as the contract:
  * CR0 sandwich carries the finite-sample factor G/(G-1) * (N-1)/(N-K),
    where K counts regressors plus absorbed fixed-effect parameters.
  * p-values use a t distribution with G-1 degrees of freedom under
    clustering and N-K otherwise.
  * Newey-West applies no finite-sample scaling, so lag 0 equals HC0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.special

from .core import DomainError

DEMEAN_TOL = 1e-10
DEMEAN_MAX_SWEEPS = 100


@dataclass(frozen=True)
class RegressionSpec:
    outcome: str
    regressors: tuple[str, ...]
    unit: str | None = None
    time: str | None = None
    cluster: str | None = None
    covariance: str = "classical"  # classical | cluster | newey-west
    nw_lags: int = 0

    def __post_init__(self) -> None:
        if self.covariance not in ("classical", "cluster", "newey-west"):
            raise DomainError(f"unknown covariance mode {self.covariance!r}")
        if self.covariance == "cluster" and self.cluster is None:
            raise DomainError("cluster-robust covariance requires a cluster column")
        if self.nw_lags < 0:
            raise DomainError("nw_lags must be >= 0")


@dataclass(frozen=True)
class RegressionResult:
    names: tuple[str, ...]
    beta: np.ndarray
    cov: np.ndarray
    se: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    n_obs: int
    n_clusters: int | None
    r2_within: float

    def coef(self, name: str) -> float:
        return float(self.beta[self.names.index(name)])

    def se_of(self, name: str) -> float:
        return float(self.se[self.names.index(name)])

    def p_of(self, name: str) -> float:
        return float(self.p_values[self.names.index(name)])


def _column(panel: Mapping[str, Sequence], name: str, n: int | None = None) -> np.ndarray:
    if name not in panel:
        raise DomainError(f"panel has no column {name!r}")
    arr = np.asarray(panel[name], dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"column {name!r} is not one-dimensional")
    if n is not None and arr.shape[0] != n:
        raise DomainError(f"column {name!r} has length {arr.shape[0]}, expected {n}")
    return arr


def _codes(panel: Mapping[str, Sequence], name: str, n: int) -> tuple[np.ndarray, int]:
    if name not in panel:
        raise DomainError(f"panel has no column {name!r}")
    raw = np.asarray(panel[name])
    if raw.shape[0] != n:
        raise DomainError(f"column {name!r} has length {raw.shape[0]}, expected {n}")
    _, codes = np.unique(raw, return_inverse=True)
    return codes, int(codes.max()) + 1


def _group_demean(Z: np.ndarray, codes: np.ndarray, n_groups: int) -> np.ndarray:
    sums = np.zeros((n_groups, Z.shape[1]))
    np.add.at(sums, codes, Z)
    counts = np.bincount(codes, minlength=n_groups).astype(float)
    counts[counts == 0] = 1.0
    return Z - sums[codes] / counts[codes, None]


def two_way_demean(
    Z: np.ndarray,
    unit_codes: np.ndarray | None,
    time_codes: np.ndarray | None,
    n_units: int = 0,
    n_times: int = 0,
) -> tuple[np.ndarray, int]:
    """Alternate unit/time demeaning until the largest per-sweep change falls
    below `DEMEAN_TOL`, for at most `DEMEAN_MAX_SWEEPS` sweeps. Balanced
    two-way panels converge exactly in one sweep (the second sweep only
    confirms it)."""
    Z = np.array(Z, dtype=float)
    if unit_codes is None and time_codes is None:
        return Z, 0
    sweeps = 0
    for sweeps in range(1, DEMEAN_MAX_SWEEPS + 1):
        prev = Z.copy()
        if unit_codes is not None:
            Z = _group_demean(Z, unit_codes, n_units)
        if time_codes is not None:
            Z = _group_demean(Z, time_codes, n_times)
        change = float(np.max(np.abs(Z - prev))) if Z.size else 0.0
        if change < DEMEAN_TOL:
            break
    return Z, sweeps


def _check_rank(X: np.ndarray, names: Sequence[str]) -> None:
    """Reject regressors without within-variation, then regressors in the span
    of the regressors before them, naming them in regressor order.

    A column is in that span when its |R_jj| in an unpivoted Householder QR is
    at most the largest column 2-norm x max(n, K) x eps x 1e3; past n
    independent columns every column is. A full-rank X costs one QR. Otherwise
    each column is tested against the independent columns before it, because
    after a dependent column a single QR's later R_jj also lose an arbitrary
    direction, and an independent column could be named with it.
    """
    scale = np.max(np.abs(X), axis=0)
    dead = [names[j] for j in range(X.shape[1]) if scale[j] <= 1e-12]
    if dead:
        raise DomainError(f"no within-variation in regressor(s): {', '.join(dead)}")
    n, k = X.shape
    R = np.linalg.qr(X, mode="r")
    # Q keeps column norms, so R's largest column norm is X's
    threshold = np.max(np.linalg.norm(R, axis=0)) * max(n, k) * np.finfo(float).eps * 1e3
    if n >= k and np.all(np.abs(np.diag(R)) > threshold):
        return
    kept: list[int] = []
    for j in range(k):
        if len(kept) < n and abs(np.linalg.qr(X[:, kept + [j]], mode="r")[-1, -1]) > threshold:
            kept.append(j)
    offending = [names[j] for j in range(k) if j not in kept]
    if offending:
        raise DomainError(f"perfectly collinear regressor(s) after demeaning: {', '.join(offending)}")


def _sandwich(bread: np.ndarray, meat: np.ndarray) -> np.ndarray:
    cov = bread @ meat @ bread
    return (cov + cov.T) / 2.0


def _p_values(t_stats: np.ndarray, df: float) -> np.ndarray:
    # stdtr(df, -x) is what scipy.stats.t.sf evaluates; importing scipy.stats
    # would about double the package's import time
    return 2.0 * scipy.special.stdtr(max(df, 1.0), -np.abs(t_stats))


def fe_ols(panel: Mapping[str, Sequence], spec: RegressionSpec) -> RegressionResult:
    """Within-transformed OLS with up to two absorbed fixed-effect dimensions.

    With no fixed effects an intercept column is added automatically.
    Collinear regressors and regressors without within-variation are
    reported by name.
    """
    if spec.covariance == "newey-west":
        raise DomainError("use newey_west_ols for HAC covariance")
    y = _column(panel, spec.outcome)
    n = y.shape[0]
    if n == 0:
        raise DomainError("empty panel")
    names = list(spec.regressors)
    X = np.column_stack([_column(panel, c, n) for c in names]) if names else np.empty((n, 0))

    unit_codes = time_codes = None
    n_units = n_times = 0
    if spec.unit is not None:
        unit_codes, n_units = _codes(panel, spec.unit, n)
    if spec.time is not None:
        time_codes, n_times = _codes(panel, spec.time, n)
    if unit_codes is None and time_codes is None:
        X = np.column_stack([np.ones(n), X])
        names = ["const"] + names

    Z = np.column_stack([y, X])
    Zt, _ = two_way_demean(Z, unit_codes, time_codes, n_units, n_times)
    yt, Xt = Zt[:, 0], Zt[:, 1:]
    if Xt.shape[1] == 0:
        raise DomainError("no regressors")
    _check_rank(Xt, names)

    beta, *_ = np.linalg.lstsq(Xt, yt, rcond=None)
    resid = yt - Xt @ beta

    if unit_codes is not None and time_codes is not None:
        absorbed = n_units + n_times - 1
    elif unit_codes is not None:
        absorbed = n_units
    elif time_codes is not None:
        absorbed = n_times
    else:
        absorbed = 0
    k_total = len(names) + absorbed
    df_resid = n - k_total
    if df_resid <= 0:
        raise DomainError(f"no residual degrees of freedom (n={n}, k={k_total})")

    bread = np.linalg.inv(Xt.T @ Xt)
    n_clusters = None
    if spec.covariance == "classical":
        sigma2 = float(resid @ resid) / df_resid
        cov = sigma2 * bread
        df = float(df_resid)
    else:  # cluster
        codes, G = _codes(panel, spec.cluster, n)
        scores = Xt * resid[:, None]
        sums = np.zeros((G, Xt.shape[1]))
        np.add.at(sums, codes, scores)
        meat = sums.T @ sums
        if G < 2:
            raise DomainError("cluster-robust covariance needs at least 2 clusters")
        factor = (G / (G - 1.0)) * ((n - 1.0) / df_resid)
        cov = _sandwich(bread, factor * meat)
        n_clusters = G
        df = float(G - 1)

    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    p = _p_values(t_stats, df)

    sst = float(np.sum((yt - yt.mean()) ** 2))
    ssr = float(resid @ resid)
    r2_within = 1.0 - ssr / sst if sst > 0 else 0.0

    return RegressionResult(
        names=tuple(names),
        beta=beta,
        cov=cov,
        se=se,
        t_stats=t_stats,
        p_values=p,
        n_obs=n,
        n_clusters=n_clusters,
        r2_within=r2_within,
    )


def newey_west_ols(table: Mapping[str, Sequence], spec: RegressionSpec) -> RegressionResult:
    """OLS on a time series with Bartlett-weighted HAC covariance.

    Rows must be time-ordered (they are sorted by `spec.time` when given).
    An intercept is added automatically. Lag 0 reproduces HC0 exactly.
    """
    y = _column(table, spec.outcome)
    n = y.shape[0]
    names = ["const"] + list(spec.regressors)
    X = np.column_stack([np.ones(n)] + [_column(table, c, n) for c in spec.regressors])
    if spec.time is not None:
        order = np.argsort(np.asarray(table[spec.time]), kind="stable")
        y, X = y[order], X[order]
    L = spec.nw_lags
    if L >= n:
        raise DomainError(f"Newey-West lag {L} must be smaller than the series length {n}")
    _check_rank(X, names)

    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    scores = X * resid[:, None]
    meat = scores.T @ scores
    for lag in range(1, L + 1):
        w = 1.0 - lag / (L + 1.0)
        gamma = scores[lag:].T @ scores[:-lag]
        meat += w * (gamma + gamma.T)
    bread = np.linalg.inv(X.T @ X)
    cov = _sandwich(bread, meat)

    df_resid = n - len(names)
    if df_resid <= 0:
        raise DomainError(f"no residual degrees of freedom (n={n}, k={len(names)})")
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    p = _p_values(t_stats, float(df_resid))
    sst = float(np.sum((y - y.mean()) ** 2))
    ssr = float(resid @ resid)
    return RegressionResult(
        names=tuple(names),
        beta=beta,
        cov=cov,
        se=se,
        t_stats=t_stats,
        p_values=p,
        n_obs=n,
        n_clusters=None,
        r2_within=1.0 - ssr / sst if sst > 0 else 0.0,
    )


def with_interaction(panel: Mapping[str, Sequence], a: str, b: str) -> dict:
    """Copy of the panel with an `{a}_x_{b}` interaction column added."""
    n = len(np.asarray(panel[a]))
    cols = dict(panel)
    cols[f"{a}_x_{b}"] = _column(panel, a, n) * _column(panel, b, n)
    return cols


def did_centralization(panel: Mapping[str, Sequence]) -> RegressionResult:
    """Difference-in-differences on the regime switch: entrants regressed on
    centralized x tokyo_area with prefecture and year fixed effects,
    clustering by prefecture, and no further controls."""
    cols = with_interaction(panel, "centralized", "tokyo_area")
    spec = RegressionSpec(
        outcome="entrants",
        regressors=("centralized_x_tokyo_area",),
        unit="prefecture_id",
        time="year",
        cluster="prefecture_id",
        covariance="cluster",
    )
    return fe_ols(cols, spec)
