"""Least-squares estimators for the regression battery, which fits two models:

  * `fe_ols`, on the year-major prefecture-by-year grid of `panel_grid`:
    `entrants` on the given regressors with prefecture and year fixed
    effects, absorbed by the within transform of the balanced panel, and CR0
    errors clustered by prefecture. The sandwich carries the finite-sample
    factor G/(G-1) * (N-1)/(N-K), where G counts the prefectures and K the
    regressors plus the absorbed fixed-effect parameters. p-values use a t
    distribution with G-1 degrees of freedom.
    `did_centralization` is the centralization difference-in-differences on it.
  * `newey_west_ols`, on a time series: an outcome on an intercept and the
    given regressors with Bartlett-weighted Newey-West covariance. It applies
    no finite-sample scaling, so lag 0 equals HC0. p-values use a t
    distribution with N-K degrees of freedom, K counting the intercept.

The tests hold these conventions as the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import DomainError, panel_grid

# `build_panel`'s columns: the panel outcome, and the unit and time effects
OUTCOME, UNIT, TIME = "entrants", "prefecture_id", "year"

P_VALUE_MAX_TERMS = 500


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


def _grid_shape(panel: Mapping[str, Sequence], n: int) -> tuple[int, int]:
    """(T, P) of a panel whose rows are `panel_grid(years, P)`, P being the
    number of rows in the first row's year and `years` strictly ascending."""
    unit, time = _column(panel, UNIT, n), _column(panel, TIME, n)
    n_units = int(np.count_nonzero(time == time[0]))
    years = time[:: max(n_units, 1)]
    # a year that is not an int64 casts to another value, which the comparison rejects
    with np.errstate(invalid="ignore"):
        grid = panel_grid(years, n_units)
    if not (np.all(np.diff(years) > 0) and np.array_equal(unit, grid[UNIT]) and np.array_equal(time, grid[TIME])):
        raise DomainError(
            "panel rows must be the year-major grid: prefectures 0..P-1 in order within each year, "
            "P the rows of the first year, and the years strictly ascending"
        )
    return len(years), n_units


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


def _log_gamma_ratio_half(a: float) -> float:
    """ln Γ(a + 1/2) - ln Γ(a). A difference of two `math.lgamma` values
    loses eps * lgamma(a) to cancellation (5e-10 at a = 5e5), so this sums
    the asymptotic series, good to 4e-15 from a = 20, after shifting a up
    to 20 by the recurrence Γ(z + 1) = z Γ(z)."""
    shift = max(0, math.ceil(20.0 - a))
    z = a + shift
    series = 0.5 * math.log(z) - 1 / (8 * z) + 1 / (192 * z**3) - 1 / (640 * z**5) + 17 / (14336 * z**7)
    return series - math.fsum(math.log1p(0.5 / (a + j)) for j in range(shift))


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction f in I_x(a, b) = x^a y^b / (B(a, b) f), where
    y = 1 - x is passed in, not recomputed (DiDonato & Morris 1992, BFRAC),
    evaluated by modified Lentz. It converges fast for x < (a+1)/(a+b+2)."""
    tiny = 1e-300
    f = a * (a * y - b * x + 1.0) / (a + 1.0) or tiny
    c, d = f, 0.0
    for m in range(1, P_VALUE_MAX_TERMS + 1):
        k = a + 2 * m - 1
        am = (a + m - 1) * (a + b + m - 1) * m * (b - m) * x * x / (k * k)
        bm = m + m * (b - m) * x / k + (a + m) * (a * y - b * x + 1 + m * (2 - x)) / (k + 2)
        d = 1.0 / ((bm + am * d) or tiny)
        c = (bm + am / c) or tiny
        f *= c * d
        if abs(c * d - 1.0) <= np.finfo(float).eps:
            return f
    raise ArithmeticError(f"beta fraction ({a}, {b}, x={x}) did not converge in {P_VALUE_MAX_TERMS} terms")


def _p_values(t_stats: np.ndarray, df: float) -> np.ndarray:
    """Two-sided Student-t p-values P(|T| > |t|): (2/π) atan(1/|t|) for
    df <= 1, else I_x(df/2, 1/2) with x = df / (df + t^2).

    I_x follows Numerical Recipes §6.4: the factor x^a (1-x)^b / B(a, b) in
    logs, over a continued fraction evaluated by Lentz's method, directly
    for x < (a+1)/(a+b+2) and as 1 - I_{1-x}(b, a) above. 1 - x is formed
    as t^2 / (df + t^2), never by subtraction. The fraction is DiDonato &
    Morris's, which reads 1 - x as well as x; Numerical Recipes' own reads
    x alone and was off by 9e-11 relative at df = 1e6, t = 1.9. Against
    2 * scipy.stats.t.sf, for df from 2 to 1e15 and t from 1e-12 to 1e8,
    the error stayed below 3e-13 relative, with at most 59 terms; the tests
    bound it at 1e-11. A fraction that has not converged after
    `P_VALUE_MAX_TERMS` terms raises ArithmeticError. A NaN t gives NaN."""
    t = np.abs(np.asarray(t_stats, dtype=float))
    if df <= 1.0:
        return np.arctan2(1.0, t) / (np.pi / 2)
    a = df / 2
    with np.errstate(divide="ignore", over="ignore"):
        u = t * t / df
        x, y = 1.0 / (1.0 + u), 1.0 / (1.0 + 1.0 / u)
        front = np.exp(_log_gamma_ratio_half(a) - 0.5 * math.log(math.pi) - a * np.log1p(u) - 0.5 * np.log1p(1 / u))
    lower = (a + 2.5) * y > 1.5
    rows = zip(front.ravel().tolist(), x.ravel().tolist(), y.ravel().tolist(), lower.ravel().tolist())
    p = [
        math.nan if math.isnan(w)
        else w / _beta_fraction(a, 0.5, xi, yi) if low
        else 1.0 - w / _beta_fraction(0.5, a, yi, xi)
        for w, xi, yi, low in rows
    ]
    return np.array(p).reshape(t.shape)


def _result(
    names: Sequence[str], beta: np.ndarray, cov: np.ndarray, n: int, n_clusters: int | None, df: float
) -> RegressionResult:
    """The estimates with their standard errors, t statistics and p-values on t(df)."""
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    return RegressionResult(tuple(names), beta, cov, se, t_stats, _p_values(t_stats, df), n, n_clusters)


def fe_ols(panel: Mapping[str, Sequence], regressors: Sequence[str]) -> RegressionResult:
    """OLS of `entrants` on `regressors` with prefecture and year fixed effects
    absorbed and CR0 errors clustered by prefecture.

    The rows must be the full grid `panel_grid(years, P)`: year-major, the
    prefecture ids 0..P-1 in order within each year and the years strictly
    ascending, P being the number of rows in the first row's year. Any other
    order, a missing or repeated row, or other ids is a DomainError. Collinear
    regressors and regressors without within-variation are reported by name.
    """
    y = _column(panel, OUTCOME)
    n = y.shape[0]
    if n == 0:
        raise DomainError("empty panel")
    names = list(regressors)
    if not names:
        raise DomainError("no regressors")
    X = np.column_stack([_column(panel, c, n) for c in names])
    n_times, n_units = _grid_shape(panel, n)
    # On a balanced panel a prefecture pass then a year pass is the within
    # transform; the second pair of passes removes only rounding. Each
    # reduction adds a group's rows in row order.
    Z = np.column_stack([y, X]).reshape(n_times, n_units, -1)
    for _ in range(2):
        Z = Z - np.add.reduce(Z, axis=0) / n_times
        Z = Z - np.add.reduce(Z, axis=1, keepdims=True) / n_units
    Zt = Z.reshape(n, -1)
    yt, Xt = Zt[:, 0], Zt[:, 1:]
    _check_rank(Xt, names)

    beta, *_ = np.linalg.lstsq(Xt, yt, rcond=None)
    resid = yt - Xt @ beta
    k_total = len(names) + n_units + n_times - 1
    df_resid = n - k_total
    if df_resid <= 0:
        raise DomainError(f"no residual degrees of freedom (n={n}, k={k_total})")
    if n_units < 2:
        raise DomainError("cluster-robust covariance needs at least 2 clusters")

    bread = np.linalg.inv(Xt.T @ Xt)
    sums = np.add.reduce((Xt * resid[:, None]).reshape(n_times, n_units, -1), axis=0)
    factor = (n_units / (n_units - 1.0)) * ((n - 1.0) / df_resid)
    cov = _sandwich(bread, factor * (sums.T @ sums))
    return _result(names, beta, cov, n, n_units, float(n_units - 1))


def newey_west_ols(
    table: Mapping[str, Sequence], outcome: str, regressors: Sequence[str], lags: int
) -> RegressionResult:
    """OLS of `outcome` on an intercept and `regressors` with Bartlett-weighted
    HAC covariance over `lags` lags. Lag 0 reproduces HC0 exactly.

    The weights pair each row with the `lags` rows before it, so the rows
    must come in time order; they are not sorted here.
    """
    y = _column(table, outcome)
    n = y.shape[0]
    names = ["const", *regressors]
    X = np.column_stack([np.ones(n)] + [_column(table, c, n) for c in regressors])
    if not 0 <= lags < n:
        raise DomainError(f"Newey-West lag {lags} must be >= 0 and smaller than the series length {n}")
    _check_rank(X, names)

    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    scores = X * resid[:, None]
    meat = scores.T @ scores
    for lag in range(1, lags + 1):
        w = 1.0 - lag / (lags + 1.0)
        gamma = scores[lag:].T @ scores[:-lag]
        meat += w * (gamma + gamma.T)
    bread = np.linalg.inv(X.T @ X)
    cov = _sandwich(bread, meat)

    df_resid = n - len(names)
    if df_resid <= 0:
        raise DomainError(f"no residual degrees of freedom (n={n}, k={len(names)})")
    return _result(names, beta, cov, n, None, float(df_resid))


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
    return fe_ols(with_interaction(panel, "centralized", "tokyo_area"), ("centralized_x_tokyo_area",))
