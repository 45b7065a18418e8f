import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from meritmatch.core import DomainError
from meritmatch.econometrics import (
    RegressionSpec,
    _check_rank,
    _group_demean,
    _p_values,
    did_centralization,
    fe_ols,
    newey_west_ols,
    two_way_demean,
    with_interaction,
)

from oracles import direct_cluster_cov, dummy_ols


def balanced_panel(gen, n_units, n_times, k=2, noise=1.0, beta=None, unbalance=0.0):
    units = np.repeat(np.arange(n_units), n_times)
    times = np.tile(np.arange(n_times), n_units)
    n = len(units)
    X = gen.normal(0, 1, (n, k))
    beta = np.asarray(beta if beta is not None else gen.normal(0, 2, k))
    alpha = gen.normal(0, 2, n_units)
    gamma = gen.normal(0, 2, n_times)
    y = X @ beta + alpha[units] + gamma[times] + noise * gen.normal(0, 1, n)
    if unbalance > 0:
        keep = gen.random(n) > unbalance
        keep[: n_times] = True  # keep the first unit whole for connectivity
        if keep.sum() >= n_units + n_times + k + 4:  # keep the panel estimable
            units, times, X, y = units[keep], times[keep], X[keep], y[keep]
    panel = {"y": y, "unit": units, "time": times}
    for j in range(k):
        panel[f"x{j}"] = X[:, j]
    return panel, beta


def _spec(k=2, cov="classical", cluster=None, **kw):
    return RegressionSpec(
        outcome="y",
        regressors=tuple(f"x{j}" for j in range(k)),
        unit="unit",
        time="time",
        cluster=cluster,
        covariance=cov,
        **kw,
    )


def test_exact_recovery_without_noise():
    gen = np.random.default_rng(0)
    panel, _ = balanced_panel(gen, 10, 8, k=1, noise=0.0, beta=[2.0])
    res = fe_ols(panel, _spec(k=1))
    assert res.coef("x0") == pytest.approx(2.0, abs=1e-8)
    assert res.r2_within == pytest.approx(1.0, abs=1e-10)


def test_matches_dummy_ols_on_random_panels():
    gen = np.random.default_rng(42)
    for _ in range(200):
        n_units = int(gen.integers(3, 12))
        n_times = int(gen.integers(3, 9))
        k = int(gen.integers(1, 4))
        panel, _ = balanced_panel(gen, n_units, n_times, k=k, unbalance=float(gen.random() * 0.3))
        res = fe_ols(panel, _spec(k=k))
        oracle = dummy_ols(
            panel["y"],
            np.column_stack([panel[f"x{j}"] for j in range(k)]),
            panel["unit"],
            panel["time"],
        )
        assert np.allclose(res.beta, oracle, atol=1e-8)


def test_matches_dummy_ols_one_way_and_pooled():
    gen = np.random.default_rng(7)
    for unit_fe, time_fe in ((True, False), (False, True), (False, False)):
        panel, _ = balanced_panel(gen, 8, 6, k=2)
        spec = RegressionSpec(
            outcome="y",
            regressors=("x0", "x1"),
            unit="unit" if unit_fe else None,
            time="time" if time_fe else None,
        )
        res = fe_ols(panel, spec)
        oracle = dummy_ols(
            panel["y"],
            np.column_stack([panel["x0"], panel["x1"]]),
            panel["unit"] if unit_fe else None,
            panel["time"] if time_fe else None,
        )
        got = res.beta if (unit_fe or time_fe) else res.beta[1:]  # skip const
        assert np.allclose(got, oracle, atol=1e-8)


def test_cluster_covariance_matches_direct_oracle():
    gen = np.random.default_rng(3)
    for _ in range(50):
        panel, _ = balanced_panel(gen, 8, 6, k=2, unbalance=0.2)
        res = fe_ols(panel, _spec(cov="cluster", cluster="unit"))
        # rebuild the demeaned design independently
        Z = np.column_stack([panel["y"], panel["x0"], panel["x1"]])
        _, u_codes = np.unique(panel["unit"], return_inverse=True)
        _, t_codes = np.unique(panel["time"], return_inverse=True)
        Zt, _ = two_way_demean(Z, u_codes, t_codes, u_codes.max() + 1, t_codes.max() + 1)
        yt, Xt = Zt[:, 0], Zt[:, 1:]
        beta = np.linalg.lstsq(Xt, yt, rcond=None)[0]
        resid = yt - Xt @ beta
        k_total = 2 + (u_codes.max() + 1) + (t_codes.max() + 1) - 1
        oracle = direct_cluster_cov(Xt, resid, u_codes, k_total)
        assert np.allclose(res.cov, oracle, rtol=1e-10, atol=1e-14)
        assert np.allclose(res.se, np.sqrt(np.diag(oracle)), rtol=1e-10)


def test_newey_west_lag0_equals_hc0():
    gen = np.random.default_rng(5)
    n = 60
    table = {
        "y": gen.normal(0, 1, n) + 0.5 * np.arange(n),
        "x0": gen.normal(0, 1, n),
        "trend": np.arange(n, dtype=float),
    }
    res = newey_west_ols(
        table, RegressionSpec(outcome="y", regressors=("x0", "trend"), covariance="newey-west", nw_lags=0)
    )
    X = np.column_stack([np.ones(n), table["x0"], table["trend"]])
    beta = np.linalg.lstsq(X, table["y"], rcond=None)[0]
    e = table["y"] - X @ beta
    bread = np.linalg.inv(X.T @ X)
    hc0 = bread @ (X * e[:, None] ** 2).T @ X @ bread
    assert np.allclose(res.cov, hc0, atol=1e-12)


def test_newey_west_requires_lag_below_length():
    table = {"y": np.arange(5.0), "x0": np.ones(5)}
    with pytest.raises(DomainError):
        newey_west_ols(
            table, RegressionSpec(outcome="y", regressors=("x0",), covariance="newey-west", nw_lags=5)
        )


def test_newey_west_close_to_classical_under_iid():
    gen = np.random.default_rng(17)
    n = 500
    x = gen.normal(0, 1, n)
    y = 1.0 + 2.0 * x + gen.normal(0, 1, n)
    table = {"y": y, "x0": x}
    nw = newey_west_ols(
        table, RegressionSpec(outcome="y", regressors=("x0",), covariance="newey-west", nw_lags=3)
    )
    X = np.column_stack([np.ones(n), x])
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    e = y - X @ beta
    sigma2 = e @ e / (n - 2)
    classical_se = np.sqrt(np.diag(sigma2 * np.linalg.inv(X.T @ X)))
    assert abs(nw.se_of("x0") - classical_se[1]) / classical_se[1] < 0.15


def test_newey_west_recovers_injected_trend_effect():
    # regime indicator plus quadratic trend on a short cohort series
    gen = np.random.default_rng(3)
    n = 33
    t = np.arange(n, dtype=float)
    centralized = ((t >= 4) & (t <= 9) | (t >= 19) & (t <= 20) | (t >= 28) & (t <= 29)).astype(float)
    theta = 4.4
    y = theta * centralized + 0.8 * t + 0.02 * t**2 + gen.normal(0, 1.5, n)
    table = {"y": y, "centralized": centralized, "trend": t, "trend_sq": t**2}
    res = newey_west_ols(
        table,
        RegressionSpec(
            outcome="y",
            regressors=("centralized", "trend", "trend_sq"),
            covariance="newey-west",
            nw_lags=3,
        ),
    )
    assert abs(res.coef("centralized") - theta) <= 2 * res.se_of("centralized")


def test_newey_west_sorts_by_time_column():
    gen = np.random.default_rng(23)
    n = 40
    t = np.arange(n, dtype=float)
    x = gen.normal(0, 1, n)
    y = 1.5 * x + 0.1 * t + gen.normal(0, 1, n)
    table = {"y": y, "x0": x, "t": t}
    perm = gen.permutation(n)
    shuffled = {k: v[perm] for k, v in table.items()}
    spec = RegressionSpec(outcome="y", regressors=("x0",), time="t", covariance="newey-west", nw_lags=3)
    a = newey_west_ols(table, spec)
    b = newey_west_ols(shuffled, spec)
    assert np.allclose(a.beta, b.beta)
    assert np.allclose(a.cov, b.cov)


# -- difference-in-differences --------------------------------------------------------


def _did_panel(seed, effect, n_units=47, n_times=15, noise=1.0):
    gen = np.random.default_rng(seed)
    units = np.repeat(np.arange(n_units), n_times)
    times = np.tile(np.arange(n_times), n_units)
    tokyo_area = (units < 7).astype(float)
    centralized = ((times >= 5) & (times <= 10)).astype(float)
    y = (
        effect * tokyo_area * centralized
        + gen.normal(0, 2, n_units)[units]
        + gen.normal(0, 1, n_times)[times]
        + noise * gen.normal(0, 1, len(units))
    )
    return {
        "entrants": y,
        "prefecture_id": units,
        "year": times,
        "tokyo_area": tokyo_area,
        "centralized": centralized,
    }


def test_did_zero_effect_within_two_se():
    res = did_centralization(_did_panel(1, effect=0.0))
    assert abs(res.coef("centralized_x_tokyo_area")) <= 2 * res.se_of("centralized_x_tokyo_area")


def test_did_recovers_injected_effect():
    hits = 0
    for seed in range(20):
        res = did_centralization(_did_panel(seed, effect=6.68))
        est = res.coef("centralized_x_tokyo_area")
        hits += abs(est - 6.68) <= 2 * res.se_of("centralized_x_tokyo_area")
    assert hits >= 17
    assert res.n_clusters == 47


# -- invariants -----------------------------------------------------------------------


def test_fe_ols_invariant_to_unit_and_time_shifts():
    gen = np.random.default_rng(9)
    panel, _ = balanced_panel(gen, 8, 6, k=2)
    res = fe_ols(panel, _spec())
    shifted = dict(panel)
    unit_shift = gen.normal(0, 5, 8)
    time_shift = gen.normal(0, 5, 6)
    shifted["y"] = panel["y"] + unit_shift[panel["unit"]] + time_shift[panel["time"]]
    res2 = fe_ols(shifted, _spec())
    assert np.allclose(res.beta, res2.beta, atol=1e-8)


def test_covariance_psd_all_modes():
    gen = np.random.default_rng(13)
    panel, _ = balanced_panel(gen, 10, 6, k=3, unbalance=0.15)
    for cov, cluster in (("classical", None), ("cluster", "unit")):
        res = fe_ols(panel, _spec(k=3, cov=cov, cluster=cluster))
        eig = np.linalg.eigvalsh(res.cov)
        assert eig.min() >= -1e-10
    table = {"y": panel["y"], "x0": panel["x0"], "x1": panel["x1"]}
    nw = newey_west_ols(
        table, RegressionSpec(outcome="y", regressors=("x0", "x1"), covariance="newey-west", nw_lags=3)
    )
    assert np.linalg.eigvalsh(nw.cov).min() >= -1e-10


def test_balanced_two_way_demeaning_converges_in_two_sweeps():
    gen = np.random.default_rng(21)
    units = np.repeat(np.arange(12), 9)
    times = np.tile(np.arange(9), 12)
    Z = gen.normal(0, 1, (len(units), 3))
    _, sweeps = two_way_demean(Z, units, times, 12, 9)
    assert sweeps <= 2


def test_unbalanced_demeaning_converges_within_100_sweeps():
    gen = np.random.default_rng(22)
    for _ in range(20):
        panel, _ = balanced_panel(gen, 10, 8, k=1, unbalance=0.35)
        _, u = np.unique(panel["unit"], return_inverse=True)
        _, t = np.unique(panel["time"], return_inverse=True)
        Z = np.column_stack([panel["y"], panel["x0"]])
        Zt, sweeps = two_way_demean(Z, u, t, u.max() + 1, t.max() + 1)
        assert sweeps < 100
        # one more sweep changes nothing beyond tolerance
        Zt2 = _group_demean(_group_demean(Zt, u, u.max() + 1), t, t.max() + 1)
        assert np.max(np.abs(Zt2 - Zt)) < 1e-9


def test_collinear_regressor_reported_by_name():
    gen = np.random.default_rng(31)
    panel, _ = balanced_panel(gen, 6, 5, k=2)
    panel["x_dup"] = 2.0 * panel["x0"]
    spec = RegressionSpec(outcome="y", regressors=("x0", "x1", "x_dup"), unit="unit", time="time")
    with pytest.raises(DomainError, match="x_dup|x0"):
        fe_ols(panel, spec)


def _pivoted_qr_rank(X):
    """Numerical rank of a column-pivoted QR, at the threshold `_check_rank` uses."""
    _, R, _ = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    return int(np.sum(diag > diag[0] * max(X.shape) * np.finfo(float).eps * 1e3))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    k=st.integers(1, 6),
    replaced=st.one_of(st.none(), st.integers(0, 5)),
)
@example(seed=1, n=2, k=5, replaced=None)
@example(seed=2, n=3, k=6, replaced=1)
@example(seed=3, n=4, k=6, replaced=5)
def test_check_rank_agrees_with_pivoted_qr(seed, n, k, replaced):
    assume(replaced is None or replaced < k)
    gen = np.random.default_rng(seed)
    X = gen.normal(0, 1, (n, k)) * 10.0 ** gen.integers(-2, 3, k)
    if replaced is not None:  # a combination of the columns before it (zero for column 0)
        X[:, replaced] = X[:, :replaced] @ gen.integers(-3, 4, replaced)
    names = [f"x{j}" for j in range(k)]
    rank = _pivoted_qr_rank(X)
    if rank == k:
        _check_rank(X, names)
        return
    with pytest.raises(DomainError) as err:
        _check_rank(X, names)
    named = str(err.value).split(": ")[1].split(", ")
    assert named == sorted(named, key=names.index)
    if replaced is None:  # only n < K is rank-deficient
        assert named == names[n:]
    else:
        assert f"x{replaced}" in named
        if "within-variation" not in str(err.value):
            assert len(named) == k - rank


def test_newey_west_duplicated_trend_reported_by_name():
    gen = np.random.default_rng(33)
    t = np.arange(31.0)
    table = {"y": 0.1 * t + gen.normal(0, 1, 31), "t": t, "t_dup": t.copy()}
    with pytest.raises(DomainError, match=r"after demeaning: t_dup$"):
        newey_west_ols(table, RegressionSpec(outcome="y", regressors=("t", "t_dup"), covariance="newey-west"))


def test_zero_within_variation_reported_by_name():
    gen = np.random.default_rng(32)
    panel, _ = balanced_panel(gen, 6, 5, k=1)
    panel["unit_constant"] = panel["unit"].astype(float)  # absorbed by unit FE
    spec = RegressionSpec(outcome="y", regressors=("x0", "unit_constant"), unit="unit", time="time")
    with pytest.raises(DomainError, match="unit_constant"):
        fe_ols(panel, spec)


def test_spec_validation():
    with pytest.raises(DomainError):
        RegressionSpec(outcome="y", regressors=("x",), covariance="cluster")
    with pytest.raises(DomainError):
        RegressionSpec(outcome="y", regressors=("x",), covariance="banana")
    with pytest.raises(DomainError):
        RegressionSpec(outcome="y", regressors=("x",), nw_lags=-1)


def test_missing_column_reported():
    with pytest.raises(DomainError, match="nope"):
        fe_ols({"y": [1.0, 2.0], "unit": [0, 1], "time": [0, 1]}, RegressionSpec(outcome="nope", regressors=()))


def test_with_interaction_names_and_values():
    panel = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 0.5])}
    cols = with_interaction(panel, "a", "b")
    assert np.allclose(cols["a_x_b"], [3.0, 1.0])


@pytest.mark.parametrize("df", [1.0, 3.0, 27.0, 46.0, 1e6])
def test_p_values_equal_scipy_stats_bitwise(df):
    import scipy.stats

    t = np.array([0.0, -5e-324, 1e-300, 1e-8, -0.7, 1.96, 3.5, -40.0, 40.0, np.inf, -np.inf])
    assert _p_values(t, df).tobytes() == (2.0 * scipy.stats.t.sf(np.abs(t), df)).tobytes()
