import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from meritmatch import econometrics
from meritmatch.config import build_scenario
from meritmatch.core import DomainError
from meritmatch.econometrics import (
    _check_rank,
    _group_demean,
    _p_values,
    did_centralization,
    fe_ols,
    newey_west_ols,
    two_way_demean,
    with_interaction,
)
from meritmatch.metrics import build_panel
from meritmatch.pipeline import seed_regressions, simulate_seed
from meritmatch.strategy import BehaviorParams

from oracles import add_at_fe_ols, add_at_group_demean, direct_cluster_cov, dummy_ols


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
    panel = {"entrants": y, "prefecture_id": units, "year": times}
    for j in range(k):
        panel[f"x{j}"] = X[:, j]
    return panel, beta


def _regressors(k=2):
    return tuple(f"x{j}" for j in range(k))


def test_exact_recovery_without_noise():
    gen = np.random.default_rng(0)
    panel, _ = balanced_panel(gen, 10, 8, k=1, noise=0.0, beta=[2.0])
    res = fe_ols(panel, _regressors(k=1))
    assert res.coef("x0") == pytest.approx(2.0, abs=1e-8)


def test_matches_dummy_ols_on_random_panels():
    gen = np.random.default_rng(42)
    for _ in range(200):
        n_units = int(gen.integers(3, 12))
        n_times = int(gen.integers(3, 9))
        k = int(gen.integers(1, 4))
        panel, _ = balanced_panel(gen, n_units, n_times, k=k, unbalance=float(gen.random() * 0.3))
        res = fe_ols(panel, _regressors(k=k))
        oracle = dummy_ols(
            panel["entrants"],
            np.column_stack([panel[f"x{j}"] for j in range(k)]),
            panel["prefecture_id"],
            panel["year"],
        )
        assert np.allclose(res.beta, oracle, atol=1e-8)


def test_cluster_covariance_matches_direct_oracle():
    gen = np.random.default_rng(3)
    for _ in range(50):
        panel, _ = balanced_panel(gen, 8, 6, k=2, unbalance=0.2)
        res = fe_ols(panel, _regressors())
        # rebuild the demeaned design independently
        Z = np.column_stack([panel["entrants"], panel["x0"], panel["x1"]])
        _, u_codes = np.unique(panel["prefecture_id"], return_inverse=True)
        _, t_codes = np.unique(panel["year"], return_inverse=True)
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
    res = newey_west_ols(table, "y", ("x0", "trend"), 0)
    X = np.column_stack([np.ones(n), table["x0"], table["trend"]])
    beta = np.linalg.lstsq(X, table["y"], rcond=None)[0]
    e = table["y"] - X @ beta
    bread = np.linalg.inv(X.T @ X)
    hc0 = bread @ (X * e[:, None] ** 2).T @ X @ bread
    assert np.allclose(res.cov, hc0, atol=1e-12)


def test_newey_west_requires_lag_below_length():
    table = {"y": np.arange(5.0), "x0": np.ones(5)}
    with pytest.raises(DomainError):
        newey_west_ols(table, "y", ("x0",), 5)
    with pytest.raises(DomainError, match="lag -1"):
        newey_west_ols(table, "y", ("x0",), -1)


def test_newey_west_close_to_classical_under_iid():
    gen = np.random.default_rng(17)
    n = 500
    x = gen.normal(0, 1, n)
    y = 1.0 + 2.0 * x + gen.normal(0, 1, n)
    table = {"y": y, "x0": x}
    nw = newey_west_ols(table, "y", ("x0",), 3)
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
    res = newey_west_ols(table, "y", ("centralized", "trend", "trend_sq"), 3)
    assert abs(res.coef("centralized") - theta) <= 2 * res.se_of("centralized")


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


# -- the battery on a simulated panel ----------------------------------------------


# spec id prefix -> whether it runs on a school's panel, and its regressors as
# products of panel columns, built here without `with_interaction`
BATTERY = {
    "did_tokyo_area": (False, [("centralized", "tokyo_area")]),
    "tokyo_gradient": (
        False,
        [
            ("centralized", "tokyo"),
            ("centralized", "near_tokyo"),
            ("centralized", "located_in"),
            ("centralized", "within_100km"),
            ("middle_school_grads",),
        ],
    ),
    "local_monopoly_s": (
        True,
        [("centralized", "located_in"), ("centralized", "within_100km"), ("middle_school_grads",)],
    ),
}


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_battery_fe_rows_match_dummy_ols_and_direct_cluster_cov():
    scenario = build_scenario(scale=0.05)
    result = simulate_seed(scenario, BehaviorParams(), 0)
    panels = build_panel(result.records, scenario.prefectures, scenario.schools)
    rows = [r for r in seed_regressions(panels, result.outcomes, 0) if not r.spec_id.startswith("trend_")]
    assert [r.spec_id for r in rows] == ["did_tokyo_area", "tokyo_gradient"] + [f"local_monopoly_s{s}" for s in range(1, 9)]
    for row in rows:
        prefix = row.spec_id.rstrip("0123456789")
        per_school, products = BATTERY[prefix]
        panel = panels[int(row.spec_id[len(prefix):]) if per_school else None]
        y = panel["entrants"]
        X = np.column_stack([np.prod([panel[c] for c in cols], axis=0) for cols in products])
        _, units = np.unique(panel["prefecture_id"], return_inverse=True)
        _, times = np.unique(panel["year"], return_inverse=True)
        n_units, n_times = units.max() + 1, times.max() + 1
        beta = dummy_ols(y, X, units, times)
        assert abs(row.estimate - beta[0]) <= 1e-8, row.spec_id
        # the within design and residuals by projection on the dummies, not by demeaning
        D = np.column_stack([np.eye(n_units)[units], np.eye(n_times)[times][:, 1:]])
        within = lambda A: A - D @ np.linalg.lstsq(D, A, rcond=None)[0]
        cov = direct_cluster_cov(within(X), within(y - X @ beta), units, X.shape[1] + n_units + n_times - 1)
        assert row.std_error == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-10), row.spec_id
        assert row.n_clusters == n_units == 47


# -- invariants -----------------------------------------------------------------------


def test_fe_ols_invariant_to_unit_and_time_shifts():
    gen = np.random.default_rng(9)
    panel, _ = balanced_panel(gen, 8, 6, k=2)
    res = fe_ols(panel, _regressors())
    shifted = dict(panel)
    unit_shift = gen.normal(0, 5, 8)
    time_shift = gen.normal(0, 5, 6)
    shifted["entrants"] = panel["entrants"] + unit_shift[panel["prefecture_id"]] + time_shift[panel["year"]]
    res2 = fe_ols(shifted, _regressors())
    assert np.allclose(res.beta, res2.beta, atol=1e-8)


def test_covariance_psd_all_modes():
    gen = np.random.default_rng(13)
    panel, _ = balanced_panel(gen, 10, 6, k=3, unbalance=0.15)
    res = fe_ols(panel, _regressors(k=3))
    eig = np.linalg.eigvalsh(res.cov)
    assert eig.min() >= -1e-10
    table = {"y": panel["entrants"], "x0": panel["x0"], "x1": panel["x1"]}
    nw = newey_west_ols(table, "y", ("x0", "x1"), 3)
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
        _, u = np.unique(panel["prefecture_id"], return_inverse=True)
        _, t = np.unique(panel["year"], return_inverse=True)
        Z = np.column_stack([panel["entrants"], panel["x0"]])
        Zt, sweeps = two_way_demean(Z, u, t, u.max() + 1, t.max() + 1)
        assert sweeps < 100
        # one more sweep changes nothing beyond tolerance
        Zt2 = _group_demean(_group_demean(Zt, u, u.max() + 1), t, t.max() + 1)
        assert np.max(np.abs(Zt2 - Zt)) < 1e-9


@st.composite
def _grouped_rows(draw):
    """(Z, codes, n_groups) with codes that may skip groups, and groups past the largest code."""
    n, k, n_groups = draw(st.integers(1, 30)), draw(st.integers(1, 4)), draw(st.integers(1, 8))
    codes = np.array(draw(st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n)))
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=n * k, max_size=n * k))
    return np.array(values).reshape(n, k), codes, n_groups + draw(st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(_grouped_rows())
def test_group_demean_bits_match_add_at(rows):
    assert _group_demean(*rows).tobytes() == add_at_group_demean(*rows).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_units=st.integers(2, 9),
    n_times=st.integers(2, 7),
    k=st.integers(1, 3),
    unbalance=st.sampled_from([0.0, 0.2, 0.4]),
)
def test_fe_ols_bits_match_add_at_kernels(seed, n_units, n_times, k, unbalance):
    panel, _ = balanced_panel(np.random.default_rng(seed), n_units, n_times, k=k, unbalance=unbalance)
    names = [f"x{j}" for j in range(k)]
    try:
        res = fe_ols(panel, names)
    except DomainError:
        return
    X = np.column_stack([panel[c] for c in names])
    units, times = (np.unique(panel[c], return_inverse=True)[1] for c in ("prefecture_id", "year"))
    beta, cov = add_at_fe_ols(panel["entrants"], X, units, times)
    assert res.beta.tobytes() == beta.tobytes()
    assert res.cov.tobytes() == cov.tobytes()


def test_collinear_regressor_reported_by_name():
    gen = np.random.default_rng(31)
    panel, _ = balanced_panel(gen, 6, 5, k=2)
    panel["x_dup"] = 2.0 * panel["x0"]
    with pytest.raises(DomainError, match="x_dup|x0"):
        fe_ols(panel, ("x0", "x1", "x_dup"))


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
        newey_west_ols(table, "y", ("t", "t_dup"), 0)


def test_zero_within_variation_reported_by_name():
    gen = np.random.default_rng(32)
    panel, _ = balanced_panel(gen, 6, 5, k=1)
    panel["unit_constant"] = panel["prefecture_id"].astype(float)  # absorbed by unit FE
    with pytest.raises(DomainError, match="unit_constant"):
        fe_ols(panel, ("x0", "unit_constant"))


def test_missing_column_reported():
    with pytest.raises(DomainError, match="nope"):
        fe_ols({"entrants": [1.0, 2.0], "prefecture_id": [0, 1], "year": [0, 1]}, ("nope",))


def test_with_interaction_names_and_values():
    panel = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 0.5])}
    cols = with_interaction(panel, "a", "b")
    assert np.allclose(cols["a_x_b"], [3.0, 1.0])


@pytest.mark.parametrize("df", [1.0, 2.0, 3.0, 27.0, 46.0, 1451.0, 1e6])
def test_p_values_match_scipy_stats_within_bound(df):
    import scipy.stats

    t = np.array([0.0, -5e-324, 1e-300, 1e-8, -0.7, 1.96, 3.5, -40.0, 40.0, np.inf, -np.inf, np.nan])
    # Student t with one degree of freedom is the Cauchy distribution. scipy's
    # t.sf at df = 1 is off by 3e-9 relative at t = 1e-8, its cauchy.sf is not
    dist = scipy.stats.cauchy() if df == 1.0 else scipy.stats.t(df)
    want = 2.0 * dist.sf(np.abs(t))
    got = _p_values(t, df)
    exact = np.isnan(want) | (want == 0.0) | (want == 1.0)
    assert np.array_equal(got[exact], want[exact], equal_nan=True)
    assert np.all(np.abs(got - want)[~exact] <= 1e-11 * want[~exact])


def test_p_value_fraction_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(econometrics, "P_VALUE_MAX_TERMS", 2)
    with pytest.raises(ArithmeticError, match="did not converge in 2 terms"):
        _p_values(np.array([1.96]), 46.0)
