"""Every input fails with its documented exit code.

A property test over the numeric input surface of `meritmatch run`: each
example sets one population or behavior key, `capacities[0]` or
`prestige[0]` to a value of its type, an extreme value or a non-finite one,
draws `--seed` and `--seeds` up to 2^64, and runs `cli.main` in process
with `--stages simulate` and `--jobs 1`, on `{"scale": 0.05}` over
1900-1901. The properties are those of the `cli` module docstring: exit 0,
2, 3 or 4; one `error: <category>: ` line on failure; `--out` as it was
found after a failure; no warning but the cutoff-iteration one, which
reports a cycling equilibrium rather than a defect of the input checks.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from meritmatch.cli import main
from meritmatch.metrics import read_year_outcomes_csv
from meritmatch.popgen import DEFAULT_PRESTIGE

EXTREMES = [1e308, -1e308, 1e-308, 0, -1, 10**30, 2**63]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]

# key -> values of its type that run in well under a second at scale 0.05
# (larger cohorts, capacities and schedules are left to the extremes)
TYPED = {
    "population.applicants_per_year": st.integers(1, 2000),
    "population.score_mean_base": st.floats(-100, 100),
    "population.score_sd": st.floats(0, 50),
    "population.urban_score_shift": st.floats(-20, 20),
    "population.distance_cost": st.floats(0, 0.1),
    "population.preference_noise_sd": st.floats(0, 10),
    "population.outside_option_mean": st.floats(-10, 20),
    "population.outside_option_sd": st.floats(0, 5),
    "population.year_start": st.integers(1899, 1902),
    "population.year_end": st.integers(1899, 1902),
    "population.applicant_growth_per_year": st.floats(-1, 3),
    "behavior.score_noise_sd": st.floats(0, 50),
    "behavior.max_iter": st.integers(1, 200),
    "behavior.tol": st.floats(0.01, 5),
    "behavior.damping": st.floats(0.05, 1),
    "capacities[0]": st.integers(-1, 600),
    "prestige[0]": st.floats(-20, 20),
}

# half the counts are valid and small; the others are below 1 or above the bound of 10^6
SEEDS = st.booleans().flatmap(lambda ok: st.integers(1, 2) if ok else st.integers(-1, 0) | st.integers(10**6 + 1, 2**64))


def _config(key: str, value) -> dict:
    population = {"year_start": 1900, "year_end": 1901}
    config = {"scale": 0.05, "population": population}
    if key == "capacities[0]":
        config["capacities"] = [value] + [13] * 7  # 13 is the default 251 seats at scale 0.05
    elif key == "prestige[0]":
        population["prestige"] = [value, *DEFAULT_PRESTIGE[1:]]
    else:
        section, name = key.split(".")
        config.setdefault(section, {})[name] = value
    return config


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(TYPED)).flatmap(
        lambda key: st.tuples(st.just(key), st.one_of(TYPED[key], st.sampled_from(EXTREMES + NON_FINITE)))
    ),
    st.integers(-1, 2**64),
    SEEDS,
    st.booleans(),
)
def test_every_numeric_input_exits_with_a_documented_code(setting, seed, seeds, out_exists):
    key, value = setting
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            json.dump(_config(key, value), fh)
        if out_exists:
            os.mkdir(out)
            with open(os.path.join(out, "keep.txt"), "w") as fh:
                fh.write("a file of the user's")
        before = sorted(os.listdir(out)) if out_exists else None
        argv = ["run", "--config", cfg, "--out", out, "--seed", str(seed), "--seeds", str(seeds)]
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--stages", "simulate", "--jobs", "1"])
        assert code in (0, 2, 3, 4)
        assert [str(w.message) for w in caught if not str(w.message).startswith("cutoff iteration")] == []
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
            read_year_outcomes_csv(os.path.join(out, "year_outcomes.csv"))  # every statistic finite
            return
        category = {2: ("config", "artifact"), 3: ("io",), 4: ("invariant",)}[code]
        assert err.count("\n") == 1 and err.startswith(tuple(f"error: {c}: " for c in category)), err
        assert (sorted(os.listdir(out)) if os.path.exists(out) else None) == before
