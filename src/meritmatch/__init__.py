"""meritmatch: a matching-market engine for merit-capped centralized school
admissions and its decentralized counterfactuals, with strategic applicants,
a multi-year regime schedule, and panel re-estimation on the simulated data.
"""

__version__ = "0.1.0"

from .core import (
    Applicant,
    Assignment,
    Cohort,
    DomainError,
    Placement,
    Prefecture,
    Regime,
    RegimeKind,
    School,
    SeededRng,
    distance,
    validate_market,
)
from .mechanisms import (
    Applications,
    MeritPool,
    PreferenceList,
    SingleApplication,
    admitted_set,
    run_decentralized,
    run_grouped_centralized,
    run_immediate_acceptance,
    run_meritocratic_boston,
    run_serial_dictatorship_da,
    select_merit_pool,
)
from .strategy import (
    BehaviorParams,
    CutoffBeliefs,
    equilibrium_cutoffs,
    submit_applications,
    truthful_ranking,
)
from .popgen import PopulationConfig, Scenario, default_scenario, generate_applicants, regime_schedule
from .metrics import YearOutcome, build_panel, year_outcome
from .econometrics import (
    RegressionResult,
    RegressionSpec,
    did_centralization,
    event_study,
    fe_ols,
    newey_west_ols,
)
from .pipeline import RunManifest, diff_regimes, run, simulate_seed
