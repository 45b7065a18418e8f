"""meritmatch: a matching-market engine for merit-capped centralized school
admissions and its decentralized counterfactuals, with strategic applicants,
a multi-year regime schedule, and panel re-estimation on the simulated data.
"""

__version__ = "0.1.0"
