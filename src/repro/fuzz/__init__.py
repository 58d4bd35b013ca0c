"""Differential rewrite-equivalence fuzzing.

The deferred-cleansing claim — every rewrite answers exactly the naive
``Q[C_1..C_n]`` — is checked empirically here: random RFID datasets,
random SQL-TS rules, and random user queries are pushed through every
execution path (expanded, join-back, cost-based choice, region cache
cold/warm/invalidated, eager materialization, prepared-plan cache,
batch execution) and the canonicalized row bags are diffed
against the naive baseline. Divergences are delta-debugged to minimal
cases and persisted as self-contained pytest regressions.

Entry points: ``python -m repro.fuzz`` (CLI) and
:func:`repro.fuzz.runner.run_fuzz` (programmatic).
"""

from repro.fuzz.cases import DimensionSpec, FuzzCase, QuerySpec
from repro.fuzz.datasets import DatasetProfile, random_profile
from repro.fuzz.oracle import (ALL_LABELS, Divergence, OracleReport,
                               run_case)
from repro.fuzz.queries import random_query
from repro.fuzz.regression import write_regression
from repro.fuzz.rules import random_rule, random_rules
from repro.fuzz.runner import (FuzzConfig, FuzzOutcome, generate_case,
                               run_fuzz)
from repro.fuzz.shrink import ddmin, shrink_case

__all__ = [
    "ALL_LABELS",
    "DatasetProfile",
    "DimensionSpec",
    "Divergence",
    "FuzzCase",
    "FuzzConfig",
    "FuzzOutcome",
    "OracleReport",
    "QuerySpec",
    "ddmin",
    "generate_case",
    "random_profile",
    "random_query",
    "random_rule",
    "random_rules",
    "run_case",
    "run_fuzz",
    "shrink_case",
    "write_regression",
]
