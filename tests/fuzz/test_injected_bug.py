"""End-to-end proof the oracle has teeth.

A deliberate wrong-answer mutation in the expanded analysis (dropping
every derived context condition, collapsing ``ec = s OR cc`` to ``s``)
is switched on via ``REPRO_FUZZ_INJECT_BUG``; the fuzzer must catch it
within a bounded deterministic campaign, shrink the case to the
acceptance bound (<=10 rows / 1 rule / <=1 conjunct), and write a
regression file that passes once the fault is switched off again.
"""

from __future__ import annotations

import pytest

from repro.fuzz.oracle import run_case
from repro.fuzz.runner import FuzzConfig, run_fuzz
from repro.rewrite.expanded import FAULT_ENV

#: Seed 2 is known to surface the injected fault at iteration 4; the
#: campaign stays deterministic so CI failures reproduce locally.
SEED = 2
ITERATIONS = 25


@pytest.fixture
def injected_fault(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "1")


def test_injected_bug_is_caught_and_shrunk(injected_fault, tmp_path,
                                           monkeypatch) -> None:
    outcome = run_fuzz(FuzzConfig(seed=SEED, iterations=ITERATIONS,
                                  regression_dir=tmp_path))
    assert not outcome.ok, (
        "the fuzzer failed to catch the injected expanded-rewrite bug "
        f"within {ITERATIONS} iterations at seed {SEED}")
    failure = outcome.failures[0]

    # The divergence must implicate the expanded analysis family (the
    # region cache and join-back consume the same context conditions).
    diverged = failure.report.diverged_labels()
    assert diverged & {"expanded", "joinback", "chosen", "cached-cold",
                       "cached-warm", "cached-invalidated"}, diverged

    # Acceptance bound: <=10 rows / exactly 1 rule / <=1 conjunct.
    rows, rules, conjuncts = failure.shrunk.size()
    assert rows <= 10, failure.shrunk.describe()
    assert rules == 1, failure.shrunk.describe()
    assert conjuncts <= 1, failure.shrunk.describe()

    # The shrunk case still reproduces under the fault ...
    shrunk_report = run_case(failure.shrunk)
    assert not shrunk_report.ok

    # ... and a self-contained regression file was written.
    assert failure.regression_path is not None
    assert failure.regression_path.parent == tmp_path
    text = failure.regression_path.read_text()
    assert "run_case" in text and "READS_ROWS" in text

    # With the fault off the shrunk case must pass: the bug, not the
    # case, was the problem.
    monkeypatch.delenv(FAULT_ENV)
    clean_report = run_case(failure.shrunk)
    assert clean_report.ok, clean_report.summary()


#: Seed 3 surfaces the storage decode fault at iteration 0: any case
#: with at least one read row decodes a heap page after the disk
#: label's reopen, and the perturbed trailing row diverges the bag.
STORAGE_SEED = 3
STORAGE_ITERATIONS = 15


def test_storage_fault_is_caught_and_shrunk(tmp_path,
                                            monkeypatch) -> None:
    """``REPRO_FUZZ_INJECT_BUG=storage`` perturbs the last row of every
    heap page on decode — corruption below the buffer pool that only
    manifests once a page is re-read from disk. Only the ``disk`` label
    runs that path, so it alone must catch it, and the shrunk case must
    become a runnable regression."""
    monkeypatch.setenv(FAULT_ENV, "storage")
    # Pin the ambient backend to memory: under a disk-mode CI leg every
    # label would otherwise decode corrupted pages, including the
    # baseline, and the diff would no longer isolate the storage path.
    monkeypatch.setenv("REPRO_STORAGE", "memory")
    outcome = run_fuzz(FuzzConfig(seed=STORAGE_SEED,
                                  iterations=STORAGE_ITERATIONS,
                                  regression_dir=tmp_path))
    assert not outcome.ok, (
        "the fuzzer failed to catch the injected storage bug within "
        f"{STORAGE_ITERATIONS} iterations at seed {STORAGE_SEED}")
    failure = outcome.failures[0]

    # The decode fault lives below the buffer pool; every in-memory
    # label must have stayed clean.
    assert failure.report.diverged_labels() == {"disk"}

    rows, rules, conjuncts = failure.shrunk.size()
    assert rows <= 10, failure.shrunk.describe()
    assert rules == 1, failure.shrunk.describe()
    assert conjuncts <= 1, failure.shrunk.describe()

    shrunk_report = run_case(failure.shrunk)
    assert not shrunk_report.ok

    assert failure.regression_path is not None
    assert failure.regression_path.parent == tmp_path
    text = failure.regression_path.read_text()
    assert "run_case" in text and "READS_ROWS" in text

    monkeypatch.delenv(FAULT_ENV)
    clean_report = run_case(failure.shrunk)
    assert clean_report.ok, clean_report.summary()


def test_fault_flag_off_means_no_fault(monkeypatch) -> None:
    monkeypatch.setenv(FAULT_ENV, "0")
    outcome = run_fuzz(FuzzConfig(seed=SEED, iterations=5))
    assert outcome.ok, outcome.summary()
