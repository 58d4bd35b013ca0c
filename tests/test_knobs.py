"""The REPRO_* knob registry: typos fail loudly (satellite 2)."""

from __future__ import annotations

import warnings

import pytest

from repro import knobs
from repro.minidb import Database


@pytest.fixture
def fresh_latch(monkeypatch):
    """Reset the one-shot validation latch for the test."""
    monkeypatch.setattr(knobs, "_validated", False)


def test_typo_warns_with_suggestion(fresh_latch, monkeypatch):
    monkeypatch.setenv("REPRO_BATCHSIZE", "7")  # typo for REPRO_BATCH_SIZE
    with pytest.warns(knobs.UnknownKnobWarning,
                      match=r"REPRO_BATCHSIZE \(did you mean "
                            r"REPRO_BATCH_SIZE\?\)"):
        unknown = knobs.validate_environment(force=True)
    assert unknown == ["REPRO_BATCHSIZE"]


@pytest.mark.parametrize("name, value", [("REPRO_WORKERS", "2"),
                                         ("REPRO_CODEGEN", "1")])
def test_removed_knob_warns(fresh_latch, monkeypatch, name, value):
    """A knob whose layer was deleted must not silently configure
    nothing."""
    monkeypatch.setenv(name, value)
    with pytest.warns(knobs.UnknownKnobWarning, match=name):
        Database()


def test_database_construction_validates(fresh_latch, monkeypatch):
    monkeypatch.setenv("REPRO_BATCHSIZE", "7")
    with pytest.warns(knobs.UnknownKnobWarning):
        Database()


def test_known_knobs_stay_silent(fresh_latch, monkeypatch):
    monkeypatch.setenv("REPRO_ENCODE", "0")
    monkeypatch.setenv("REPRO_BATCH_SIZE", "0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert knobs.validate_environment(force=True) == []


def test_warning_is_one_shot(fresh_latch, monkeypatch):
    monkeypatch.setenv("REPRO_WRONG", "1")
    with pytest.warns(knobs.UnknownKnobWarning):
        knobs.validate_environment(force=True)
    # The latch is set now: the same unknown name no longer warns, but
    # it is still reported to callers that ask.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert knobs.validate_environment() == ["REPRO_WRONG"]


def test_every_server_knob_is_registered():
    for name in ("REPRO_SERVE_WORKERS", "REPRO_SERVE_INFLIGHT",
                 "REPRO_SERVE_SESSION_DEPTH"):
        assert name in knobs.KNOWN_KNOBS


def test_registry_matches_readme():
    """Every registered knob is documented in the README."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    missing = [name for name in knobs.KNOWN_KNOBS if name not in readme]
    assert not missing, f"knobs undocumented in README: {missing}"
    assert len(knobs.KNOWN_KNOBS) == 18
