"""The REPRO_* knob registry: typos fail loudly (satellite 2)."""

from __future__ import annotations

import warnings

import pytest

from repro import knobs
from repro.experiments import ExperimentSettings
from repro.minidb import Database
from repro.minidb.storage.backend import (
    configured_checkpoint_bytes,
    encode_enabled,
)
from repro.minidb.vector import configured_batch_size
from repro.server.server import Server


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
                                         ("REPRO_CODEGEN", "1"),
                                         ("REPRO_ZONE_PRUNE", "0"),
                                         ("REPRO_READAHEAD", "8"),
                                         ("REPRO_GROUP_COMMIT", "8"),
                                         ("REPRO_BUFFER_PAGES", "64"),
                                         ("REPRO_PAGE_SIZE", "512"),
                                         ("REPRO_SERVE_WORKERS", "2")])
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
    monkeypatch.setenv("REPRO_BATCH_SIZE", "7")
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
    for name in ("REPRO_SERVE_INFLIGHT", "REPRO_SERVE_SESSION_DEPTH"):
        assert name in knobs.KNOWN_KNOBS


def test_registry_matches_readme():
    """Every registered knob is documented in the README."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    missing = [name for name in knobs.KNOWN_KNOBS if name not in readme]
    assert not missing, f"knobs undocumented in README: {missing}"
    assert len(knobs.KNOWN_KNOBS) == 9


def _server_limits(field):
    def read():
        server = Server(Database(storage="memory"))
        try:
            return getattr(server, field)
        finally:
            server.executor.shutdown()
    return read


def _experiment_scale():
    return ExperimentSettings().scale


#: Every integer knob: (variable, reader, default, minimum, maximum).
#: The readers keep their names because ``bench/`` and tests import
#: them; the parsing is ``knobs.int_knob`` for all of them.
INT_KNOBS = [
    ("REPRO_SCALE", _experiment_scale, 24, 1, None),
    ("REPRO_BATCH_SIZE", configured_batch_size, 1024, 1, None),
    ("REPRO_WAL_LIMIT", configured_checkpoint_bytes, 1 << 20, 1, None),
    ("REPRO_SERVE_INFLIGHT", _server_limits("max_inflight"), 8, 1, None),
    ("REPRO_SERVE_SESSION_DEPTH", _server_limits("session_depth"),
     8, 1, None),
]

#: Knobs for which a value below the minimum is a mistake rather than a
#: request for the minimum: it warns and yields the default (a batch
#: size of 0 names no execution mode).
WARN_BELOW_MINIMUM = {"REPRO_BATCH_SIZE"}


@pytest.mark.parametrize("name, read, default, minimum, maximum",
                         INT_KNOBS, ids=[row[0] for row in INT_KNOBS])
def test_integer_knob_default_clamps_and_junk(monkeypatch, name, read,
                                              default, minimum, maximum):
    monkeypatch.delenv(name, raising=False)
    assert read() == default
    monkeypatch.setenv(name, " ")
    assert read() == default  # blank is unset, silently
    monkeypatch.setenv(name, str(minimum + 3))
    assert read() == minimum + 3
    monkeypatch.setenv(name, str(minimum - 5))
    if name in WARN_BELOW_MINIMUM:
        with pytest.warns(knobs.UnknownKnobWarning, match=name):
            assert read() == default
    else:
        assert read() == minimum
    monkeypatch.setenv(name, str(10 ** 9))
    assert read() == (10 ** 9 if maximum is None else maximum)
    # An unparsable value used to configure the default silently.
    monkeypatch.setenv(name, "1k")
    with pytest.warns(knobs.UnknownKnobWarning,
                      match=f"{name}='1k' is not an integer"):
        assert read() == default


def test_encode_knob_junk_warns(monkeypatch):
    """``REPRO_ENCODE`` parses like every integer knob: unset or ``1``
    is on, ``0`` is off, and junk warns and keeps the default instead
    of silently meaning on."""
    for raw, expected in (("", True), ("1", True), ("0", False)):
        monkeypatch.setenv("REPRO_ENCODE", raw)
        assert encode_enabled() is expected
    for junk in ("off", "false"):
        monkeypatch.setenv("REPRO_ENCODE", junk)
        with pytest.warns(knobs.UnknownKnobWarning,
                          match=f"REPRO_ENCODE='{junk}' is not an integer"):
            assert encode_enabled() is True
