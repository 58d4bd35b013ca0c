"""Registry of every ``REPRO_*`` environment knob the library reads.

Knobs are plain environment variables scattered across subsystems
(vectorization, storage, the server, the experiments CLI). A typo —
``REPRO_BATCHSIZE=64`` instead of ``REPRO_BATCH_SIZE=64`` — used to
silently configure nothing; :func:`validate_environment` makes
it fail loudly instead: any ``REPRO_``-prefixed variable not in
:data:`KNOWN_KNOBS` triggers a one-shot :class:`UnknownKnobWarning`.

The check runs automatically on the first ``Database`` construction and
at server startup. The same failure for a *value* — ``REPRO_WAL_LIMIT=1k``
— is caught by :func:`int_knob`, the one parser every integer knob goes
through. Tests promote the warning to an error via pytest's
``filterwarnings``, so a typo'd knob in CI or a test environment is a
hard failure, not a silently-default run.
"""

from __future__ import annotations

import os
import warnings

__all__ = ["KNOWN_KNOBS", "UnknownKnobWarning", "int_knob",
           "validate_environment"]


class UnknownKnobWarning(UserWarning):
    """An environment variable looks like a repro knob but is not one,
    or is one whose value cannot be parsed."""


#: Every recognised knob, with a one-line summary (kept in sync with the
#: README's configuration table; the README test-ability of this dict is
#: why it is data, not a comment).
KNOWN_KNOBS: dict[str, str] = {
    "REPRO_SCALE": "experiments CLI dataset scale factor",
    "REPRO_BATCH_SIZE": "rows per columnar batch (>= 1, default 1024)",
    "REPRO_ENCODE": "dictionary segment columns on disk (default on)",
    "REPRO_STORAGE": "default storage mode: memory or disk",
    "REPRO_WAL_LIMIT": "WAL bytes before an auto-checkpoint",
    "REPRO_STORAGE_CRASH": "crash-injection fault point name",
    "REPRO_FUZZ_INJECT_BUG": "fuzz-oracle self-test fault name",
    "REPRO_SERVE_WORKERS": "server executor workers (0 = threads only)",
    "REPRO_SERVE_INFLIGHT": "server max in-flight queries before shed",
    "REPRO_SERVE_SESSION_DEPTH": "per-session outstanding-request limit",
}

#: One-shot latch: the environment is validated once per process (knob
#: sets do not change mid-run; repeated Database construction must not
#: spam warnings).
_validated = False


def validate_environment(*, force: bool = False) -> list[str]:
    """Warn once about unrecognised ``REPRO_*`` environment variables.

    Returns the (sorted) list of unknown names found, whether or not
    the warning fired — callers that want a hard error can raise on a
    non-empty return. *force* re-runs the scan even if it already ran
    (tests use this; production callers never need it).
    """
    global _validated
    unknown = sorted(
        name for name in os.environ
        if name.startswith("REPRO_") and name not in KNOWN_KNOBS)
    if _validated and not force:
        return unknown
    _validated = True
    if unknown:
        suggestions = []
        for name in unknown:
            closest = _closest_knob(name)
            hint = f" (did you mean {closest}?)" if closest else ""
            suggestions.append(f"{name}{hint}")
        warnings.warn(
            "unknown REPRO_* environment knob(s): "
            + ", ".join(suggestions)
            + " — see repro.knobs.KNOWN_KNOBS for the recognised set",
            UnknownKnobWarning, stacklevel=2)
    return unknown


def int_knob(name: str, default: int, minimum: int,
             maximum: int | None = None) -> int:
    """Integer knob *name*, clamped to ``[minimum, maximum]``.

    Unset or blank yields *default*. A value that is not an integer
    also yields *default*, after an :class:`UnknownKnobWarning` naming
    the variable and the value. The environment is read on every call:
    ``forced_batch_size`` and the fuzz oracle change it mid-process.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"{name}={raw!r} is not an integer; using the default "
            f"{default}", UnknownKnobWarning, stacklevel=3)
        return default
    value = max(minimum, value)
    return value if maximum is None else min(maximum, value)


def _closest_knob(name: str) -> str | None:
    """The known knob most similar to *name*, if any is close enough."""
    import difflib

    matches = difflib.get_close_matches(name, KNOWN_KNOBS, n=1,
                                        cutoff=0.8)
    return matches[0] if matches else None
