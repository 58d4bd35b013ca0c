"""Shared fixtures for the test suite.

Expensive fixtures (generated workbenches) are session-scoped; tests
must not mutate them. Small per-test databases are built from the
``reads_db`` factory fixture.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.datagen import GeneratorConfig
from repro.minidb import Database, SqlType, TableSchema
from repro.workloads import Workbench

# Properties without their own ``max_examples`` run under the loaded
# profile: ``ci`` here, ``--hypothesis-profile nightly`` in the nightly
# job. No deadline: an example builds and queries a database.
settings.register_profile("ci", deadline=None)
settings.register_profile("nightly", max_examples=2000, deadline=None)
settings.load_profile("ci")

#: The Figure-2 reads schema used across unit tests.
READS = TableSchema.of(
    ("epc", SqlType.VARCHAR),
    ("rtime", SqlType.TIMESTAMP),
    ("reader", SqlType.VARCHAR),
    ("biz_loc", SqlType.VARCHAR),
    ("biz_step", SqlType.VARCHAR),
)


def make_reads_db(rows, *, index_rtime: bool = True) -> Database:
    """A fresh database holding one reads table ``r`` with *rows*."""
    db = Database()
    db.create_table("r", READS)
    db.load("r", rows)
    if index_rtime:
        db.create_index("r", "rtime")
        db.create_index("r", "epc")
    return db


@pytest.fixture
def reads_db():
    """Factory fixture: ``reads_db(rows)`` builds a small database."""
    return make_reads_db


#: A tiny but structurally complete topology for generated-data tests.
SMALL_CONFIG = dict(
    scale=6,
    stores=10,
    warehouses=5,
    distribution_centers=3,
    locations_per_site=10,
    products=50,
    manufacturers=10,
)


@pytest.fixture(scope="session")
def clean_bench() -> Workbench:
    """A generated workbench without anomalies (read-only!)."""
    return Workbench.create(GeneratorConfig(anomaly_percent=0.0,
                                            **SMALL_CONFIG))


@pytest.fixture(scope="session")
def dirty_bench() -> Workbench:
    """A generated workbench with 20% anomalies (read-only!)."""
    return Workbench.create(GeneratorConfig(anomaly_percent=20.0,
                                            **SMALL_CONFIG))
