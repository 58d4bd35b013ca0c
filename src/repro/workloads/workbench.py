"""Workbench: one generated database wired to rules and the rewrite
engine — the unit every experiment and example builds on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.datagen.config import GeneratorConfig
from repro.datagen.generator import GeneratedData, RFIDGen
from repro.datagen.loader import load_into_database
from repro.minidb.engine import Database
from repro.rewrite.engine import DeferredCleansingEngine
from repro.sqlts.registry import RuleRegistry
from repro.workloads.queries import q1_sql, q2_sql, q2_prime_sql
from repro.workloads.rules import STANDARD_RULE_ORDER, make_registry
from repro.workloads.selectivity import (
    timestamp_for_fraction_above,
    timestamp_for_fraction_below,
)

__all__ = ["Workbench"]


@dataclass
class Workbench:
    """A generated RFID database plus rules and rewrite engine."""

    config: GeneratorConfig
    data: GeneratedData
    database: Database
    registry: RuleRegistry
    engine: DeferredCleansingEngine

    @classmethod
    def create(cls, config: GeneratorConfig | None = None,
               rule_names: tuple[str, ...] = STANDARD_RULE_ORDER,
               ) -> "Workbench":
        """Generate data, load it, and define the named rules."""
        config = config or GeneratorConfig()
        data = RFIDGen(config).generate()
        database = load_into_database(data)
        registry = make_registry(database, data, rule_names)
        engine = DeferredCleansingEngine(database, registry)
        return cls(config=config, data=data, database=database,
                   registry=registry, engine=engine)

    def with_rules(self, rule_names: tuple[str, ...]) -> "Workbench":
        """The same database with a different rule set (cheap: data and
        indexes are shared; only the registry is rebuilt).

        The registry is kept in memory only, so the shared database's
        persisted ``_cleansing_rules`` table is not touched.
        """
        registry = make_registry(None, self.data, rule_names)
        engine = DeferredCleansingEngine(self.database, registry)
        return Workbench(config=self.config, data=self.data,
                         database=self.database, registry=registry,
                         engine=engine)

    # -- query builders ---------------------------------------------------

    def case_rtimes(self) -> list[int]:
        return [row[1] for row in self.data.case_reads]

    def q1(self, selectivity: float) -> str:
        t1 = timestamp_for_fraction_below(self.case_rtimes(), selectivity)
        return q1_sql(t1)

    def busiest_site(self, since: int) -> str:
        """The site with the most case reads at or after *since*.

        q2's default site: with the paper's 'distribution center 2', q2
        answers no rows at most selectivities at the default scale, and
        an empty answer times and compares nothing. Ties go to the first
        name, so the choice does not depend on row order.
        """
        site_of = {gln: site for gln, site, _ in self.data.location_rows}
        counts = Counter(site_of[row[3]] for row in self.data.case_reads
                         if row[1] >= since)
        return min(counts, key=lambda site: (-counts[site], site))

    def q2(self, selectivity: float, site: str | None = None) -> str:
        t2 = timestamp_for_fraction_above(self.case_rtimes(), selectivity)
        return q2_sql(t2, site or self.busiest_site(t2))

    def q2_prime(self, selectivity: float,
                 step_type: str = "type_03") -> str:
        t2 = timestamp_for_fraction_above(self.case_rtimes(), selectivity)
        return q2_prime_sql(t2, step_type)
