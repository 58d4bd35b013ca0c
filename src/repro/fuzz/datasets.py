"""Random RFID datasets for fuzz cases, drawn through ``datagen``.

Each case gets a freshly generated miniature supply chain (RFIDGen with
a shrunken topology) under a controlled anomaly mix, so the fuzzer
exercises the cleansing rules against realistic read sequences —
duplicate bursts, readerX misreads, location bounces, missing reads —
rather than uniform noise. The generator is fully seed-deterministic
(one plumbed RNG), so a fuzz (seed, iteration) pair reproduces the
exact dataset.

The :class:`DatasetProfile` summarizes the constants the rule/query
generators sample from: observed GLNs, readers, steps, EPCs, the rtime
range, and the rule time constants t1..t3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datagen.config import GeneratorConfig
from repro.datagen.generator import GeneratedData, RFIDGen
from repro.minidb.types import MINUTE

__all__ = ["DatasetProfile", "random_profile", "ANOMALY_MIXES"]

#: Anomaly percentages the fuzzer rotates through (controlled mixes:
#: clean, light, heavy, pathological).
ANOMALY_MIXES = (0.0, 5.0, 20.0, 40.0)

#: Locations no read visits, appended to the ``locs`` dimension so it is
#: large next to the locations a case's reads touch (21 at most, below):
#: 32 rows per touched location make a hash join that probes an
#: unfiltered ``locs`` fetch its rows through the index (see
#: ``HashJoinOp``), so the oracle checks that path too.
UNVISITED_LOCATIONS = 32 * 21


@dataclass
class DatasetProfile:
    """A generated reads table plus the constant pools drawn from it."""

    rows: list[tuple]
    epcs: list[str]
    glns: list[str]
    readers: list[str]
    steps: list[str]
    step_types: list[str]
    sites: list[str]
    rtimes: list[int]
    locs_rows: list[tuple]
    steps_rows: list[tuple]
    reader_x: str
    #: Candidate window widths for rule time bounds (t1..t3 plus a few
    #: fractions), in seconds.
    time_constants: list[int]

    @classmethod
    def from_data(cls, data: GeneratedData) -> "DatasetProfile":
        rows = [tuple(row) for row in data.case_reads]
        config = data.config
        rtimes = sorted(row[1] for row in rows) or [0]
        return cls(
            rows=rows,
            epcs=sorted({row[0] for row in rows}),
            glns=sorted(row[0] for row in data.location_rows),
            readers=sorted({row[2] for row in rows} | {data.reader_x}),
            steps=sorted(name for name, _ in data.step_rows),
            step_types=sorted({kind for _, kind in data.step_rows}),
            sites=sorted({site for _, site, _ in data.location_rows}),
            rtimes=rtimes,
            locs_rows=[tuple(row) for row in data.location_rows]
            + [(f"unvisited-{i:04d}", "unvisited site", f"unvisited {i}")
               for i in range(UNVISITED_LOCATIONS)],
            steps_rows=[tuple(row) for row in data.step_rows],
            reader_x=data.reader_x,
            time_constants=sorted({
                config.t1_duplicate, config.t2_reader, config.t3_replacing,
                config.pallet_case_gap, 2 * MINUTE,
                config.min_read_latency * 2}),
        )

    def rtime_quantile(self, fraction: float) -> int:
        """The rtime at *fraction* of the sorted observed values."""
        index = int(fraction * (len(self.rtimes) - 1))
        return self.rtimes[index]


def random_profile(rng: random.Random) -> DatasetProfile:
    """Generate one miniature dataset and profile it.

    The topology is deliberately tiny (a handful of sites, 1–3 cases
    per pallet, 2–3 reads per site) so each differential run stays
    cheap while sequences remain long enough for every rule archetype
    to fire; anomaly percentages rotate through :data:`ANOMALY_MIXES`.
    """
    config = GeneratorConfig(
        scale=rng.randint(1, 3),
        distribution_centers=2,
        warehouses=2,
        stores=3,
        locations_per_site=3,
        products=6,
        manufacturers=3,
        business_steps=6,
        step_types=3,
        reads_per_site=rng.randint(2, 3),
        min_cases_per_pallet=1,
        max_cases_per_pallet=3,
        time_window_days=rng.choice((2, 30)),
        anomaly_percent=rng.choice(ANOMALY_MIXES),
    )
    # Exercise the plumbed-seed path: one config, many datasets.
    data = RFIDGen(config).generate(seed=rng.getrandbits(32))
    return DatasetProfile.from_data(data)
