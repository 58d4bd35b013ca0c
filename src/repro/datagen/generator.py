"""RFIDGen core: clean supply-chain trace generation (§6.1).

Every pallet travels a DC -> warehouse -> store route determined by the
topology. At each of the three sites it is read ``reads_per_site`` times
by randomly selected readers; consecutive reads are 1–36 hours apart.
Each of its cases is read by the same reader within ``pallet_case_gap``
seconds of the pallet. Case reads receive anomalies afterwards (see
``anomalies``); pallet reads stay reliable, as the paper assumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.datagen.anomalies import AnomalyInjector, AnomalyCounts
from repro.datagen.config import GeneratorConfig
from repro.datagen.epc import case_epc, pallet_epc
from repro.datagen.topology import Location, Topology

__all__ = ["ReadRow", "GeneratedData", "RFIDGen"]

#: One RFID read: (epc, rtime, reader, biz_loc, biz_step).
ReadRow = tuple[str, int, str, str, str]


@dataclass
class GeneratedData:
    """All seven tables plus generation metadata."""

    config: GeneratorConfig
    case_reads: list[ReadRow] = field(default_factory=list)
    pallet_reads: list[ReadRow] = field(default_factory=list)
    parent_rows: list[tuple[str, str]] = field(default_factory=list)
    epc_info_rows: list[tuple] = field(default_factory=list)
    product_rows: list[tuple[str, str]] = field(default_factory=list)
    location_rows: list[tuple[str, str, str]] = field(default_factory=list)
    step_rows: list[tuple[str, str]] = field(default_factory=list)
    #: Reader id used by the reader rule ('readerX' scenario).
    reader_x: str = "readerX"
    #: GLNs chosen for the replacing-rule scenario.
    loc1: str = ""
    loc2: str = ""
    loc_a: str = ""
    anomalies: AnomalyCounts = field(default_factory=AnomalyCounts)


class RFIDGen:
    """Deterministic generator; same config => identical dataset."""

    def __init__(self, config: GeneratorConfig | None = None) -> None:
        self.config = config or GeneratorConfig()
        self.config.validate()

    # ------------------------------------------------------------------

    def generate(self, seed: int | None = None) -> GeneratedData:
        """Produce the full dataset, including anomalies if configured.

        All randomness flows from one :class:`random.Random` seeded here
        and plumbed through topology construction, shipment simulation,
        and anomaly injection — there is no module-level RNG anywhere in
        ``datagen``, so a (config, seed) pair fully determines the
        dataset. *seed* overrides ``config.seed``, letting callers (the
        differential fuzzer in particular) draw many reproducible
        datasets from one config.
        """
        config = self.config
        rng = random.Random(config.seed if seed is None else seed)
        topology = Topology(config, rng)
        data = GeneratedData(config=config)
        self._reference_tables(data, topology, rng)
        steps = [name for name, _ in data.step_rows]
        self._shipments(data, topology, steps, rng)
        data.anomalies.clean_case_reads = len(data.case_reads)
        # The replacing-rule scenario locations: three distinct GLNs.
        glns = [row[0] for row in data.location_rows]
        data.loc1, data.loc2, data.loc_a = rng.sample(glns, 3)
        if config.anomaly_percent > 0:
            injector = AnomalyInjector(data, rng)
            injector.inject()
        data.case_reads.sort(key=lambda row: row[1])
        data.pallet_reads.sort(key=lambda row: row[1])
        return data

    # ------------------------------------------------------------------

    def _reference_tables(self, data: GeneratedData, topology: Topology,
                          rng: random.Random) -> None:
        config = self.config
        for site in topology.sites:
            for location in site.locations:
                data.location_rows.append(
                    (location.gln, location.site_name, location.description))
        for step_index in range(config.business_steps):
            step_type = f"type_{step_index % config.step_types:02d}"
            data.step_rows.append((f"step_{step_index:03d}", step_type))
        for product_index in range(config.products):
            manufacturer = rng.randrange(config.manufacturers)
            data.product_rows.append(
                (f"product_{product_index:04d}",
                 f"manufacturer_{manufacturer:03d}"))

    def _shipments(self, data: GeneratedData, topology: Topology,
                   steps: list[str], rng: random.Random) -> None:
        config = self.config
        case_serial = 0
        for pallet_serial in range(config.scale):
            pallet = pallet_epc(pallet_serial)
            store = rng.choice(topology.stores)
            route = topology.route_for_store(store)
            case_count = rng.randint(config.min_cases_per_pallet,
                                     config.max_cases_per_pallet)
            cases = [case_epc(case_serial + offset)
                     for offset in range(case_count)]
            case_serial += case_count
            for case in cases:
                data.parent_rows.append((case, pallet))
                product = rng.choice(data.product_rows)[0]
                manufacture = config.window_start \
                    - rng.randrange(30 * 86400, 365 * 86400)
                data.epc_info_rows.append(
                    (case, product, f"lot_{rng.randrange(10_000):05d}",
                     manufacture, manufacture + 2 * 365 * 86400))
            read_time = config.window_start \
                + rng.randrange(config.window_seconds)
            for site in route:
                for _ in range(config.reads_per_site):
                    location = rng.choice(site.locations)
                    self._record_read(data, pallet, cases, location,
                                      read_time, steps, rng)
                    read_time += rng.randrange(config.min_read_latency,
                                               config.max_read_latency)

    def _record_read(self, data: GeneratedData, pallet: str,
                     cases: list[str], location: Location, read_time: int,
                     steps: list[str], rng: random.Random) -> None:
        config = self.config
        data.pallet_reads.append(
            (pallet, read_time, location.reader, location.gln,
             rng.choice(steps)))
        for case in cases:
            offset = rng.randrange(1, config.pallet_case_gap)
            data.case_reads.append(
                (case, read_time + offset, location.reader, location.gln,
                 rng.choice(steps)))
