"""Random user-query generation.

Queries follow the shapes of the ``workloads`` benchmark family
(Figure 6): selections over the reads table — rtime ranges, location /
reader / EPC literals — plus 0..2 star-style dimension joins (``locs``
on ``biz_loc`` with a site predicate, ``steps`` on ``biz_step`` with a
step-type predicate, exactly q2's edges). The projection keeps every
reads column so the oracle's row diff is maximally discriminating:
a MODIFY divergence on any column shows up even when the predicates
never mention it. About a third of the queries instead end in GROUP BY
one reads column, with count(*), count(distinct reader) and
min/max/sum/avg of rtime, as the paper's q1/q2 do (Fig. 6), so every
strategy's grouped answer is compared too.
"""

from __future__ import annotations

import random

from repro.fuzz.cases import DimensionSpec, QuerySpec
from repro.fuzz.datasets import DatasetProfile

__all__ = ["random_query"]

_LOCS_SCHEMA = (("gln", "varchar"), ("site", "varchar"),
                ("loc_desc", "varchar"))
_STEPS_SCHEMA = (("biz_step", "varchar"), ("type", "varchar"))
#: Reads columns a fuzzed query may GROUP BY.
_GROUP_KEYS = ("epc", "reader", "biz_loc", "biz_step")


def _random_conjuncts(rng: random.Random,
                      profile: DatasetProfile) -> list[str]:
    choices = []
    lower = profile.rtime_quantile(rng.uniform(0.0, 0.5))
    upper = profile.rtime_quantile(rng.uniform(0.5, 1.0))
    choices.append(f"c.rtime <= {upper}")
    choices.append(f"c.rtime >= {lower}")
    choices.append(f"c.biz_loc = '{rng.choice(profile.glns)}'")
    choices.append(f"c.reader != '{rng.choice(profile.readers)}'")
    choices.append(f"c.epc = '{rng.choice(profile.epcs)}'")
    count = rng.randint(0, 3)
    return rng.sample(choices, count)


def _locs_dimension(rng: random.Random,
                    profile: DatasetProfile) -> DimensionSpec:
    predicate = None
    if rng.random() < 0.8:
        predicate = f"l.site = '{rng.choice(profile.sites)}'"
    return DimensionSpec(name="locs", alias="l", fact_key="biz_loc",
                         dim_key="gln", predicate=predicate,
                         rows=list(profile.locs_rows),
                         schema=_LOCS_SCHEMA)


def _steps_dimension(rng: random.Random,
                     profile: DatasetProfile) -> DimensionSpec:
    predicate = None
    if rng.random() < 0.8:
        predicate = f"s.type = '{rng.choice(profile.step_types)}'"
    return DimensionSpec(name="steps", alias="s", fact_key="biz_step",
                         dim_key="biz_step", predicate=predicate,
                         rows=list(profile.steps_rows),
                         schema=_STEPS_SCHEMA)


def random_query(rng: random.Random,
                 profile: DatasetProfile) -> QuerySpec:
    """A random selection with 0..2 dimension joins, grouped by one
    reads column about a third of the time."""
    dimensions: list[DimensionSpec] = []
    roll = rng.random()
    if roll < 0.25:
        dimensions.append(_locs_dimension(rng, profile))
    elif roll < 0.4:
        dimensions.append(_steps_dimension(rng, profile))
    elif roll < 0.5:
        dimensions.append(_locs_dimension(rng, profile))
        dimensions.append(_steps_dimension(rng, profile))
    conjuncts = _random_conjuncts(rng, profile)
    # Drawn last, so every earlier draw of a case is what it was before
    # grouped queries existed.
    group_by = rng.choice(_GROUP_KEYS) if rng.random() < 1 / 3 else None
    return QuerySpec(conjuncts=conjuncts, dimensions=dimensions,
                     group_by=group_by)
