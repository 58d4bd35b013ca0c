"""Quickstart: deferred cleansing in ~60 lines.

Creates a small RFID reads table with a duplicate anomaly, defines a
cleansing rule in extended SQL-TS, and runs the same query three ways:
directly on dirty data, through the rewrite engine (which picks the
cheapest correct rewrite), and pinned to each rewrite strategy.

Run:  python examples/quickstart.py
"""

from repro.minidb import Database, SqlType, TableSchema
from repro.rewrite import DeferredCleansingEngine
from repro.sqlts import RuleRegistry


def main() -> None:
    # 1. A reads table R(epc, rtime, reader, biz_loc, biz_step).
    db = Database()
    db.create_table("reads", TableSchema.of(
        ("epc", SqlType.VARCHAR),
        ("rtime", SqlType.TIMESTAMP),
        ("reader", SqlType.VARCHAR),
        ("biz_loc", SqlType.VARCHAR),
    ))
    db.load("reads", [
        ("case-1", 1_000, "dock-A", "receiving", ),
        ("case-1", 1_060, "dock-A", "receiving"),   # duplicate 60s later
        ("case-1", 9_000, "shelf-3", "sales-floor"),
        ("case-2", 2_000, "dock-B", "receiving"),
        ("case-2", 9_500, "shelf-7", "sales-floor"),
    ])
    db.create_index("reads", "rtime")

    # 2. The application's cleansing rule (paper §4.3, Example 1):
    #    drop repeat reads at the same location within five minutes.
    registry = RuleRegistry(db)
    registry.define("""
        DEFINE duplicate_rule ON reads CLUSTER BY epc SEQUENCE BY rtime
        AS (A, B)
        WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 mins
        ACTION DELETE B
    """)
    engine = DeferredCleansingEngine(db, registry)

    query = "select biz_loc, count(*) as reads from reads " \
            "where rtime < 10000 group by biz_loc"

    print("-- dirty answer (no cleansing) --")
    print(db.execute(query).pretty())

    print("\n-- cleansed answer (deferred cleansing at query time) --")
    print(engine.execute(query).pretty())

    # 3. Look under the hood: the engine compiled several candidate
    #    rewrites and executed the one with the lowest optimizer cost.
    decision = engine.rewrite(query)
    print(f"\nchosen rewrite: {decision.chosen.label}")
    for candidate in decision.candidates:
        print(f"  candidate {candidate.label:<12} "
              f"estimated cost {candidate.cost:10.1f}")
    print("\nexpanded condition pushed into the reads table:")
    for conjunct in decision.analysis.ec_conjuncts:
        print(f"  {conjunct.to_sql()}")

    # 4. The rewrite is also available as portable SQL text (the form
    #    the paper's engine hands to the DBMS): the chosen plan, printed.
    from repro.rewrite import rewritten_sql
    print("\nrewritten SQL (expanded strategy):")
    print(rewritten_sql(db, registry, query, "expanded"))


if __name__ == "__main__":
    main()
