"""TPC-H workload: schema, scaled-down data generator, and 22 query skeletons.

TPC-H is the paper's star-schema control experiment (Figure 12): every join
is a PK-FK join, so cardinality estimation is comparatively easy,
re-optimization rarely pays off, and all algorithms should land close
together.  The generator keeps the official schema and uniform-ish value
distributions (TPC-H data is deliberately *not* skewed); the 22 queries are
SPJ/aggregation skeletons of the official queries -- the join structure and
filter shapes are preserved, while features our engine does not model
(outer/anti joins, substring arithmetic, ORDER BY) are simplified.  Dates are
encoded as ``yyyymmdd`` integers.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.schema import Column, ForeignKey, Schema, TableSchema
from repro.catalog.types import DataType
from repro.plan.logical import Query
from repro.storage.database import Database, IndexConfig
from repro.storage.table import DataTable
from repro.workloads.datagen import categorical, sequential_ids, string_pool
from repro.workloads.spec import (
    between,
    build_spj,
    eq,
    ge,
    grouped_query,
    gt,
    isin,
    le,
    lt,
    prefix,
)

#: Table sizes at scale factor 1.0 (a laptop-friendly miniature of SF 3).
BASE_SIZES = {
    "region": 5,
    "nation": 25,
    "supplier": 200,
    "customer": 1_500,
    "part": 2_000,
    "partsupp": 8_000,
    "orders": 15_000,
    "lineitem": 60_000,
}


def _int(name: str) -> Column:
    return Column(name, DataType.INT)


def _float(name: str) -> Column:
    return Column(name, DataType.FLOAT)


def _str(name: str) -> Column:
    return Column(name, DataType.STRING)


TPCH_SCHEMA = Schema([
    TableSchema("region", [_int("r_regionkey"), _str("r_name")],
                primary_key="r_regionkey"),
    TableSchema("nation", [_int("n_nationkey"), _str("n_name"), _int("n_regionkey")],
                primary_key="n_nationkey",
                foreign_keys=[ForeignKey("n_regionkey", "region", "r_regionkey")]),
    TableSchema("supplier",
                [_int("s_suppkey"), _str("s_name"), _int("s_nationkey"),
                 _float("s_acctbal")],
                primary_key="s_suppkey",
                foreign_keys=[ForeignKey("s_nationkey", "nation", "n_nationkey")]),
    TableSchema("customer",
                [_int("c_custkey"), _str("c_name"), _int("c_nationkey"),
                 _str("c_mktsegment"), _float("c_acctbal")],
                primary_key="c_custkey",
                foreign_keys=[ForeignKey("c_nationkey", "nation", "n_nationkey")]),
    TableSchema("part",
                [_int("p_partkey"), _str("p_name"), _str("p_brand"), _str("p_type"),
                 _int("p_size"), _str("p_container"), _float("p_retailprice")],
                primary_key="p_partkey"),
    TableSchema("partsupp",
                [_int("ps_id"), _int("ps_partkey"), _int("ps_suppkey"),
                 _int("ps_availqty"), _float("ps_supplycost")],
                primary_key="ps_id",
                foreign_keys=[
                    ForeignKey("ps_partkey", "part", "p_partkey"),
                    ForeignKey("ps_suppkey", "supplier", "s_suppkey"),
                ]),
    TableSchema("orders",
                [_int("o_orderkey"), _int("o_custkey"), _str("o_orderstatus"),
                 _float("o_totalprice"), _int("o_orderdate"), _str("o_orderpriority")],
                primary_key="o_orderkey",
                foreign_keys=[ForeignKey("o_custkey", "customer", "c_custkey")]),
    TableSchema("lineitem",
                [_int("l_id"), _int("l_orderkey"), _int("l_partkey"), _int("l_suppkey"),
                 _int("l_quantity"), _float("l_extendedprice"), _float("l_discount"),
                 _float("l_tax"), _str("l_returnflag"), _str("l_linestatus"),
                 _int("l_shipdate"), _str("l_shipmode")],
                primary_key="l_id",
                foreign_keys=[
                    ForeignKey("l_orderkey", "orders", "o_orderkey"),
                    ForeignKey("l_partkey", "part", "p_partkey"),
                    ForeignKey("l_suppkey", "supplier", "s_suppkey"),
                ]),
])

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SHIPMODES = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"]
_TYPES = ["STANDARD BRASS", "SMALL STEEL", "MEDIUM COPPER", "LARGE TIN",
          "ECONOMY NICKEL", "PROMO BRASS", "STANDARD STEEL", "PROMO COPPER"]
_CONTAINERS = ["SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX",
               "JUMBO PACK", "WRAP BAG"]


def _date(year: int, month: int, day: int) -> int:
    return year * 10_000 + month * 100 + day


def build_tpch_database(scale: float = 1.0,
                        index_config: IndexConfig = IndexConfig.PK_FK,
                        seed: int = 7) -> Database:
    """Generate the scaled-down TPC-H database."""
    rng = np.random.default_rng(seed)
    sizes = {name: max(int(round(count * scale)), 3) for name, count in BASE_SIZES.items()}
    sizes["region"] = 5
    sizes["nation"] = 25
    db = Database(TPCH_SCHEMA, index_config=index_config)

    db.load_table(DataTable("region", {
        "r_regionkey": sequential_ids(5, start=0),
        "r_name": np.array(_REGIONS, dtype=object),
    }))
    nation_names = string_pool("NATION", 25)
    db.load_table(DataTable("nation", {
        "n_nationkey": sequential_ids(25, start=0),
        "n_name": nation_names,
        "n_regionkey": np.arange(25, dtype=np.int64) % 5,
    }))

    n_supp = sizes["supplier"]
    db.load_table(DataTable("supplier", {
        "s_suppkey": sequential_ids(n_supp),
        "s_name": string_pool("Supplier", n_supp),
        "s_nationkey": rng.integers(0, 25, n_supp),
        "s_acctbal": rng.uniform(-999.0, 9999.0, n_supp),
    }))

    n_cust = sizes["customer"]
    db.load_table(DataTable("customer", {
        "c_custkey": sequential_ids(n_cust),
        "c_name": string_pool("Customer", n_cust),
        "c_nationkey": rng.integers(0, 25, n_cust),
        "c_mktsegment": categorical(rng, _SEGMENTS, [0.2] * 5, n_cust),
        "c_acctbal": rng.uniform(-999.0, 9999.0, n_cust),
    }))

    n_part = sizes["part"]
    db.load_table(DataTable("part", {
        "p_partkey": sequential_ids(n_part),
        "p_name": string_pool("part", n_part),
        "p_brand": categorical(rng, [f"Brand#{i}" for i in range(1, 6)],
                               [0.2] * 5, n_part),
        "p_type": categorical(rng, _TYPES, [1.0 / len(_TYPES)] * len(_TYPES), n_part),
        "p_size": rng.integers(1, 51, n_part),
        "p_container": categorical(rng, _CONTAINERS,
                                   [1.0 / len(_CONTAINERS)] * len(_CONTAINERS), n_part),
        "p_retailprice": rng.uniform(900.0, 2000.0, n_part),
    }))

    n_ps = sizes["partsupp"]
    db.load_table(DataTable("partsupp", {
        "ps_id": sequential_ids(n_ps),
        "ps_partkey": rng.integers(1, n_part + 1, n_ps),
        "ps_suppkey": rng.integers(1, n_supp + 1, n_ps),
        "ps_availqty": rng.integers(1, 10_000, n_ps),
        "ps_supplycost": rng.uniform(1.0, 1000.0, n_ps),
    }))

    n_orders = sizes["orders"]
    order_years = rng.integers(1992, 1999, n_orders)
    db.load_table(DataTable("orders", {
        "o_orderkey": sequential_ids(n_orders),
        "o_custkey": rng.integers(1, n_cust + 1, n_orders),
        "o_orderstatus": categorical(rng, ["F", "O", "P"], [0.49, 0.49, 0.02], n_orders),
        "o_totalprice": rng.uniform(1000.0, 400_000.0, n_orders),
        "o_orderdate": (order_years * 10_000 + rng.integers(1, 13, n_orders) * 100
                        + rng.integers(1, 29, n_orders)).astype(np.int64),
        "o_orderpriority": categorical(rng, _PRIORITIES, [0.2] * 5, n_orders),
    }))

    n_li = sizes["lineitem"]
    li_order = rng.integers(1, n_orders + 1, n_li)
    ship_years = rng.integers(1992, 1999, n_li)
    db.load_table(DataTable("lineitem", {
        "l_id": sequential_ids(n_li),
        "l_orderkey": li_order.astype(np.int64),
        "l_partkey": rng.integers(1, n_part + 1, n_li),
        "l_suppkey": rng.integers(1, n_supp + 1, n_li),
        "l_quantity": rng.integers(1, 51, n_li),
        "l_extendedprice": rng.uniform(900.0, 100_000.0, n_li),
        "l_discount": rng.uniform(0.0, 0.1, n_li).round(2),
        "l_tax": rng.uniform(0.0, 0.08, n_li).round(2),
        "l_returnflag": categorical(rng, ["A", "N", "R"], [0.25, 0.5, 0.25], n_li),
        "l_linestatus": categorical(rng, ["F", "O"], [0.5, 0.5], n_li),
        "l_shipdate": (ship_years * 10_000 + rng.integers(1, 13, n_li) * 100
                       + rng.integers(1, 29, n_li)).astype(np.int64),
        "l_shipmode": categorical(rng, _SHIPMODES,
                                  [1.0 / len(_SHIPMODES)] * len(_SHIPMODES), n_li),
    }))
    return db


#: The valid TPC-H query numbers (``families`` in the experiment CLI).
TPCH_QUERY_NUMBERS: tuple[int, ...] = tuple(range(1, 23))


def tpch_queries() -> list[Query]:
    """The 22 TPC-H query skeletons (all non-SPJ: aggregation over SPJ blocks)."""
    queries: list[Query] = []

    def add_grouped(number: int, relations, joins, filters, group_by, aggregates):
        spj = build_spj(name=f"tpch-q{number}", relations=relations, joins=joins,
                        filters=filters, count_output=False)
        queries.append(grouped_query(f"tpch-q{number}", spj, group_by, aggregates))

    # Q1: pricing summary report.
    add_grouped(1, {"l": "lineitem"}, [],
                [le("l.l_shipdate", _date(1998, 9, 2))],
                ["l.l_returnflag", "l.l_linestatus"],
                [("sum", "l.l_quantity", "sum_qty"),
                 ("sum", "l.l_extendedprice", "sum_base_price"),
                 ("avg", "l.l_discount", "avg_disc"),
                 ("count", None, "count_order")])
    # Q2: minimum cost supplier.
    add_grouped(2, {"p": "part", "ps": "partsupp", "s": "supplier", "n": "nation",
                    "r": "region"},
                [("ps.ps_partkey", "p.p_partkey"), ("ps.ps_suppkey", "s.s_suppkey"),
                 ("s.s_nationkey", "n.n_nationkey"), ("n.n_regionkey", "r.r_regionkey")],
                [eq("r.r_name", "EUROPE"), eq("p.p_size", 15),
                 prefix("p.p_type", "STANDARD")],
                ["n.n_name"],
                [("min", "ps.ps_supplycost", "min_cost"), ("count", None, "suppliers")])
    # Q3: shipping priority.
    add_grouped(3, {"c": "customer", "o": "orders", "l": "lineitem"},
                [("o.o_custkey", "c.c_custkey"), ("l.l_orderkey", "o.o_orderkey")],
                [eq("c.c_mktsegment", "BUILDING"),
                 lt("o.o_orderdate", _date(1995, 3, 15)),
                 gt("l.l_shipdate", _date(1995, 3, 15))],
                ["o.o_orderdate"],
                [("sum", "l.l_extendedprice", "revenue"), ("count", None, "lines")])
    # Q4: order priority checking.
    add_grouped(4, {"o": "orders", "l": "lineitem"},
                [("l.l_orderkey", "o.o_orderkey")],
                [between("o.o_orderdate", _date(1993, 7, 1), _date(1993, 10, 1))],
                ["o.o_orderpriority"],
                [("count", None, "order_count")])
    # Q5: local supplier volume.
    add_grouped(5, {"c": "customer", "o": "orders", "l": "lineitem", "s": "supplier",
                    "n": "nation", "r": "region"},
                [("o.o_custkey", "c.c_custkey"), ("l.l_orderkey", "o.o_orderkey"),
                 ("l.l_suppkey", "s.s_suppkey"), ("s.s_nationkey", "n.n_nationkey"),
                 ("n.n_regionkey", "r.r_regionkey")],
                [eq("r.r_name", "ASIA"),
                 between("o.o_orderdate", _date(1994, 1, 1), _date(1994, 12, 31))],
                ["n.n_name"],
                [("sum", "l.l_extendedprice", "revenue")])
    # Q6: forecasting revenue change.
    add_grouped(6, {"l": "lineitem"}, [],
                [between("l.l_shipdate", _date(1994, 1, 1), _date(1994, 12, 31)),
                 between("l.l_discount", 0.05, 0.07), lt("l.l_quantity", 24)],
                ["l.l_linestatus"],
                [("sum", "l.l_extendedprice", "revenue"), ("count", None, "lines")])
    # Q7: volume shipping between two nations.
    add_grouped(7, {"s": "supplier", "l": "lineitem", "o": "orders", "c": "customer",
                    "n1": "nation", "n2": "nation"},
                [("l.l_suppkey", "s.s_suppkey"), ("l.l_orderkey", "o.o_orderkey"),
                 ("o.o_custkey", "c.c_custkey"), ("s.s_nationkey", "n1.n_nationkey"),
                 ("c.c_nationkey", "n2.n_nationkey")],
                [eq("n1.n_name", "NATION_00003"), eq("n2.n_name", "NATION_00010"),
                 between("l.l_shipdate", _date(1995, 1, 1), _date(1996, 12, 31))],
                ["n1.n_name"],
                [("sum", "l.l_extendedprice", "revenue")])
    # Q8: national market share.
    add_grouped(8, {"p": "part", "l": "lineitem", "o": "orders", "c": "customer",
                    "n": "nation", "r": "region", "s": "supplier"},
                [("l.l_partkey", "p.p_partkey"), ("l.l_orderkey", "o.o_orderkey"),
                 ("o.o_custkey", "c.c_custkey"), ("c.c_nationkey", "n.n_nationkey"),
                 ("n.n_regionkey", "r.r_regionkey"), ("l.l_suppkey", "s.s_suppkey")],
                [eq("r.r_name", "AMERICA"), prefix("p.p_type", "ECONOMY"),
                 between("o.o_orderdate", _date(1995, 1, 1), _date(1996, 12, 31))],
                ["n.n_name"],
                [("sum", "l.l_extendedprice", "volume")])
    # Q9: product type profit measure.
    add_grouped(9, {"p": "part", "l": "lineitem", "ps": "partsupp", "s": "supplier",
                    "o": "orders", "n": "nation"},
                [("l.l_partkey", "p.p_partkey"), ("l.l_suppkey", "s.s_suppkey"),
                 ("ps.ps_partkey", "p.p_partkey"), ("ps.ps_suppkey", "s.s_suppkey"),
                 ("l.l_orderkey", "o.o_orderkey"), ("s.s_nationkey", "n.n_nationkey")],
                [prefix("p.p_name", "part_00")],
                ["n.n_name"],
                [("sum", "l.l_extendedprice", "profit")])
    # Q10: returned item reporting.
    add_grouped(10, {"c": "customer", "o": "orders", "l": "lineitem", "n": "nation"},
                [("o.o_custkey", "c.c_custkey"), ("l.l_orderkey", "o.o_orderkey"),
                 ("c.c_nationkey", "n.n_nationkey")],
                [eq("l.l_returnflag", "R"),
                 between("o.o_orderdate", _date(1993, 10, 1), _date(1994, 1, 1))],
                ["n.n_name"],
                [("sum", "l.l_extendedprice", "revenue"), ("count", None, "customers")])
    # Q11: important stock identification.
    add_grouped(11, {"ps": "partsupp", "s": "supplier", "n": "nation"},
                [("ps.ps_suppkey", "s.s_suppkey"), ("s.s_nationkey", "n.n_nationkey")],
                [eq("n.n_name", "NATION_00007")],
                ["ps.ps_partkey"],
                [("sum", "ps.ps_supplycost", "value")])
    # Q12: shipping modes and order priority.
    add_grouped(12, {"o": "orders", "l": "lineitem"},
                [("l.l_orderkey", "o.o_orderkey")],
                [isin("l.l_shipmode", ("MAIL", "SHIP")),
                 between("l.l_shipdate", _date(1994, 1, 1), _date(1994, 12, 31))],
                ["l.l_shipmode"],
                [("count", None, "order_count")])
    # Q13: customer distribution (outer join approximated by inner join).
    add_grouped(13, {"c": "customer", "o": "orders"},
                [("o.o_custkey", "c.c_custkey")],
                [],
                ["c.c_custkey"],
                [("count", None, "order_count")])
    # Q14: promotion effect.
    add_grouped(14, {"l": "lineitem", "p": "part"},
                [("l.l_partkey", "p.p_partkey")],
                [between("l.l_shipdate", _date(1995, 9, 1), _date(1995, 9, 30)),
                 prefix("p.p_type", "PROMO")],
                ["p.p_brand"],
                [("sum", "l.l_extendedprice", "promo_revenue")])
    # Q15: top supplier.
    add_grouped(15, {"l": "lineitem", "s": "supplier"},
                [("l.l_suppkey", "s.s_suppkey")],
                [between("l.l_shipdate", _date(1996, 1, 1), _date(1996, 3, 31))],
                ["s.s_name"],
                [("sum", "l.l_extendedprice", "total_revenue")])
    # Q16: parts/supplier relationship.
    add_grouped(16, {"ps": "partsupp", "p": "part"},
                [("ps.ps_partkey", "p.p_partkey")],
                [isin("p.p_size", (9, 14, 19, 23, 36, 45, 49, 3)),
                 prefix("p.p_brand", "Brand#1")],
                ["p.p_brand", "p.p_type"],
                [("count", None, "supplier_cnt")])
    # Q17: small-quantity-order revenue.
    add_grouped(17, {"l": "lineitem", "p": "part"},
                [("l.l_partkey", "p.p_partkey")],
                [eq("p.p_brand", "Brand#2"), eq("p.p_container", "MED BOX"),
                 lt("l.l_quantity", 5)],
                ["p.p_brand"],
                [("avg", "l.l_extendedprice", "avg_yearly")])
    # Q18: large volume customers.
    add_grouped(18, {"c": "customer", "o": "orders", "l": "lineitem"},
                [("o.o_custkey", "c.c_custkey"), ("l.l_orderkey", "o.o_orderkey")],
                [gt("o.o_totalprice", 300_000.0)],
                ["c.c_name"],
                [("sum", "l.l_quantity", "total_quantity")])
    # Q19: discounted revenue (disjunctive predicates).
    add_grouped(19, {"l": "lineitem", "p": "part"},
                [("l.l_partkey", "p.p_partkey")],
                [isin("p.p_container", ("SM CASE", "SM BOX", "MED BAG", "MED BOX")),
                 between("l.l_quantity", 1, 30), isin("l.l_shipmode", ("AIR", "REG AIR"))],
                ["p.p_brand"],
                [("sum", "l.l_extendedprice", "revenue")])
    # Q20: potential part promotion.
    add_grouped(20, {"s": "supplier", "n": "nation", "ps": "partsupp", "p": "part"},
                [("s.s_nationkey", "n.n_nationkey"), ("ps.ps_suppkey", "s.s_suppkey"),
                 ("ps.ps_partkey", "p.p_partkey")],
                [eq("n.n_name", "NATION_00012"), prefix("p.p_name", "part_01")],
                ["s.s_name"],
                [("count", None, "parts")])
    # Q21: suppliers who kept orders waiting.
    add_grouped(21, {"s": "supplier", "l": "lineitem", "o": "orders", "n": "nation"},
                [("l.l_suppkey", "s.s_suppkey"), ("l.l_orderkey", "o.o_orderkey"),
                 ("s.s_nationkey", "n.n_nationkey")],
                [eq("o.o_orderstatus", "F"), eq("n.n_name", "NATION_00020")],
                ["s.s_name"],
                [("count", None, "numwait")])
    # Q22: global sales opportunity.
    add_grouped(22, {"c": "customer", "o": "orders"},
                [("o.o_custkey", "c.c_custkey")],
                [gt("c.c_acctbal", 0.0),
                 isin("c.c_mktsegment", ("AUTOMOBILE", "MACHINERY"))],
                ["c.c_mktsegment"],
                [("count", None, "numcust"), ("sum", "c.c_acctbal", "totacctbal")])

    return queries
