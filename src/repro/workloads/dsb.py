"""DSB workload: a skewed TPC-DS subset with SPJ and non-SPJ queries.

DSB (Ding et al., VLDB 2021) extends TPC-DS with data skew so that the
optimizer's uniformity assumptions break even on a star schema.  The paper
uses 52 DSB queries (15 SPJ, 37 non-SPJ) at scale factor 5; this module
rebuilds the sales-channel core of the schema (store / catalog / web sales
facts around item, customer, date and demographic dimensions), injects Zipf
skew into the fact foreign keys and correlated dimension attributes, and
provides 15 SPJ queries plus 10 representative non-SPJ queries.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.schema import Column, ForeignKey, Schema, TableSchema
from repro.catalog.types import DataType
from repro.plan.logical import Query
from repro.storage.database import Database, IndexConfig
from repro.storage.table import DataTable
from repro.workloads.datagen import (
    categorical,
    correlated_ints,
    sequential_ids,
    skewed_fanout_choice,
    string_pool,
    zipf_choice,
)
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
    union_query,
)

#: Table sizes at scale factor 1.0.
BASE_SIZES = {
    "date_dim": 1_200,
    "item": 2_000,
    "customer": 3_000,
    "customer_demographics": 600,
    "customer_address": 1_000,
    "household_demographics": 150,
    "store": 20,
    "promotion": 100,
    "store_sales": 50_000,
    "catalog_sales": 25_000,
    "web_sales": 15_000,
    "store_returns": 8_000,
}


def _int(name: str) -> Column:
    return Column(name, DataType.INT)


def _float(name: str) -> Column:
    return Column(name, DataType.FLOAT)


def _str(name: str) -> Column:
    return Column(name, DataType.STRING)


DSB_SCHEMA = Schema([
    TableSchema("date_dim", [_int("d_date_sk"), _int("d_year"), _int("d_moy"),
                             _int("d_dom")],
                primary_key="d_date_sk"),
    TableSchema("item", [_int("i_item_sk"), _str("i_category"), _str("i_brand"),
                         _float("i_current_price")],
                primary_key="i_item_sk"),
    TableSchema("customer_demographics",
                [_int("cd_demo_sk"), _str("cd_gender"), _str("cd_marital_status"),
                 _str("cd_education_status")],
                primary_key="cd_demo_sk"),
    TableSchema("customer_address",
                [_int("ca_address_sk"), _str("ca_state"), _int("ca_gmt_offset")],
                primary_key="ca_address_sk"),
    TableSchema("household_demographics",
                [_int("hd_demo_sk"), _int("hd_income_band_sk"), _int("hd_dep_count")],
                primary_key="hd_demo_sk"),
    TableSchema("store", [_int("s_store_sk"), _str("s_state"),
                          _int("s_number_employees")],
                primary_key="s_store_sk"),
    TableSchema("promotion", [_int("p_promo_sk"), _str("p_channel_email"),
                              _str("p_channel_tv")],
                primary_key="p_promo_sk"),
    TableSchema("customer",
                [_int("c_customer_sk"), _int("c_current_cdemo_sk"),
                 _int("c_current_addr_sk"), _int("c_birth_year")],
                primary_key="c_customer_sk",
                foreign_keys=[
                    ForeignKey("c_current_cdemo_sk", "customer_demographics",
                               "cd_demo_sk"),
                    ForeignKey("c_current_addr_sk", "customer_address",
                               "ca_address_sk"),
                ]),
    TableSchema("store_sales",
                [_int("ss_id"), _int("ss_sold_date_sk"), _int("ss_item_sk"),
                 _int("ss_customer_sk"), _int("ss_cdemo_sk"), _int("ss_hdemo_sk"),
                 _int("ss_addr_sk"), _int("ss_store_sk"), _int("ss_promo_sk"),
                 _int("ss_quantity"), _float("ss_sales_price"),
                 _float("ss_ext_sales_price")],
                primary_key="ss_id",
                foreign_keys=[
                    ForeignKey("ss_sold_date_sk", "date_dim", "d_date_sk"),
                    ForeignKey("ss_item_sk", "item", "i_item_sk"),
                    ForeignKey("ss_customer_sk", "customer", "c_customer_sk"),
                    ForeignKey("ss_cdemo_sk", "customer_demographics", "cd_demo_sk"),
                    ForeignKey("ss_hdemo_sk", "household_demographics", "hd_demo_sk"),
                    ForeignKey("ss_addr_sk", "customer_address", "ca_address_sk"),
                    ForeignKey("ss_store_sk", "store", "s_store_sk"),
                    ForeignKey("ss_promo_sk", "promotion", "p_promo_sk"),
                ]),
    TableSchema("catalog_sales",
                [_int("cs_id"), _int("cs_sold_date_sk"), _int("cs_item_sk"),
                 _int("cs_bill_customer_sk"), _int("cs_quantity"),
                 _float("cs_sales_price")],
                primary_key="cs_id",
                foreign_keys=[
                    ForeignKey("cs_sold_date_sk", "date_dim", "d_date_sk"),
                    ForeignKey("cs_item_sk", "item", "i_item_sk"),
                    ForeignKey("cs_bill_customer_sk", "customer", "c_customer_sk"),
                ]),
    TableSchema("web_sales",
                [_int("ws_id"), _int("ws_sold_date_sk"), _int("ws_item_sk"),
                 _int("ws_bill_customer_sk"), _int("ws_quantity"),
                 _float("ws_sales_price")],
                primary_key="ws_id",
                foreign_keys=[
                    ForeignKey("ws_sold_date_sk", "date_dim", "d_date_sk"),
                    ForeignKey("ws_item_sk", "item", "i_item_sk"),
                    ForeignKey("ws_bill_customer_sk", "customer", "c_customer_sk"),
                ]),
    TableSchema("store_returns",
                [_int("sr_id"), _int("sr_item_sk"), _int("sr_customer_sk"),
                 _int("sr_returned_date_sk"), _float("sr_return_amt")],
                primary_key="sr_id",
                foreign_keys=[
                    ForeignKey("sr_item_sk", "item", "i_item_sk"),
                    ForeignKey("sr_customer_sk", "customer", "c_customer_sk"),
                    ForeignKey("sr_returned_date_sk", "date_dim", "d_date_sk"),
                ]),
])

_CATEGORIES = ["Books", "Electronics", "Home", "Jewelry", "Men", "Music",
               "Shoes", "Sports", "Toys", "Women"]
_STATES = ["CA", "TX", "NY", "FL", "WA", "IL", "OH", "GA", "NC", "MI"]


def build_dsb_database(scale: float = 1.0,
                       index_config: IndexConfig = IndexConfig.PK_FK,
                       seed: int = 11) -> Database:
    """Generate the skewed DSB database."""
    rng = np.random.default_rng(seed)
    sizes = {name: max(int(round(count * scale)), 4) for name, count in BASE_SIZES.items()}
    db = Database(DSB_SCHEMA, index_config=index_config)

    n_date = sizes["date_dim"]
    years = 1998 + (np.arange(n_date) // 366)
    db.load_table(DataTable("date_dim", {
        "d_date_sk": sequential_ids(n_date),
        "d_year": years.astype(np.int64),
        "d_moy": (1 + (np.arange(n_date) // 30) % 12).astype(np.int64),
        "d_dom": (1 + np.arange(n_date) % 28).astype(np.int64),
    }))

    n_item = sizes["item"]
    item_popularity = rng.permutation(n_item) / n_item
    db.load_table(DataTable("item", {
        "i_item_sk": sequential_ids(n_item),
        "i_category": categorical(rng, _CATEGORIES,
                                  [0.28, 0.18, 0.12, 0.10, 0.08, 0.07, 0.06, 0.05,
                                   0.04, 0.02], n_item),
        "i_brand": string_pool("brand", 50)[zipf_choice(rng, 50, n_item, skew=1.2)],
        "i_current_price": rng.uniform(1.0, 300.0, n_item).round(2),
    }))

    n_cd = sizes["customer_demographics"]
    db.load_table(DataTable("customer_demographics", {
        "cd_demo_sk": sequential_ids(n_cd),
        "cd_gender": categorical(rng, ["M", "F"], [0.5, 0.5], n_cd),
        "cd_marital_status": categorical(rng, ["M", "S", "D", "W", "U"],
                                         [0.4, 0.3, 0.15, 0.1, 0.05], n_cd),
        "cd_education_status": categorical(
            rng, ["Primary", "Secondary", "College", "2 yr Degree", "4 yr Degree",
                  "Advanced Degree"],
            [0.1, 0.25, 0.25, 0.15, 0.15, 0.1], n_cd),
    }))

    n_ca = sizes["customer_address"]
    db.load_table(DataTable("customer_address", {
        "ca_address_sk": sequential_ids(n_ca),
        "ca_state": categorical(rng, _STATES,
                                [0.30, 0.16, 0.12, 0.10, 0.08, 0.07, 0.06, 0.05,
                                 0.04, 0.02], n_ca),
        "ca_gmt_offset": rng.choice([-8, -7, -6, -5], n_ca).astype(np.int64),
    }))

    n_hd = sizes["household_demographics"]
    db.load_table(DataTable("household_demographics", {
        "hd_demo_sk": sequential_ids(n_hd),
        "hd_income_band_sk": rng.integers(1, 21, n_hd),
        "hd_dep_count": rng.integers(0, 10, n_hd),
    }))

    n_store = sizes["store"]
    db.load_table(DataTable("store", {
        "s_store_sk": sequential_ids(n_store),
        "s_state": categorical(rng, _STATES[:5], [0.4, 0.25, 0.15, 0.12, 0.08], n_store),
        "s_number_employees": rng.integers(50, 300, n_store),
    }))

    n_promo = sizes["promotion"]
    db.load_table(DataTable("promotion", {
        "p_promo_sk": sequential_ids(n_promo),
        "p_channel_email": categorical(rng, ["Y", "N"], [0.3, 0.7], n_promo),
        "p_channel_tv": categorical(rng, ["Y", "N"], [0.2, 0.8], n_promo),
    }))

    n_cust = sizes["customer"]
    cust_popularity = rng.permutation(n_cust) / n_cust
    db.load_table(DataTable("customer", {
        "c_customer_sk": sequential_ids(n_cust),
        "c_current_cdemo_sk": (1 + zipf_choice(rng, n_cd, n_cust, skew=1.1)).astype(np.int64),
        "c_current_addr_sk": (1 + zipf_choice(rng, n_ca, n_cust, skew=1.2)).astype(np.int64),
        "c_birth_year": correlated_ints(rng, cust_popularity, 1930, 2000,
                                        correlation=0.5),
    }))

    item_rank = sequential_ids(n_item)[np.argsort(item_popularity)]
    cust_rank = sequential_ids(n_cust)[np.argsort(cust_popularity)]

    def fact_columns(size: int, item_skew: float, cust_skew: float):
        return {
            "date": (1 + zipf_choice(rng, n_date, size, skew=1.05)).astype(np.int64),
            "item": item_rank[skewed_fanout_choice(rng, n_item, size, sigma=item_skew)].astype(np.int64),
            "cust": cust_rank[skewed_fanout_choice(rng, n_cust, size, sigma=cust_skew)].astype(np.int64),
        }

    n_ss = sizes["store_sales"]
    ss = fact_columns(n_ss, item_skew=1.35, cust_skew=1.25)
    db.load_table(DataTable("store_sales", {
        "ss_id": sequential_ids(n_ss),
        "ss_sold_date_sk": ss["date"],
        "ss_item_sk": ss["item"],
        "ss_customer_sk": ss["cust"],
        "ss_cdemo_sk": (1 + skewed_fanout_choice(rng, n_cd, n_ss, sigma=1.2)).astype(np.int64),
        "ss_hdemo_sk": (1 + zipf_choice(rng, n_hd, n_ss, skew=1.1)).astype(np.int64),
        "ss_addr_sk": (1 + skewed_fanout_choice(rng, n_ca, n_ss, sigma=1.2)).astype(np.int64),
        "ss_store_sk": (1 + zipf_choice(rng, n_store, n_ss, skew=1.2)).astype(np.int64),
        "ss_promo_sk": (1 + zipf_choice(rng, n_promo, n_ss, skew=1.3)).astype(np.int64),
        "ss_quantity": rng.integers(1, 100, n_ss),
        "ss_sales_price": rng.uniform(1.0, 200.0, n_ss).round(2),
        "ss_ext_sales_price": rng.uniform(1.0, 20_000.0, n_ss).round(2),
    }))

    n_cs = sizes["catalog_sales"]
    cs = fact_columns(n_cs, item_skew=1.3, cust_skew=1.2)
    db.load_table(DataTable("catalog_sales", {
        "cs_id": sequential_ids(n_cs),
        "cs_sold_date_sk": cs["date"],
        "cs_item_sk": cs["item"],
        "cs_bill_customer_sk": cs["cust"],
        "cs_quantity": rng.integers(1, 100, n_cs),
        "cs_sales_price": rng.uniform(1.0, 300.0, n_cs).round(2),
    }))

    n_ws = sizes["web_sales"]
    ws = fact_columns(n_ws, item_skew=1.25, cust_skew=1.3)
    db.load_table(DataTable("web_sales", {
        "ws_id": sequential_ids(n_ws),
        "ws_sold_date_sk": ws["date"],
        "ws_item_sk": ws["item"],
        "ws_bill_customer_sk": ws["cust"],
        "ws_quantity": rng.integers(1, 100, n_ws),
        "ws_sales_price": rng.uniform(1.0, 300.0, n_ws).round(2),
    }))

    n_sr = sizes["store_returns"]
    sr = fact_columns(n_sr, item_skew=1.4, cust_skew=1.3)
    db.load_table(DataTable("store_returns", {
        "sr_id": sequential_ids(n_sr),
        "sr_item_sk": sr["item"],
        "sr_customer_sk": sr["cust"],
        "sr_returned_date_sk": sr["date"],
        "sr_return_amt": rng.uniform(1.0, 500.0, n_sr).round(2),
    }))

    return db


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
#: Valid DSB query numbers (``families`` in the experiment CLI).
DSB_SPJ_NUMBERS: tuple[int, ...] = tuple(range(1, 16))
DSB_NONSPJ_NUMBERS: tuple[int, ...] = tuple(range(1, 11))


def dsb_spj_queries() -> list[Query]:
    """The 15 SPJ queries of the DSB reproduction (Figure 13)."""
    specs = [
        # 1: store sales of a category in a year
        dict(relations={"ss": "store_sales", "i": "item", "d": "date_dim"},
             joins=[("ss.ss_item_sk", "i.i_item_sk"),
                    ("ss.ss_sold_date_sk", "d.d_date_sk")],
             filters=[eq("i.i_category", "Books"), eq("d.d_year", 1999)],
             min_outputs=["ss.ss_sales_price"]),
        # 2: customers from a state buying electronics
        dict(relations={"ss": "store_sales", "i": "item", "c": "customer",
                        "ca": "customer_address"},
             joins=[("ss.ss_item_sk", "i.i_item_sk"),
                    ("ss.ss_customer_sk", "c.c_customer_sk"),
                    ("c.c_current_addr_sk", "ca.ca_address_sk")],
             filters=[eq("i.i_category", "Electronics"), eq("ca.ca_state", "CA")],
             min_outputs=["ss.ss_sales_price", "i.i_current_price"]),
        # 3: demographic slice of store sales
        dict(relations={"ss": "store_sales", "cd": "customer_demographics",
                        "d": "date_dim"},
             joins=[("ss.ss_cdemo_sk", "cd.cd_demo_sk"),
                    ("ss.ss_sold_date_sk", "d.d_date_sk")],
             filters=[eq("cd.cd_gender", "F"), eq("cd.cd_marital_status", "M"),
                      eq("d.d_year", 2000)],
             min_outputs=["ss.ss_quantity"]),
        # 4: promoted store sales in specific stores
        dict(relations={"ss": "store_sales", "p": "promotion", "s": "store",
                        "d": "date_dim"},
             joins=[("ss.ss_promo_sk", "p.p_promo_sk"),
                    ("ss.ss_store_sk", "s.s_store_sk"),
                    ("ss.ss_sold_date_sk", "d.d_date_sk")],
             filters=[eq("p.p_channel_tv", "Y"), eq("s.s_state", "CA"),
                      between("d.d_moy", 11, 12)],
             min_outputs=["ss.ss_ext_sales_price"]),
        # 5: catalog and store sales of the same item (fact-fact join)
        dict(relations={"ss": "store_sales", "cs": "catalog_sales", "i": "item"},
             joins=[("ss.ss_item_sk", "i.i_item_sk"),
                    ("cs.cs_item_sk", "i.i_item_sk")],
             filters=[eq("i.i_category", "Jewelry"), gt("i.i_current_price", 100.0)],
             min_outputs=["ss.ss_sales_price", "cs.cs_sales_price"]),
        # 6: returned items and original sales (fact-fact via item & customer)
        dict(relations={"ss": "store_sales", "sr": "store_returns", "i": "item"},
             joins=[("ss.ss_item_sk", "i.i_item_sk"),
                    ("sr.sr_item_sk", "i.i_item_sk")],
             filters=[eq("i.i_category", "Shoes"), gt("sr.sr_return_amt", 200.0)],
             min_outputs=["sr.sr_return_amt"]),
        # 7: web and store customers (fact-fact via customer)
        dict(relations={"ss": "store_sales", "ws": "web_sales", "c": "customer"},
             joins=[("ss.ss_customer_sk", "c.c_customer_sk"),
                    ("ws.ws_bill_customer_sk", "c.c_customer_sk")],
             filters=[gt("c.c_birth_year", 1980), gt("ws.ws_quantity", 50)],
             min_outputs=["ss.ss_sales_price", "ws.ws_sales_price"]),
        # 8: household demographics and address slice
        dict(relations={"ss": "store_sales", "hd": "household_demographics",
                        "ca": "customer_address", "d": "date_dim"},
             joins=[("ss.ss_hdemo_sk", "hd.hd_demo_sk"),
                    ("ss.ss_addr_sk", "ca.ca_address_sk"),
                    ("ss.ss_sold_date_sk", "d.d_date_sk")],
             filters=[gt("hd.hd_dep_count", 5), eq("ca.ca_state", "TX"),
                      eq("d.d_year", 1999)],
             min_outputs=["ss.ss_quantity"]),
        # 9: five-dimension slice of store sales
        dict(relations={"ss": "store_sales", "i": "item", "c": "customer",
                        "cd": "customer_demographics", "d": "date_dim"},
             joins=[("ss.ss_item_sk", "i.i_item_sk"),
                    ("ss.ss_customer_sk", "c.c_customer_sk"),
                    ("c.c_current_cdemo_sk", "cd.cd_demo_sk"),
                    ("ss.ss_sold_date_sk", "d.d_date_sk")],
             filters=[eq("i.i_category", "Sports"), eq("cd.cd_gender", "M"),
                      ge("d.d_year", 2000)],
             min_outputs=["ss.ss_sales_price"]),
        # 10: catalog sales to young customers in certain states
        dict(relations={"cs": "catalog_sales", "c": "customer",
                        "ca": "customer_address", "d": "date_dim"},
             joins=[("cs.cs_bill_customer_sk", "c.c_customer_sk"),
                    ("c.c_current_addr_sk", "ca.ca_address_sk"),
                    ("cs.cs_sold_date_sk", "d.d_date_sk")],
             filters=[gt("c.c_birth_year", 1985), isin("ca.ca_state", ("NY", "FL")),
                      eq("d.d_year", 2001)],
             min_outputs=["cs.cs_sales_price"]),
        # 11: cross-channel item movement (three facts around item)
        dict(relations={"ss": "store_sales", "cs": "catalog_sales",
                        "ws": "web_sales", "i": "item"},
             joins=[("ss.ss_item_sk", "i.i_item_sk"),
                    ("cs.cs_item_sk", "i.i_item_sk"),
                    ("ws.ws_item_sk", "i.i_item_sk")],
             filters=[eq("i.i_category", "Music"), lt("i.i_current_price", 20.0)],
             min_outputs=["i.i_current_price"]),
        # 12: store sales with promotion and demographics
        dict(relations={"ss": "store_sales", "p": "promotion",
                        "cd": "customer_demographics", "i": "item"},
             joins=[("ss.ss_promo_sk", "p.p_promo_sk"),
                    ("ss.ss_cdemo_sk", "cd.cd_demo_sk"),
                    ("ss.ss_item_sk", "i.i_item_sk")],
             filters=[eq("p.p_channel_email", "Y"), eq("cd.cd_education_status", "College"),
                      eq("i.i_category", "Toys")],
             min_outputs=["ss.ss_sales_price"]),
        # 13: returns of web-bought items (returns + web sales via item/customer)
        dict(relations={"ws": "web_sales", "sr": "store_returns", "c": "customer",
                        "d": "date_dim"},
             joins=[("ws.ws_bill_customer_sk", "c.c_customer_sk"),
                    ("sr.sr_customer_sk", "c.c_customer_sk"),
                    ("ws.ws_sold_date_sk", "d.d_date_sk")],
             filters=[gt("sr.sr_return_amt", 100.0), eq("d.d_year", 2000)],
             min_outputs=["ws.ws_sales_price", "sr.sr_return_amt"]),
        # 14: store and store sales in a holiday month
        dict(relations={"ss": "store_sales", "s": "store", "d": "date_dim",
                        "i": "item"},
             joins=[("ss.ss_store_sk", "s.s_store_sk"),
                    ("ss.ss_sold_date_sk", "d.d_date_sk"),
                    ("ss.ss_item_sk", "i.i_item_sk")],
             filters=[eq("d.d_moy", 12), eq("s.s_state", "TX"),
                      isin("i.i_category", ("Toys", "Electronics"))],
             min_outputs=["ss.ss_ext_sales_price"]),
        # 15: wide slice across six relations
        dict(relations={"ss": "store_sales", "i": "item", "c": "customer",
                        "ca": "customer_address", "d": "date_dim", "s": "store"},
             joins=[("ss.ss_item_sk", "i.i_item_sk"),
                    ("ss.ss_customer_sk", "c.c_customer_sk"),
                    ("c.c_current_addr_sk", "ca.ca_address_sk"),
                    ("ss.ss_sold_date_sk", "d.d_date_sk"),
                    ("ss.ss_store_sk", "s.s_store_sk")],
             filters=[eq("i.i_category", "Women"), eq("ca.ca_state", "CA"),
                      eq("d.d_year", 1999), eq("s.s_state", "CA")],
             min_outputs=["ss.ss_sales_price"]),
    ]
    return [Query.from_spj(build_spj(name=f"dsb-spj-{i}", **spec), kind="spj")
            for i, spec in enumerate(specs, start=1)]


def dsb_nonspj_queries() -> list[Query]:
    """Ten representative non-SPJ DSB queries (Figure 14)."""
    queries: list[Query] = []

    def add(number: int, relations, joins, filters, group_by, aggregates):
        spj = build_spj(name=f"dsb-agg-{number}", relations=relations, joins=joins,
                        filters=filters, count_output=False)
        queries.append(grouped_query(f"dsb-nonspj-{number}", spj, group_by, aggregates))

    add(1, {"ss": "store_sales", "i": "item", "d": "date_dim"},
        [("ss.ss_item_sk", "i.i_item_sk"), ("ss.ss_sold_date_sk", "d.d_date_sk")],
        [eq("d.d_year", 1999)],
        ["i.i_category"],
        [("sum", "ss.ss_ext_sales_price", "total_sales"), ("count", None, "sales")])
    add(2, {"ss": "store_sales", "s": "store", "d": "date_dim"},
        [("ss.ss_store_sk", "s.s_store_sk"), ("ss.ss_sold_date_sk", "d.d_date_sk")],
        [between("d.d_moy", 6, 8)],
        ["s.s_state"],
        [("sum", "ss.ss_sales_price", "summer_sales")])
    add(3, {"cs": "catalog_sales", "c": "customer", "cd": "customer_demographics"},
        [("cs.cs_bill_customer_sk", "c.c_customer_sk"),
         ("c.c_current_cdemo_sk", "cd.cd_demo_sk")],
        [eq("cd.cd_gender", "F")],
        ["cd.cd_education_status"],
        [("avg", "cs.cs_sales_price", "avg_price"), ("count", None, "orders")])
    add(4, {"ws": "web_sales", "i": "item", "d": "date_dim"},
        [("ws.ws_item_sk", "i.i_item_sk"), ("ws.ws_sold_date_sk", "d.d_date_sk")],
        [gt("i.i_current_price", 50.0)],
        ["i.i_brand"],
        [("sum", "ws.ws_sales_price", "brand_revenue")])
    add(5, {"ss": "store_sales", "sr": "store_returns", "i": "item"},
        [("ss.ss_item_sk", "i.i_item_sk"), ("sr.sr_item_sk", "i.i_item_sk")],
        [eq("i.i_category", "Electronics")],
        ["i.i_brand"],
        [("sum", "sr.sr_return_amt", "returned"), ("count", None, "events")])
    add(6, {"ss": "store_sales", "hd": "household_demographics", "s": "store"},
        [("ss.ss_hdemo_sk", "hd.hd_demo_sk"), ("ss.ss_store_sk", "s.s_store_sk")],
        [gt("hd.hd_income_band_sk", 15)],
        ["s.s_state"],
        [("avg", "ss.ss_quantity", "avg_quantity")])
    add(7, {"cs": "catalog_sales", "i": "item", "d": "date_dim"},
        [("cs.cs_item_sk", "i.i_item_sk"), ("cs.cs_sold_date_sk", "d.d_date_sk")],
        [eq("d.d_year", 2001), isin("i.i_category", ("Books", "Music"))],
        ["i.i_category", "d.d_moy"],
        [("sum", "cs.cs_sales_price", "monthly_revenue")])
    add(8, {"ss": "store_sales", "c": "customer", "ca": "customer_address",
            "d": "date_dim"},
        [("ss.ss_customer_sk", "c.c_customer_sk"),
         ("c.c_current_addr_sk", "ca.ca_address_sk"),
         ("ss.ss_sold_date_sk", "d.d_date_sk")],
        [eq("d.d_year", 2000)],
        ["ca.ca_state"],
        [("sum", "ss.ss_ext_sales_price", "state_revenue"), ("count", None, "sales")])

    # 9: cross-channel union: revenue per item category from store and web sales.
    store_part = grouped_query(
        "dsb-nonspj-9-store",
        build_spj(name="dsb-agg-9s",
                  relations={"ss": "store_sales", "i": "item"},
                  joins=[("ss.ss_item_sk", "i.i_item_sk")],
                  filters=[gt("ss.ss_quantity", 10)],
                  count_output=False),
        ["i.i_category"],
        [("sum", "ss.ss_sales_price", "revenue")])
    web_part = grouped_query(
        "dsb-nonspj-9-web",
        build_spj(name="dsb-agg-9w",
                  relations={"ws": "web_sales", "i": "item"},
                  joins=[("ws.ws_item_sk", "i.i_item_sk")],
                  filters=[gt("ws.ws_quantity", 10)],
                  count_output=False),
        ["i.i_category"],
        [("sum", "ws.ws_sales_price", "revenue")])
    # Rename the aggregate columns so the union branches line up.
    queries.append(union_query("dsb-nonspj-9", [store_part, web_part]))

    add(10, {"ss": "store_sales", "i": "item", "c": "customer",
             "cd": "customer_demographics", "d": "date_dim"},
        [("ss.ss_item_sk", "i.i_item_sk"),
         ("ss.ss_customer_sk", "c.c_customer_sk"),
         ("c.c_current_cdemo_sk", "cd.cd_demo_sk"),
         ("ss.ss_sold_date_sk", "d.d_date_sk")],
        [eq("cd.cd_marital_status", "S"), ge("d.d_year", 2000)],
        ["i.i_category", "cd.cd_gender"],
        [("sum", "ss.ss_sales_price", "revenue")])

    return queries


def dsb_queries() -> list[Query]:
    """All DSB queries: 15 SPJ followed by 10 non-SPJ."""
    return dsb_spj_queries() + dsb_nonspj_queries()
