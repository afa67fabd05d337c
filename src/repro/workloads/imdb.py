"""Synthetic IMDB-like database for the Join Order Benchmark reproduction.

The real IMDB snapshot used by JOB is not redistributable and far too large
for a pure-Python executor, so this module generates a scaled-down database
with the same schema shape and -- crucially -- the same *statistical traps*
that make JOB hard for PostgreSQL's optimizer:

* the fact tables (``cast_info``, ``movie_keyword``, ``movie_companies``,
  ``movie_info``, ``movie_info_idx``) reference ``title`` with a shared
  Zipf-like popularity, so fact-fact joins on ``movie_id`` have heavily
  correlated, skewed fan-outs;
* ``production_year`` is correlated with popularity (recent movies are the
  popular ones), so common range filters select exactly the high-fan-out
  rows the independence assumption averages away;
* string filter columns (keywords, company countries, cast notes) are skewed
  so equality/LIKE predicates on popular values are badly underestimated by
  the default statistics.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.schema import Column, ForeignKey, Schema, TableSchema
from repro.catalog.types import DataType
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

#: Base table sizes at scale factor 1.0.
BASE_SIZES = {
    "title": 6_000,
    "name": 10_000,
    "char_name": 8_000,
    "keyword": 1_500,
    "company_name": 2_000,
    "kind_type": 7,
    "role_type": 12,
    "info_type": 40,
    "company_type": 4,
    "link_type": 18,
    "cast_info": 60_000,
    "movie_keyword": 25_000,
    "movie_companies": 15_000,
    "movie_info": 30_000,
    "movie_info_idx": 15_000,
    "aka_name": 6_000,
    "movie_link": 4_000,
}


def _int(name: str) -> Column:
    return Column(name, DataType.INT)


def _str(name: str) -> Column:
    return Column(name, DataType.STRING)


IMDB_SCHEMA = Schema([
    TableSchema("kind_type", [_int("id"), _str("kind")], primary_key="id"),
    TableSchema("role_type", [_int("id"), _str("role")], primary_key="id"),
    TableSchema("info_type", [_int("id"), _str("info")], primary_key="id"),
    TableSchema("company_type", [_int("id"), _str("kind")], primary_key="id"),
    TableSchema("link_type", [_int("id"), _str("link")], primary_key="id"),
    TableSchema("keyword", [_int("id"), _str("keyword")], primary_key="id"),
    TableSchema("company_name", [_int("id"), _str("name"), _str("country_code")],
                primary_key="id"),
    TableSchema("name", [_int("id"), _str("name"), _str("gender")], primary_key="id"),
    TableSchema("char_name", [_int("id"), _str("name")], primary_key="id"),
    TableSchema("title",
                [_int("id"), _str("title"), _int("kind_id"), _int("production_year"),
                 _int("season_nr")],
                primary_key="id",
                foreign_keys=[ForeignKey("kind_id", "kind_type", "id")]),
    TableSchema("aka_name", [_int("id"), _int("person_id"), _str("name")],
                primary_key="id",
                foreign_keys=[ForeignKey("person_id", "name", "id")]),
    TableSchema("cast_info",
                [_int("id"), _int("person_id"), _int("movie_id"),
                 _int("person_role_id"), _int("role_id"), _str("note")],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("person_id", "name", "id"),
                    ForeignKey("movie_id", "title", "id"),
                    ForeignKey("person_role_id", "char_name", "id"),
                    ForeignKey("role_id", "role_type", "id"),
                ]),
    TableSchema("movie_keyword",
                [_int("id"), _int("movie_id"), _int("keyword_id")],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("movie_id", "title", "id"),
                    ForeignKey("keyword_id", "keyword", "id"),
                ]),
    TableSchema("movie_companies",
                [_int("id"), _int("movie_id"), _int("company_id"),
                 _int("company_type_id"), _str("note")],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("movie_id", "title", "id"),
                    ForeignKey("company_id", "company_name", "id"),
                    ForeignKey("company_type_id", "company_type", "id"),
                ]),
    TableSchema("movie_info",
                [_int("id"), _int("movie_id"), _int("info_type_id"), _str("info")],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("movie_id", "title", "id"),
                    ForeignKey("info_type_id", "info_type", "id"),
                ]),
    TableSchema("movie_info_idx",
                [_int("id"), _int("movie_id"), _int("info_type_id"), _str("info")],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("movie_id", "title", "id"),
                    ForeignKey("info_type_id", "info_type", "id"),
                ]),
    TableSchema("movie_link",
                [_int("id"), _int("movie_id"), _int("linked_movie_id"),
                 _int("link_type_id")],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("movie_id", "title", "id"),
                    ForeignKey("linked_movie_id", "title", "id"),
                    ForeignKey("link_type_id", "link_type", "id"),
                ]),
])


def build_imdb_database(scale: float = 1.0,
                        index_config: IndexConfig = IndexConfig.PK_FK,
                        seed: int = 42) -> Database:
    """Generate the synthetic IMDB database.

    Parameters
    ----------
    scale:
        Multiplier on the base table sizes (1.0 = roughly 200k total rows).
    index_config:
        Which index configuration to build (the paper evaluates PK-only and
        PK+FK).
    seed:
        Random seed; the same seed always produces the same database.
    """
    rng = np.random.default_rng(seed)
    sizes = {name: max(int(round(count * scale)), 4) for name, count in BASE_SIZES.items()}
    db = Database(IMDB_SCHEMA, index_config=index_config)

    # ------------------------------------------------------------------
    # Dimension tables
    # ------------------------------------------------------------------
    kinds = ["movie", "tv series", "tv movie", "video movie", "episode",
             "video game", "short"]
    db.load_table(DataTable("kind_type", {
        "id": sequential_ids(sizes["kind_type"]),
        "kind": np.array(kinds[:sizes["kind_type"]], dtype=object),
    }))

    roles = ["actor", "actress", "producer", "writer", "director",
             "composer", "cinematographer", "editor", "costume designer",
             "production designer", "guest", "miscellaneous"]
    db.load_table(DataTable("role_type", {
        "id": sequential_ids(sizes["role_type"]),
        "role": np.array(roles[:sizes["role_type"]], dtype=object),
    }))

    info_names = ["budget", "bottom 10 rank", "genres", "languages", "rating",
                  "release dates", "runtimes", "top 250 rank", "votes",
                  "countries"] + [f"info_{i:02d}" for i in range(30)]
    db.load_table(DataTable("info_type", {
        "id": sequential_ids(sizes["info_type"]),
        "info": np.array(info_names[:sizes["info_type"]], dtype=object),
    }))

    company_kinds = ["production companies", "distributors",
                     "special effects companies", "miscellaneous companies"]
    db.load_table(DataTable("company_type", {
        "id": sequential_ids(sizes["company_type"]),
        "kind": np.array(company_kinds[:sizes["company_type"]], dtype=object),
    }))

    link_kinds = [f"link_{i:02d}" for i in range(sizes["link_type"])]
    link_kinds[:4] = ["follows", "followed by", "remake of", "features"]
    db.load_table(DataTable("link_type", {
        "id": sequential_ids(sizes["link_type"]),
        "link": np.array(link_kinds, dtype=object),
    }))

    n_keyword = sizes["keyword"]
    keyword_names = string_pool("kw", n_keyword)
    # A handful of "hot" keywords used by the query filters.
    for i, hot in enumerate(["superhero", "sequel", "based-on-novel", "murder",
                             "love", "revenge", "blood", "female-nudity"]):
        if i < n_keyword:
            keyword_names[i] = hot
    db.load_table(DataTable("keyword", {
        "id": sequential_ids(n_keyword),
        "keyword": keyword_names,
    }))

    n_company = sizes["company_name"]
    db.load_table(DataTable("company_name", {
        "id": sequential_ids(n_company),
        "name": string_pool("company", n_company),
        "country_code": categorical(
            rng, ["[us]", "[gb]", "[de]", "[fr]", "[jp]", "[in]", "[ca]", "[it]"],
            [0.38, 0.14, 0.12, 0.10, 0.09, 0.07, 0.06, 0.04], n_company),
    }))

    n_name = sizes["name"]
    db.load_table(DataTable("name", {
        "id": sequential_ids(n_name),
        "name": string_pool("person", n_name),
        "gender": categorical(rng, ["m", "f", ""], [0.62, 0.33, 0.05], n_name),
    }))

    n_char = sizes["char_name"]
    db.load_table(DataTable("char_name", {
        "id": sequential_ids(n_char),
        "name": string_pool("character", n_char),
    }))

    # ------------------------------------------------------------------
    # title: popularity-correlated production years and kinds
    # ------------------------------------------------------------------
    n_title = sizes["title"]
    title_ids = sequential_ids(n_title)
    # popularity[i] in [0, 1): 0 = most popular.  Popular titles are recent.
    popularity = rng.permutation(n_title) / n_title
    production_year = correlated_ints(rng, 1.0 - popularity, 1950, 2020,
                                      correlation=0.9)
    kind_id = 1 + zipf_choice(rng, sizes["kind_type"], n_title, skew=1.1)
    db.load_table(DataTable("title", {
        "id": title_ids,
        "title": string_pool("movie", n_title),
        "kind_id": kind_id.astype(np.int64),
        "production_year": production_year,
        "season_nr": rng.integers(0, 15, n_title),
    }))

    # Shared popularity ranking used by every fact table referencing title:
    # title_rank[k] is the title id receiving the k-th most references.
    title_rank = title_ids[np.argsort(popularity)]

    def popular_movie_ids(size: int, sigma: float) -> np.ndarray:
        # Bounded-fanout skew shared across every fact table (the shared
        # ranking is what correlates cast_info, movie_keyword, ... fan-outs).
        return title_rank[skewed_fanout_choice(rng, n_title, size, sigma=sigma,
                                                cap_factor=60.0)]

    # ------------------------------------------------------------------
    # Fact tables
    # ------------------------------------------------------------------
    n_ci = sizes["cast_info"]
    ci_movie = popular_movie_ids(n_ci, sigma=1.7)
    ci_person = 1 + skewed_fanout_choice(rng, n_name, n_ci, sigma=1.2)
    ci_role = 1 + zipf_choice(rng, sizes["role_type"], n_ci, skew=1.3)
    ci_note = categorical(
        rng, ["", "(voice)", "(uncredited)", "(producer)", "(executive producer)",
              "(as himself)", "(archive footage)"],
        [0.55, 0.12, 0.10, 0.09, 0.06, 0.05, 0.03], n_ci)
    db.load_table(DataTable("cast_info", {
        "id": sequential_ids(n_ci),
        "person_id": ci_person.astype(np.int64),
        "movie_id": ci_movie.astype(np.int64),
        "person_role_id": (1 + skewed_fanout_choice(rng, n_char, n_ci, sigma=1.1)).astype(np.int64),
        "role_id": ci_role.astype(np.int64),
        "note": ci_note,
    }))

    n_mk = sizes["movie_keyword"]
    db.load_table(DataTable("movie_keyword", {
        "id": sequential_ids(n_mk),
        "movie_id": popular_movie_ids(n_mk, sigma=1.7).astype(np.int64),
        "keyword_id": (1 + skewed_fanout_choice(rng, n_keyword, n_mk, sigma=1.3)).astype(np.int64),
    }))

    n_mc = sizes["movie_companies"]
    db.load_table(DataTable("movie_companies", {
        "id": sequential_ids(n_mc),
        "movie_id": popular_movie_ids(n_mc, sigma=1.6).astype(np.int64),
        "company_id": (1 + skewed_fanout_choice(rng, n_company, n_mc, sigma=1.3)).astype(np.int64),
        "company_type_id": (1 + zipf_choice(rng, sizes["company_type"], n_mc,
                                            skew=1.1)).astype(np.int64),
        "note": categorical(
            rng, ["", "(co-production)", "(presents)", "(as Metro-Goldwyn-Mayer)",
                  "(VHS)", "(USA)", "(worldwide)"],
            [0.40, 0.15, 0.13, 0.10, 0.09, 0.08, 0.05], n_mc),
    }))

    n_mi = sizes["movie_info"]
    mi_info_type = (1 + zipf_choice(rng, sizes["info_type"], n_mi, skew=1.05)).astype(np.int64)
    genre_pool = np.array(["Drama", "Comedy", "Action", "Thriller", "Horror",
                           "Documentary", "Romance", "Crime"], dtype=object)
    mi_info = string_pool("info", n_mi)
    genre_rows = mi_info_type == 3
    mi_info[genre_rows] = genre_pool[
        zipf_choice(rng, len(genre_pool), int(genre_rows.sum()), skew=1.2)]
    db.load_table(DataTable("movie_info", {
        "id": sequential_ids(n_mi),
        "movie_id": popular_movie_ids(n_mi, sigma=1.5).astype(np.int64),
        "info_type_id": mi_info_type,
        "info": mi_info,
    }))

    n_midx = sizes["movie_info_idx"]
    midx_info_type = (1 + zipf_choice(rng, sizes["info_type"], n_midx, skew=1.05)).astype(np.int64)
    midx_info = np.array(
        [f"{v:.1f}" for v in np.clip(rng.normal(6.5, 1.5, n_midx), 1.0, 10.0)],
        dtype=object)
    db.load_table(DataTable("movie_info_idx", {
        "id": sequential_ids(n_midx),
        "movie_id": popular_movie_ids(n_midx, sigma=1.5).astype(np.int64),
        "info_type_id": midx_info_type,
        "info": midx_info,
    }))

    n_aka = sizes["aka_name"]
    db.load_table(DataTable("aka_name", {
        "id": sequential_ids(n_aka),
        "person_id": (1 + skewed_fanout_choice(rng, n_name, n_aka, sigma=1.2)).astype(np.int64),
        "name": string_pool("aka", n_aka),
    }))

    n_ml = sizes["movie_link"]
    db.load_table(DataTable("movie_link", {
        "id": sequential_ids(n_ml),
        "movie_id": popular_movie_ids(n_ml, sigma=1.3).astype(np.int64),
        "linked_movie_id": popular_movie_ids(n_ml, sigma=1.3).astype(np.int64),
        "link_type_id": (1 + zipf_choice(rng, sizes["link_type"], n_ml,
                                         skew=1.2)).astype(np.int64),
    }))

    return db
