"""Shared test fixtures: a tiny hand-built database and small workload samples."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.catalog.schema import Column, ForeignKey, Schema, TableSchema
from repro.catalog.types import DataType
from repro.plan.expressions import ColumnRef, Comparison, JoinPredicate, StringPrefix
from repro.plan.logical import AggregateSpec, Query, RelationRef, SPJQuery
from repro.storage.database import Database, IndexConfig
from repro.storage.table import DataTable
from repro.workloads.imdb import build_imdb_database
from repro.workloads.job_queries import job_queries


def _int(name):
    return Column(name, DataType.INT)


def _str(name):
    return Column(name, DataType.STRING)


@pytest.fixture(scope="session")
def tiny_schema() -> Schema:
    """A 5-table movie-ish schema with PK/FK metadata."""
    return Schema([
        TableSchema("t", [_int("id"), _int("year"), _str("kind")], primary_key="id"),
        TableSchema("k", [_int("id"), _str("kw")], primary_key="id"),
        TableSchema("n", [_int("id"), _str("name"), _str("gender")], primary_key="id"),
        TableSchema("mk", [_int("id"), _int("movie_id"), _int("keyword_id")],
                    primary_key="id",
                    foreign_keys=[ForeignKey("movie_id", "t", "id"),
                                  ForeignKey("keyword_id", "k", "id")]),
        TableSchema("ci", [_int("id"), _int("movie_id"), _int("person_id"),
                           _str("note")],
                    primary_key="id",
                    foreign_keys=[ForeignKey("movie_id", "t", "id"),
                                  ForeignKey("person_id", "n", "id")]),
    ])


def build_tiny_database(schema: Schema,
                        index_config: IndexConfig = IndexConfig.PK_FK,
                        seed: int = 0) -> Database:
    """Deterministic small database over the tiny schema."""
    rng = np.random.default_rng(seed)
    n_t, n_k, n_n, n_mk, n_ci = 500, 40, 300, 2500, 4000
    db = Database(schema, index_config=index_config)
    db.load_table(DataTable("t", {
        "id": np.arange(1, n_t + 1),
        "year": rng.integers(1980, 2021, n_t),
        "kind": np.array(["movie" if i % 3 else "tv" for i in range(n_t)],
                         dtype=object),
    }))
    db.load_table(DataTable("k", {
        "id": np.arange(1, n_k + 1),
        "kw": np.array([f"kw_{i:03d}" for i in range(n_k)], dtype=object),
    }))
    db.load_table(DataTable("n", {
        "id": np.arange(1, n_n + 1),
        "name": np.array([f"person_{i:04d}" for i in range(n_n)], dtype=object),
        "gender": np.array([("m", "f")[i % 2] for i in range(n_n)], dtype=object),
    }))
    db.load_table(DataTable("mk", {
        "id": np.arange(1, n_mk + 1),
        "movie_id": rng.integers(1, n_t + 1, n_mk),
        "keyword_id": 1 + (rng.zipf(1.6, n_mk) - 1) % n_k,
    }))
    db.load_table(DataTable("ci", {
        "id": np.arange(1, n_ci + 1),
        "movie_id": 1 + (rng.zipf(1.5, n_ci) - 1) % n_t,
        "person_id": rng.integers(1, n_n + 1, n_ci),
        "note": np.array([("", "(voice)", "(producer)")[i % 3]
                          for i in range(n_ci)], dtype=object),
    }))
    return db


@pytest.fixture(scope="session")
def tiny_db(tiny_schema) -> Database:
    """The tiny database with PK+FK indexes."""
    return build_tiny_database(tiny_schema)


@pytest.fixture(scope="session")
def tiny_query(tiny_schema) -> Query:
    """A 5-way join over the tiny schema (the paper's Figure 8 shape)."""
    return Query.from_spj(five_way_query())


def with_implied_edges(spj: SPJQuery) -> SPJQuery:
    """``spj`` plus the equalities implied by two predicates sharing a
    column, then a mirrored copy of every predicate: cycles, triangles and
    several predicates per relation pair, in an order that does not depend
    on hashing."""
    preds = list(spj.join_predicates)
    for i, p in enumerate(spj.join_predicates):
        for q in spj.join_predicates[i + 1:]:
            shared = [c for c in (p.left, p.right) if c in (q.left, q.right)]
            if len(shared) == 1:
                a, b = [c for c in (p.left, p.right, q.left, q.right)
                        if c != shared[0]]
                if a.alias != b.alias:
                    preds.append(JoinPredicate(a, b))
    preds += [JoinPredicate(p.right, p.left) for p in preds]
    return dataclasses.replace(spj, join_predicates=tuple(preds))


def five_way_query(name: str = "q5way") -> SPJQuery:
    """Build the canonical 5-way SPJ query over the tiny schema."""
    return SPJQuery(
        name=name,
        relations=tuple(RelationRef.base(a, a) for a in ("t", "mk", "k", "ci", "n")),
        filters=(
            Comparison(ColumnRef("t", "year"), ">", 2000),
            StringPrefix(ColumnRef("k", "kw"), "kw_0"),
            Comparison(ColumnRef("n", "gender"), "=", "f"),
        ),
        join_predicates=(
            JoinPredicate(ColumnRef("mk", "movie_id"), ColumnRef("t", "id")),
            JoinPredicate(ColumnRef("mk", "keyword_id"), ColumnRef("k", "id")),
            JoinPredicate(ColumnRef("ci", "movie_id"), ColumnRef("t", "id")),
            JoinPredicate(ColumnRef("ci", "person_id"), ColumnRef("n", "id")),
        ),
        aggregates=(
            AggregateSpec("count", None, "row_count"),
            AggregateSpec("min", ColumnRef("t", "year"), "min_year"),
        ),
    )


@pytest.fixture(scope="session")
def imdb_db() -> Database:
    """A small synthetic IMDB database shared across integration tests."""
    return build_imdb_database(scale=0.25, index_config=IndexConfig.PK_FK)


@pytest.fixture(scope="session")
def job_sample() -> list[Query]:
    """A representative sample of JOB-style queries (one per selected family)."""
    queries = job_queries(families=[1, 2, 6, 9, 11, 15, 17, 21])
    seen = set()
    sample = []
    for query in queries:
        family = query.metadata["family"]
        if family not in seen:
            seen.add(family)
            sample.append(query)
    return sample
