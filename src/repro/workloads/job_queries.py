"""JOB-style query catalogue over the synthetic IMDB schema.

The Join Order Benchmark contains 113 hand-written queries in 33 families
(1a, 1b, ... 33c); 91 of them return non-empty results and are used by the
paper.  This module provides 91 queries with the same construction
principles:

* every query is a pure SPJ block with JOB-style ``MIN(...)`` outputs;
* join graphs follow the *inverse star* pattern (several fact tables --
  ``cast_info``, ``movie_keyword``, ``movie_companies``, ``movie_info`` --
  sharing the ``title`` dimension), ranging from 3 to 10 relations;
* filters mix numeric ranges on correlated columns
  (``title.production_year``), skewed categorical equality
  (``company_name.country_code``, ``cast_info.note``), and string patterns
  on skewed columns (``keyword.keyword``), so that cardinality estimates
  range from accurate to catastrophically wrong.

Queries are named ``<family><variant>`` (``1a``, ``1b``, ...), mirroring JOB.
"""

from __future__ import annotations

from repro.plan.logical import Query
from repro.workloads.spec import (
    between,
    build_spj,
    eq,
    ge,
    gt,
    isin,
    le,
    like,
    lt,
    ne,
    prefix,
)

# ----------------------------------------------------------------------
# Family definitions.  Each family fixes the join shape; each variant is a
# different filter list.  Aliases follow JOB conventions.
# ----------------------------------------------------------------------
_FAMILIES: list[dict] = [
    {   # 1: company-filtered movies (mc at the center)
        "relations": {"t": "title", "mc": "movie_companies", "ct": "company_type"},
        "joins": [("mc.movie_id", "t.id"), ("mc.company_type_id", "ct.id")],
        "outputs": ["t.title", "t.production_year"],
        "variants": [
            [eq("ct.kind", "production companies"), gt("t.production_year", 2010)],
            [eq("ct.kind", "distributors"), between("t.production_year", 1990, 2000)],
            [eq("ct.kind", "production companies"), like("mc.note", "co-production")],
        ],
    },
    {   # 2: keyword lookups (mk at the center)
        "relations": {"t": "title", "mk": "movie_keyword", "k": "keyword"},
        "joins": [("mk.movie_id", "t.id"), ("mk.keyword_id", "k.id")],
        "outputs": ["t.title"],
        "variants": [
            [eq("k.keyword", "superhero"), gt("t.production_year", 2005)],
            [eq("k.keyword", "sequel")],
            [prefix("k.keyword", "kw_001"), lt("t.production_year", 1990)],
            [isin("k.keyword", ("murder", "blood", "revenge")),
             gt("t.production_year", 2000)],
        ],
    },
    {   # 3: keyword + kind
        "relations": {"t": "title", "mk": "movie_keyword", "k": "keyword",
                      "kt": "kind_type"},
        "joins": [("mk.movie_id", "t.id"), ("mk.keyword_id", "k.id"),
                  ("t.kind_id", "kt.id")],
        "outputs": ["t.title"],
        "variants": [
            [eq("kt.kind", "movie"), eq("k.keyword", "love")],
            [eq("kt.kind", "tv series"), prefix("k.keyword", "kw_00")],
            [eq("kt.kind", "movie"), like("k.keyword", "based"),
             gt("t.production_year", 2008)],
        ],
    },
    {   # 4: rating info through movie_info_idx
        "relations": {"t": "title", "mi_idx": "movie_info_idx", "it": "info_type"},
        "joins": [("mi_idx.movie_id", "t.id"), ("mi_idx.info_type_id", "it.id")],
        "outputs": ["t.title", "mi_idx.info"],
        "variants": [
            [eq("it.info", "rating"), gt("mi_idx.info", "8.0")],
            [eq("it.info", "votes"), gt("t.production_year", 2005)],
            [eq("it.info", "rating"), lt("mi_idx.info", "3.0"),
             gt("t.production_year", 2000)],
        ],
    },
    {   # 5: production companies + movie info
        "relations": {"t": "title", "mc": "movie_companies", "ct": "company_type",
                      "mi": "movie_info", "it": "info_type"},
        "joins": [("mc.movie_id", "t.id"), ("mc.company_type_id", "ct.id"),
                  ("mi.movie_id", "t.id"), ("mi.info_type_id", "it.id")],
        "outputs": ["t.title"],
        "variants": [
            [eq("ct.kind", "production companies"), eq("it.info", "genres"),
             eq("mi.info", "Drama")],
            [eq("ct.kind", "distributors"), eq("it.info", "languages"),
             gt("t.production_year", 2010)],
            [eq("ct.kind", "production companies"), eq("it.info", "genres"),
             isin("mi.info", ("Horror", "Thriller")), gt("t.production_year", 1995)],
        ],
    },
    {   # 6: the paper's running example (Figure 8): mk and ci centers
        "relations": {"t": "title", "mk": "movie_keyword", "k": "keyword",
                      "ci": "cast_info", "n": "name"},
        "joins": [("mk.movie_id", "t.id"), ("mk.keyword_id", "k.id"),
                  ("ci.movie_id", "t.id"), ("ci.person_id", "n.id")],
        "outputs": ["k.keyword", "n.name", "t.title"],
        "variants": [
            [eq("k.keyword", "superhero"), eq("n.gender", "m"),
             gt("t.production_year", 2010)],
            [eq("k.keyword", "sequel"), gt("t.production_year", 2005)],
            [prefix("k.keyword", "kw_000"), eq("n.gender", "f")],
            [eq("k.keyword", "love"), like("n.name", "person_000")],
        ],
    },
    {   # 7: people and their aka names
        "relations": {"t": "title", "ci": "cast_info", "n": "name",
                      "an": "aka_name"},
        "joins": [("ci.movie_id", "t.id"), ("ci.person_id", "n.id"),
                  ("an.person_id", "n.id")],
        "outputs": ["n.name", "t.title"],
        "variants": [
            [eq("n.gender", "f"), gt("t.production_year", 2010)],
            [like("ci.note", "producer"), between("t.production_year", 1980, 1995)],
            [eq("n.gender", "m"), like("an.name", "aka_000"),
             gt("t.production_year", 2000)],
        ],
    },
    {   # 8: role-constrained cast
        "relations": {"t": "title", "ci": "cast_info", "n": "name",
                      "rt": "role_type"},
        "joins": [("ci.movie_id", "t.id"), ("ci.person_id", "n.id"),
                  ("ci.role_id", "rt.id")],
        "outputs": ["n.name", "t.title"],
        "variants": [
            [eq("rt.role", "actress"), gt("t.production_year", 2005)],
            [eq("rt.role", "producer"), like("ci.note", "executive")],
            [eq("rt.role", "writer"), eq("n.gender", "f"),
             gt("t.production_year", 1990)],
        ],
    },
    {   # 9: companies and cast together (the paper's 9c-style shape)
        "relations": {"t": "title", "ci": "cast_info", "n": "name",
                      "mc": "movie_companies", "cn": "company_name",
                      "an": "aka_name"},
        "joins": [("ci.movie_id", "t.id"), ("ci.person_id", "n.id"),
                  ("mc.movie_id", "t.id"), ("mc.company_id", "cn.id"),
                  ("an.person_id", "n.id")],
        "outputs": ["an.name", "t.title"],
        "variants": [
            [eq("cn.country_code", "[us]"), eq("n.gender", "f"),
             gt("t.production_year", 2005)],
            [eq("cn.country_code", "[jp]"), like("ci.note", "voice")],
            [eq("cn.country_code", "[us]"), like("ci.note", "voice"),
             eq("n.gender", "f"), gt("t.production_year", 2000)],
        ],
    },
    {   # 10: character names and companies
        "relations": {"t": "title", "ci": "cast_info", "chn": "char_name",
                      "rt": "role_type", "mc": "movie_companies",
                      "cn": "company_name"},
        "joins": [("ci.movie_id", "t.id"), ("ci.person_role_id", "chn.id"),
                  ("ci.role_id", "rt.id"), ("mc.movie_id", "t.id"),
                  ("mc.company_id", "cn.id")],
        "outputs": ["chn.name", "t.title"],
        "variants": [
            [eq("rt.role", "actor"), eq("cn.country_code", "[us]"),
             gt("t.production_year", 2010)],
            [eq("rt.role", "actress"), ne("cn.country_code", "[us]")],
            [eq("rt.role", "actor"), like("ci.note", "uncredited"),
             gt("t.production_year", 2000)],
        ],
    },
    {   # 11: keywords + companies (fact-fact through title)
        "relations": {"t": "title", "mk": "movie_keyword", "k": "keyword",
                      "mc": "movie_companies", "cn": "company_name",
                      "ct": "company_type"},
        "joins": [("mk.movie_id", "t.id"), ("mk.keyword_id", "k.id"),
                  ("mc.movie_id", "t.id"), ("mc.company_id", "cn.id"),
                  ("mc.company_type_id", "ct.id")],
        "outputs": ["cn.name", "t.title"],
        "variants": [
            [eq("k.keyword", "sequel"), eq("cn.country_code", "[de]"),
             eq("ct.kind", "production companies")],
            [isin("k.keyword", ("superhero", "revenge")),
             eq("cn.country_code", "[us]")],
            [prefix("k.keyword", "kw_0"), eq("ct.kind", "distributors"),
             gt("t.production_year", 2012)],
        ],
    },
    {   # 12: info + rating + companies
        "relations": {"t": "title", "mi": "movie_info", "it1": "info_type",
                      "mi_idx": "movie_info_idx", "it2": "info_type",
                      "mc": "movie_companies", "cn": "company_name"},
        "joins": [("mi.movie_id", "t.id"), ("mi.info_type_id", "it1.id"),
                  ("mi_idx.movie_id", "t.id"), ("mi_idx.info_type_id", "it2.id"),
                  ("mc.movie_id", "t.id"), ("mc.company_id", "cn.id")],
        "outputs": ["t.title", "mi_idx.info"],
        "variants": [
            [eq("it1.info", "genres"), eq("mi.info", "Drama"),
             eq("it2.info", "rating"), gt("mi_idx.info", "7.0"),
             eq("cn.country_code", "[us]")],
            [eq("it1.info", "genres"), eq("mi.info", "Horror"),
             eq("it2.info", "rating"), eq("cn.country_code", "[gb]")],
            [eq("it1.info", "languages"), eq("it2.info", "votes"),
             gt("t.production_year", 2008), eq("cn.country_code", "[us]")],
        ],
    },
    {   # 13: kind + info + rating
        "relations": {"t": "title", "kt": "kind_type", "mi": "movie_info",
                      "it1": "info_type", "mi_idx": "movie_info_idx",
                      "it2": "info_type"},
        "joins": [("t.kind_id", "kt.id"), ("mi.movie_id", "t.id"),
                  ("mi.info_type_id", "it1.id"), ("mi_idx.movie_id", "t.id"),
                  ("mi_idx.info_type_id", "it2.id")],
        "outputs": ["t.title", "mi.info"],
        "variants": [
            [eq("kt.kind", "movie"), eq("it1.info", "genres"),
             eq("it2.info", "rating"), gt("mi_idx.info", "8.0")],
            [eq("kt.kind", "tv series"), eq("it1.info", "release dates"),
             eq("it2.info", "votes")],
            [eq("kt.kind", "movie"), eq("it1.info", "genres"),
             eq("mi.info", "Comedy"), eq("it2.info", "rating"),
             between("t.production_year", 2000, 2015)],
        ],
    },
    {   # 14: cast + keyword + kind (6 relations, two fact tables)
        "relations": {"t": "title", "kt": "kind_type", "mk": "movie_keyword",
                      "k": "keyword", "ci": "cast_info", "n": "name"},
        "joins": [("t.kind_id", "kt.id"), ("mk.movie_id", "t.id"),
                  ("mk.keyword_id", "k.id"), ("ci.movie_id", "t.id"),
                  ("ci.person_id", "n.id")],
        "outputs": ["t.title", "n.name"],
        "variants": [
            [eq("kt.kind", "movie"), eq("k.keyword", "murder"),
             eq("n.gender", "m"), gt("t.production_year", 2005)],
            [eq("kt.kind", "movie"), isin("k.keyword", ("love", "revenge")),
             eq("n.gender", "f")],
            [eq("kt.kind", "tv series"), prefix("k.keyword", "kw_001"),
             gt("t.production_year", 2010)],
        ],
    },
    {   # 15: the paper's 15c-style shape (two 4-relation halves sharing t)
        "relations": {"t": "title", "ci": "cast_info", "rt": "role_type",
                      "chn": "char_name", "mc": "movie_companies",
                      "cn": "company_name", "ct": "company_type"},
        "joins": [("ci.movie_id", "t.id"), ("ci.role_id", "rt.id"),
                  ("ci.person_role_id", "chn.id"), ("mc.movie_id", "t.id"),
                  ("mc.company_id", "cn.id"), ("mc.company_type_id", "ct.id")],
        "outputs": ["chn.name", "cn.name", "t.title"],
        "variants": [
            [eq("rt.role", "actor"), eq("cn.country_code", "[us]"),
             eq("ct.kind", "production companies"), gt("t.production_year", 2010)],
            [eq("rt.role", "actress"), eq("ct.kind", "distributors"),
             like("chn.name", "character_000")],
            [eq("rt.role", "director"), eq("cn.country_code", "[fr]"),
             eq("ct.kind", "production companies")],
        ],
    },
    {   # 16: person-centric with keywords
        "relations": {"t": "title", "ci": "cast_info", "n": "name",
                      "an": "aka_name", "mk": "movie_keyword", "k": "keyword"},
        "joins": [("ci.movie_id", "t.id"), ("ci.person_id", "n.id"),
                  ("an.person_id", "n.id"), ("mk.movie_id", "t.id"),
                  ("mk.keyword_id", "k.id")],
        "outputs": ["an.name", "t.title"],
        "variants": [
            [eq("k.keyword", "superhero"), eq("n.gender", "m")],
            [eq("k.keyword", "based-on-novel"), gt("t.production_year", 2000)],
            [prefix("k.keyword", "kw_000"), eq("n.gender", "f"),
             gt("t.production_year", 1995)],
        ],
    },
    {   # 17: big inverse star: cast + keyword + companies (8 relations)
        "relations": {"t": "title", "ci": "cast_info", "n": "name",
                      "mk": "movie_keyword", "k": "keyword",
                      "mc": "movie_companies", "cn": "company_name",
                      "ct": "company_type"},
        "joins": [("ci.movie_id", "t.id"), ("ci.person_id", "n.id"),
                  ("mk.movie_id", "t.id"), ("mk.keyword_id", "k.id"),
                  ("mc.movie_id", "t.id"), ("mc.company_id", "cn.id"),
                  ("mc.company_type_id", "ct.id")],
        "outputs": ["n.name", "t.title"],
        "variants": [
            [eq("k.keyword", "sequel"), eq("cn.country_code", "[us]"),
             eq("ct.kind", "production companies"), eq("n.gender", "m"),
             gt("t.production_year", 2010)],
            [eq("k.keyword", "murder"), eq("cn.country_code", "[gb]"),
             eq("ct.kind", "distributors")],
            [isin("k.keyword", ("superhero", "sequel")),
             eq("cn.country_code", "[us]"), like("ci.note", "producer")],
        ],
    },
    {   # 18: info + cast
        "relations": {"t": "title", "mi": "movie_info", "it": "info_type",
                      "ci": "cast_info", "n": "name"},
        "joins": [("mi.movie_id", "t.id"), ("mi.info_type_id", "it.id"),
                  ("ci.movie_id", "t.id"), ("ci.person_id", "n.id")],
        "outputs": ["t.title", "n.name"],
        "variants": [
            [eq("it.info", "genres"), eq("mi.info", "Action"), eq("n.gender", "m")],
            [eq("it.info", "budget"), gt("t.production_year", 2005),
             eq("n.gender", "f")],
            [eq("it.info", "genres"), isin("mi.info", ("Drama", "Romance")),
             like("ci.note", "voice")],
        ],
    },
    {   # 19: voice actors in US productions
        "relations": {"t": "title", "ci": "cast_info", "n": "name",
                      "rt": "role_type", "chn": "char_name",
                      "mc": "movie_companies", "cn": "company_name"},
        "joins": [("ci.movie_id", "t.id"), ("ci.person_id", "n.id"),
                  ("ci.role_id", "rt.id"), ("ci.person_role_id", "chn.id"),
                  ("mc.movie_id", "t.id"), ("mc.company_id", "cn.id")],
        "outputs": ["n.name", "t.title"],
        "variants": [
            [like("ci.note", "voice"), eq("cn.country_code", "[us]"),
             eq("rt.role", "actress"), gt("t.production_year", 2005)],
            [like("ci.note", "voice"), eq("rt.role", "actor"),
             eq("cn.country_code", "[jp]")],
            [eq("rt.role", "composer"), eq("cn.country_code", "[us]"),
             between("t.production_year", 1990, 2010)],
        ],
    },
    {   # 20: keyword + character (deep chain)
        "relations": {"t": "title", "kt": "kind_type", "mk": "movie_keyword",
                      "k": "keyword", "ci": "cast_info", "chn": "char_name"},
        "joins": [("t.kind_id", "kt.id"), ("mk.movie_id", "t.id"),
                  ("mk.keyword_id", "k.id"), ("ci.movie_id", "t.id"),
                  ("ci.person_role_id", "chn.id")],
        "outputs": ["chn.name", "t.title"],
        "variants": [
            [eq("kt.kind", "movie"), eq("k.keyword", "superhero"),
             prefix("chn.name", "character_00")],
            [eq("kt.kind", "movie"), eq("k.keyword", "sequel"),
             gt("t.production_year", 2012)],
            [eq("kt.kind", "tv movie"), prefix("k.keyword", "kw_00")],
        ],
    },
    {   # 21: movie links (self-referencing title)
        "relations": {"t": "title", "ml": "movie_link", "lt": "link_type",
                      "t2": "title"},
        "joins": [("ml.movie_id", "t.id"), ("ml.link_type_id", "lt.id"),
                  ("ml.linked_movie_id", "t2.id")],
        "outputs": ["t.title", "t2.title"],
        "variants": [
            [eq("lt.link", "follows"), gt("t.production_year", 2000)],
            [eq("lt.link", "features"), gt("t.production_year", 2005),
             gt("t2.production_year", 2005)],
        ],
    },
    {   # 22: links + keywords
        "relations": {"t": "title", "ml": "movie_link", "lt": "link_type",
                      "t2": "title", "mk": "movie_keyword", "k": "keyword"},
        "joins": [("ml.movie_id", "t.id"), ("ml.link_type_id", "lt.id"),
                  ("ml.linked_movie_id", "t2.id"), ("mk.movie_id", "t.id"),
                  ("mk.keyword_id", "k.id")],
        "outputs": ["t.title", "t2.title"],
        "variants": [
            [eq("lt.link", "follows"), eq("k.keyword", "sequel")],
            [eq("lt.link", "followed by"), eq("k.keyword", "superhero"),
             gt("t.production_year", 2008)],
        ],
    },
    {   # 23: full cast + info + company (9 relations)
        "relations": {"t": "title", "kt": "kind_type", "ci": "cast_info",
                      "n": "name", "rt": "role_type", "mc": "movie_companies",
                      "cn": "company_name", "mi": "movie_info",
                      "it": "info_type"},
        "joins": [("t.kind_id", "kt.id"), ("ci.movie_id", "t.id"),
                  ("ci.person_id", "n.id"), ("ci.role_id", "rt.id"),
                  ("mc.movie_id", "t.id"), ("mc.company_id", "cn.id"),
                  ("mi.movie_id", "t.id"), ("mi.info_type_id", "it.id")],
        "outputs": ["n.name", "t.title"],
        "variants": [
            [eq("kt.kind", "movie"), eq("rt.role", "actor"),
             eq("cn.country_code", "[us]"), eq("it.info", "genres"),
             eq("mi.info", "Action"), gt("t.production_year", 2010)],
            [eq("kt.kind", "movie"), eq("rt.role", "producer"),
             eq("cn.country_code", "[fr]"), eq("it.info", "languages")],
            [eq("kt.kind", "tv series"), eq("rt.role", "actress"),
             eq("it.info", "genres"), eq("mi.info", "Drama"),
             eq("cn.country_code", "[us]")],
        ],
    },
    {   # 24: keyword + rating + cast (8 relations)
        "relations": {"t": "title", "mk": "movie_keyword", "k": "keyword",
                      "mi_idx": "movie_info_idx", "it2": "info_type",
                      "ci": "cast_info", "n": "name", "rt": "role_type"},
        "joins": [("mk.movie_id", "t.id"), ("mk.keyword_id", "k.id"),
                  ("mi_idx.movie_id", "t.id"), ("mi_idx.info_type_id", "it2.id"),
                  ("ci.movie_id", "t.id"), ("ci.person_id", "n.id"),
                  ("ci.role_id", "rt.id")],
        "outputs": ["n.name", "t.title"],
        "variants": [
            [eq("k.keyword", "superhero"), eq("it2.info", "rating"),
             gt("mi_idx.info", "7.0"), eq("rt.role", "actor")],
            [eq("k.keyword", "murder"), eq("it2.info", "votes"),
             eq("rt.role", "actress"), gt("t.production_year", 2005)],
            [isin("k.keyword", ("sequel", "revenge")), eq("it2.info", "rating"),
             eq("rt.role", "writer")],
        ],
    },
    {   # 25: gender-balanced casts in genre movies
        "relations": {"t": "title", "ci": "cast_info", "n": "name",
                      "mi": "movie_info", "it": "info_type", "kt": "kind_type"},
        "joins": [("ci.movie_id", "t.id"), ("ci.person_id", "n.id"),
                  ("mi.movie_id", "t.id"), ("mi.info_type_id", "it.id"),
                  ("t.kind_id", "kt.id")],
        "outputs": ["n.name", "t.title", "mi.info"],
        "variants": [
            [eq("it.info", "genres"), eq("mi.info", "Horror"), eq("n.gender", "f"),
             eq("kt.kind", "movie")],
            [eq("it.info", "genres"), eq("mi.info", "Comedy"), eq("n.gender", "m"),
             gt("t.production_year", 2000)],
        ],
    },
    {   # 26: characters in high-rated franchise movies (9 relations)
        "relations": {"t": "title", "kt": "kind_type", "ci": "cast_info",
                      "chn": "char_name", "n": "name", "mk": "movie_keyword",
                      "k": "keyword", "mi_idx": "movie_info_idx",
                      "it2": "info_type"},
        "joins": [("t.kind_id", "kt.id"), ("ci.movie_id", "t.id"),
                  ("ci.person_role_id", "chn.id"), ("ci.person_id", "n.id"),
                  ("mk.movie_id", "t.id"), ("mk.keyword_id", "k.id"),
                  ("mi_idx.movie_id", "t.id"), ("mi_idx.info_type_id", "it2.id")],
        "outputs": ["chn.name", "n.name", "t.title"],
        "variants": [
            [eq("kt.kind", "movie"), eq("k.keyword", "superhero"),
             eq("it2.info", "rating"), gt("mi_idx.info", "7.5"),
             eq("n.gender", "m")],
            [eq("kt.kind", "movie"), eq("k.keyword", "sequel"),
             eq("it2.info", "rating"), gt("mi_idx.info", "6.0")],
            [eq("kt.kind", "movie"), isin("k.keyword", ("blood", "murder")),
             eq("it2.info", "votes"), gt("t.production_year", 2000)],
        ],
    },
    {   # 27: company co-productions with links
        "relations": {"t": "title", "ml": "movie_link", "lt": "link_type",
                      "mc": "movie_companies", "cn": "company_name",
                      "ct": "company_type"},
        "joins": [("ml.movie_id", "t.id"), ("ml.link_type_id", "lt.id"),
                  ("mc.movie_id", "t.id"), ("mc.company_id", "cn.id"),
                  ("mc.company_type_id", "ct.id")],
        "outputs": ["cn.name", "t.title"],
        "variants": [
            [eq("lt.link", "follows"), eq("cn.country_code", "[us]"),
             eq("ct.kind", "production companies")],
            [eq("lt.link", "features"), eq("ct.kind", "distributors"),
             gt("t.production_year", 2000)],
        ],
    },
    {   # 28: everything on title (10 relations)
        "relations": {"t": "title", "kt": "kind_type", "mk": "movie_keyword",
                      "k": "keyword", "mc": "movie_companies",
                      "cn": "company_name", "ct": "company_type",
                      "mi": "movie_info", "it": "info_type", "ci": "cast_info"},
        "joins": [("t.kind_id", "kt.id"), ("mk.movie_id", "t.id"),
                  ("mk.keyword_id", "k.id"), ("mc.movie_id", "t.id"),
                  ("mc.company_id", "cn.id"), ("mc.company_type_id", "ct.id"),
                  ("mi.movie_id", "t.id"), ("mi.info_type_id", "it.id"),
                  ("ci.movie_id", "t.id")],
        "outputs": ["t.title", "cn.name"],
        "variants": [
            [eq("kt.kind", "movie"), eq("k.keyword", "sequel"),
             eq("cn.country_code", "[us]"), eq("ct.kind", "production companies"),
             eq("it.info", "genres"), eq("mi.info", "Action"),
             gt("t.production_year", 2010)],
            [eq("kt.kind", "movie"), eq("k.keyword", "murder"),
             eq("ct.kind", "distributors"), eq("it.info", "languages"),
             eq("cn.country_code", "[gb]")],
            [eq("kt.kind", "movie"), isin("k.keyword", ("superhero", "sequel")),
             eq("cn.country_code", "[us]"), eq("it.info", "genres"),
             like("ci.note", "voice"), gt("t.production_year", 2005)],
        ],
    },
    {   # 29: aka names of voice actresses in US animations (large, selective)
        "relations": {"t": "title", "ci": "cast_info", "n": "name",
                      "an": "aka_name", "rt": "role_type", "chn": "char_name",
                      "mc": "movie_companies", "cn": "company_name"},
        "joins": [("ci.movie_id", "t.id"), ("ci.person_id", "n.id"),
                  ("an.person_id", "n.id"), ("ci.role_id", "rt.id"),
                  ("ci.person_role_id", "chn.id"), ("mc.movie_id", "t.id"),
                  ("mc.company_id", "cn.id")],
        "outputs": ["an.name", "chn.name", "t.title"],
        "variants": [
            [eq("rt.role", "actress"), like("ci.note", "voice"),
             eq("cn.country_code", "[us]"), eq("n.gender", "f"),
             gt("t.production_year", 2005)],
            [eq("rt.role", "actor"), like("ci.note", "voice"),
             eq("cn.country_code", "[jp]")],
            [eq("rt.role", "actress"), eq("cn.country_code", "[us]"),
             between("t.production_year", 1990, 2005)],
        ],
    },
    {   # 30: violent-keyword movies and their writers
        "relations": {"t": "title", "mk": "movie_keyword", "k": "keyword",
                      "ci": "cast_info", "n": "name", "rt": "role_type",
                      "mi": "movie_info", "it": "info_type"},
        "joins": [("mk.movie_id", "t.id"), ("mk.keyword_id", "k.id"),
                  ("ci.movie_id", "t.id"), ("ci.person_id", "n.id"),
                  ("ci.role_id", "rt.id"), ("mi.movie_id", "t.id"),
                  ("mi.info_type_id", "it.id")],
        "outputs": ["n.name", "t.title"],
        "variants": [
            [isin("k.keyword", ("murder", "blood", "revenge")),
             eq("rt.role", "writer"), eq("it.info", "genres"),
             isin("mi.info", ("Horror", "Thriller"))],
            [eq("k.keyword", "murder"), eq("rt.role", "director"),
             eq("it.info", "genres"), eq("mi.info", "Crime"),
             gt("t.production_year", 2000)],
            [eq("k.keyword", "revenge"), eq("rt.role", "actor"),
             eq("it.info", "genres"), gt("t.production_year", 1995)],
        ],
    },
    {   # 31: ratings of franchise movies from big studios (10 relations)
        "relations": {"t": "title", "kt": "kind_type", "mk": "movie_keyword",
                      "k": "keyword", "mi_idx": "movie_info_idx",
                      "it2": "info_type", "mc": "movie_companies",
                      "cn": "company_name", "ci": "cast_info", "n": "name"},
        "joins": [("t.kind_id", "kt.id"), ("mk.movie_id", "t.id"),
                  ("mk.keyword_id", "k.id"), ("mi_idx.movie_id", "t.id"),
                  ("mi_idx.info_type_id", "it2.id"), ("mc.movie_id", "t.id"),
                  ("mc.company_id", "cn.id"), ("ci.movie_id", "t.id"),
                  ("ci.person_id", "n.id")],
        "outputs": ["t.title", "mi_idx.info", "n.name"],
        "variants": [
            [eq("kt.kind", "movie"), eq("k.keyword", "sequel"),
             eq("it2.info", "rating"), gt("mi_idx.info", "6.5"),
             eq("cn.country_code", "[us]"), eq("n.gender", "m"),
             gt("t.production_year", 2008)],
            [eq("kt.kind", "movie"), eq("k.keyword", "superhero"),
             eq("it2.info", "votes"), eq("cn.country_code", "[us]")],
            [eq("kt.kind", "movie"), prefix("k.keyword", "kw_00"),
             eq("it2.info", "rating"), eq("cn.country_code", "[gb]"),
             eq("n.gender", "f")],
        ],
    },
]

_VARIANT_LETTERS = "abcdefgh"


#: The valid ``families`` numbers (1..len(_FAMILIES)); the experiment
#: registry shards parallel runs across this universe.
JOB_FAMILY_NUMBERS: tuple[int, ...] = tuple(range(1, len(_FAMILIES) + 1))


def job_queries(families: list[int] | None = None) -> list[Query]:
    """Build the JOB-style query catalogue.

    Parameters
    ----------
    families:
        Optional list of family numbers (1-based) to restrict to; by default
        all 91 queries are returned.
    """
    queries: list[Query] = []
    for number, family in enumerate(_FAMILIES, start=1):
        if families is not None and number not in families:
            continue
        for variant_index, filters in enumerate(family["variants"]):
            name = f"{number}{_VARIANT_LETTERS[variant_index]}"
            spj = build_spj(
                name=name,
                relations=family["relations"],
                joins=family["joins"],
                filters=filters,
                min_outputs=family["outputs"],
            )
            queries.append(Query.from_spj(spj, family=number))
    return queries

