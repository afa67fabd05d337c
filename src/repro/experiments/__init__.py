"""Experiment modules: one per table / figure of the paper's evaluation.

Each module exposes a ``run(...)`` function that executes the experiment on
the synthetic workloads and returns an
:class:`~repro.bench.artifacts.ExperimentResult`: the experiment-specific
data (``result.data``, the shape tests assert on), the flattened per-query
workload results, a JSON-safe summary, and the pre-rendered ASCII
reproduction of the paper artifact (printed when ``verbose=True``).  Every
``run`` takes a ``scale`` and (where applicable) a ``families`` restriction
so the full study can be executed in minutes on a laptop or expanded for
higher fidelity.

Every module registers itself with :mod:`repro.experiments.registry`,
whose decorator fills in each result's name, artifact and ``params`` from
the call; ``python -m repro.cli run`` executes experiments in parallel and
persists their results as JSON artifacts (see EXPERIMENTS.md).
``python -m repro.cli list`` prints every registered module with the
paper artifact it reproduces.

See EXPERIMENTS.md for the timing-accounting rules shared by every module,
the CLI runner, and the persisted artifact schema.
"""
