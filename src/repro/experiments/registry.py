"""Decorator-based experiment registry.

Every experiment module registers its ``run()`` function with the
:func:`experiment` decorator, declaring the paper artifact it reproduces
and — when the experiment is embarrassingly parallel over a query-family
knob — which parameter the CLI runner may shard across worker processes.

The decorator also builds each result's envelope, so a ``run()`` body
returns only its ``data``, ``workloads``, summary extras and ``tables``:
the call is bound to ``run()``'s signature (its defaults are the only
defaults), the bound arguments become the result's ``params``, the
summary gains the per-key aggregates of the workloads, and
``verbose=True`` prints the rendered tables.

The registry is what makes ``python -m repro.cli list / run / report``
(:mod:`repro.cli`) possible without hand-maintained experiment lists:
:func:`load_all` imports every module under :mod:`repro.experiments` once,
the decorators populate :data:`REGISTRY` as a side effect, and
``tools/check_docs.py`` cross-checks the registry against EXPERIMENTS.md.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.bench.artifacts import base_summary, jsonify

#: Registered experiments, keyed by name (== the module's basename).
REGISTRY: dict[str, "ExperimentSpec"] = {}


@dataclass(frozen=True)
class ExperimentSpec:
    """Registration record of one experiment module."""

    #: Registry name; by convention the module basename (``figure11_job``).
    name: str
    #: Paper artifact the experiment reproduces (``"Figure 11 (...)"``).
    artifact: str
    #: Fully qualified module the ``run()`` lives in.
    module: str
    #: The experiment's ``run()`` function (returns an ``ExperimentResult``).
    runner: Callable[..., Any]
    #: Name of the list-valued parameter the CLI may shard across worker
    #: processes (``"families"``), or ``None`` when the experiment must run
    #: as a single unit (its summary is not reconstructible from merged
    #: per-query records).
    shard_param: str | None = None
    #: Full universe of shard values, which ``None`` for the shard
    #: parameter stands for.
    shard_universe: tuple[Any, ...] | None = None

    def shard_values(self, requested: Sequence[Any] | None) -> list[Any]:
        """The shard values a run covers, sorted (``None`` = the universe)."""
        return sorted(self.shard_universe if requested is None else requested)

    def bind(self, *args: Any, **kwargs: Any) -> inspect.BoundArguments:
        """Bind a call to ``run()``'s signature, its defaults applied."""
        call = inspect.signature(self.runner).bind(*args, **kwargs)
        call.apply_defaults()
        return call

    def params(self, call: inspect.BoundArguments) -> dict[str, Any]:
        """The JSON ``params`` of a bound call: every argument but
        ``verbose``, with the shard parameter holding the values run."""
        params = {key: value for key, value in call.arguments.items()
                  if key != "verbose"}
        if self.shard_param is not None:
            params[self.shard_param] = self.shard_values(params[self.shard_param])
        return jsonify(params)


def experiment(*, artifact: str, shard_param: str | None = None,
               shard_universe: Sequence[Any] | None = None,
               name: str | None = None) -> Callable:
    """Register the decorated ``run()`` function as an experiment."""
    def decorate(body: Callable) -> Callable:
        @functools.wraps(body)
        def run(*args: Any, **kwargs: Any):
            call = spec.bind(*args, **kwargs)
            result = body(*call.args, **call.kwargs)
            summary = result.summary
            if result.workloads:
                summary = {**base_summary(result.workloads), **summary}
            result = replace(result, name=spec.name, artifact=spec.artifact,
                             params=spec.params(call), summary=summary)
            if call.arguments.get("verbose"):
                print(result.render())
            return result

        experiment_name = name or body.__module__.rsplit(".", 1)[-1]
        spec = ExperimentSpec(
            name=experiment_name,
            artifact=artifact,
            module=body.__module__,
            runner=run,
            shard_param=shard_param,
            shard_universe=tuple(shard_universe) if shard_universe else None,
        )
        REGISTRY[experiment_name] = spec
        return run
    return decorate


def load_all() -> dict[str, ExperimentSpec]:
    """Import every experiment module and return the populated registry."""
    package = importlib.import_module("repro.experiments")
    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_") or info.name == "registry":
            continue
        importlib.import_module(f"repro.experiments.{info.name}")
    return dict(REGISTRY)


def get(name: str) -> ExperimentSpec:
    """Look up one experiment, loading the registry on first use."""
    if name not in REGISTRY:
        load_all()
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY)) or "<none>"
        raise KeyError(f"unknown experiment {name!r}; registered: {known}")
    return REGISTRY[name]
