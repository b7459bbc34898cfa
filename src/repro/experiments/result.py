"""The unified experiment result: one shape for every experiment.

Every ``run_*`` entry point used to return its own dataclass with its
own field list; the harness (:mod:`repro.harness`) needs one record
shape it can hash, store and compare byte-for-byte.  This module
defines that shape:

* :class:`ExperimentResult` — ``name`` / ``params`` / ``seed`` /
  ``metrics`` / ``figures``, with ``to_json()`` / ``from_json()``
  producing canonical (sorted, compact) JSON;
* per-app subclasses (``AudioExperimentResult`` & co., defined next to
  their experiments) that add only domain helpers (``goodput``,
  ``dominant_quality_between``, ...) and the rehydration of their
  figure types.  What an experiment was asked to do is read from
  ``result.params[...]``, what it measured from
  ``result.figures[...]``; there is no other attribute surface.

Determinism is part of the contract: ``record()`` is byte-identical
for identical (code, params, seed), which is what lets the parallel
runner assert serial/parallel equivalence and lets the cache skip
re-runs.  Two kinds of values are excluded from it:

* **volatile figures** — wall-clock measurements (JIT codegen times,
  microbenchmark elapsed) named in ``_VOLATILE_FIGURES``; they travel
  next to the record (``volatile()``) rather than inside it;
* **nondeterministic metrics** — the ``global.`` process scope (shared
  across runs in one process, reset in another) and the duration
  statistics of ``*_ms`` timer histograms (their ``.count`` is an
  event count and stays); :func:`deterministic_metrics` strips them.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass, field
from typing import Any, ClassVar


#: histogram statistics of a ``*_ms`` timer that hold wall-clock
#: durations (``.count`` is an event count and stays deterministic)
_TIMER_STATS = ("sum", "min", "max", "mean")


def _is_wall_clock(key: str) -> bool:
    """True for wall-clock timer values: a bare ``*_ms`` scalar or a
    ``*_ms`` histogram's duration statistics.  ``*_ms.count`` (how many
    spans ran — an event count) and names that merely contain ``_ms``
    (``dropped_msgs``) are deterministic and kept."""
    if key.endswith("_ms"):
        return True
    prefix, _, stat = key.rpartition(".")
    return stat in _TIMER_STATS and prefix.endswith("_ms")


def _is_batch_telemetry(key: str) -> bool:
    """True for tier-3 batching counters: how packets *grouped* into
    batches is an execution-strategy detail (it depends on the
    batch-size flag, not on what the experiment computed), so these
    keys stay out of the canonical record — that is what keeps records
    byte-identical with batching on vs off."""
    return (key.endswith(".fastpath_batches")
            or key.endswith(".batched_packets")
            or ".batch_size" in key)


def _is_shard_telemetry(key: str) -> bool:
    """True for sharded-execution telemetry: how events *scheduled*
    across segment simulators (per-segment ``sim.<net>.<segment>.*``
    scopes, whose very presence depends on ``shard_segments``) and the
    physical state of each heap's lazy-deletion machinery
    (``heap_size`` / ``cancelled_pending``, which depend on per-queue
    compaction thresholds) are execution-strategy details — excluding
    them is what keeps records byte-identical sharded vs serial, the
    same rule PR 6 applied to batch-grouping telemetry."""
    if key.endswith(".heap_size") or key.endswith(".cancelled_pending"):
        return True
    if not key.startswith("sim"):
        return False
    scope, _, _ = key.rpartition(".")
    # sim.<net>.<segment>.<field> — a per-segment simulator scope
    parts = scope.split(".")
    return len(parts) >= 3 and parts[-1].isdigit()


def deterministic_metrics(metrics: dict[str, Any]) -> dict[str, Any]:
    """The subset of a ``metrics_snapshot()`` that is a pure function
    of (code, params, seed): drops the process-wide ``global.`` scope
    (it accumulates across runs sharing a process), the wall-clock
    values of ``*_ms`` timer histograms (their ``.count`` stays), and
    the tier-3 batch-grouping / sharded-execution telemetry."""
    return {key: value for key, value in sorted(metrics.items())
            if not key.startswith("global.")
            and not _is_wall_clock(key)
            and not _is_batch_telemetry(key)
            and not _is_shard_telemetry(key)}


def jsonify(value: Any) -> Any:
    """Recursively convert a figures payload to plain JSON types.

    Dataclasses become dicts, enums their values, tuples/sets lists,
    non-string dict keys strings, and anything else falls back to
    ``str`` — deterministically, so equal payloads yield equal JSON.
    """
    if isinstance(value, enum.Enum):
        return jsonify(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonify(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class ExperimentResult:
    """One experiment run: what ran (``name``, ``params``, ``seed``),
    what it measured (``figures``), and how the network behaved while
    it did (``metrics``, a full ``metrics_snapshot()``)."""

    name: str = ""
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)
    figures: dict[str, Any] = field(default_factory=dict)

    #: registry key of the experiment that produced this result
    _EXPERIMENT: ClassVar[str] = ""
    #: figure keys holding wall-clock values, kept out of ``record()``
    _VOLATILE_FIGURES: ClassVar[tuple[str, ...]] = ()

    # -- canonical serialization ------------------------------------------------

    @property
    def experiment(self) -> str:
        return self._EXPERIMENT or self.name

    def record(self) -> dict[str, Any]:
        """The canonical, deterministic form: byte-identical for equal
        (code, params, seed), whichever worker produced it."""
        return {
            "name": self.name,
            "experiment": self.experiment,
            "params": jsonify(self.params),
            "seed": self.seed,
            "metrics": deterministic_metrics(self.metrics),
            "figures": {key: jsonify(value)
                        for key, value in self.figures.items()
                        if key not in self._VOLATILE_FIGURES},
        }

    def volatile(self) -> dict[str, Any]:
        """Wall-clock figures (codegen times, benchmark elapsed) — real
        measurements, but not comparable across runs, so they ride
        beside the record instead of inside it."""
        return {key: jsonify(self.figures[key])
                for key in self._VOLATILE_FIGURES
                if key in self.figures}

    def to_json(self) -> str:
        return json.dumps(self.record(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_record(cls, record: dict[str, Any],
                    volatile: dict[str, Any] | None = None,
                    ) -> "ExperimentResult":
        """Rebuild a result from its stored form.  Subclasses rehydrate
        their domain objects (samples, rows) so the domain helper
        methods work on loaded results."""
        result = cls.__new__(cls)
        figures = dict(record.get("figures", {}))
        if volatile:
            figures.update(volatile)
        ExperimentResult.__init__(
            result, name=record.get("name", ""),
            params=dict(record.get("params", {})),
            seed=record.get("seed", 0),
            metrics=dict(record.get("metrics", {})),
            figures=figures)
        result._rehydrate()
        return result

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_record(json.loads(text))

    def _rehydrate(self) -> None:
        """Hook for subclasses: convert jsonified figures back to their
        in-memory types after :meth:`from_record`."""

