"""The experiment registry: one ``run(scenario)`` for every experiment.

Each entry wraps one of the repo's ``run_*`` entry points behind the
uniform shape ``fn(*, seed, **params) -> ExperimentResult``, and names
the result class used to rehydrate stored records (so report code gets
back objects with the domain helper methods, not bare dicts).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable

from ..experiments.result import ExperimentResult
from ..obs import Observability
from .scenario import Scenario


@dataclass(frozen=True)
class RegisteredExperiment:
    name: str
    fn: Callable[..., ExperimentResult]
    result_cls: type[ExperimentResult]
    description: str


_REGISTRY: dict[str, RegisteredExperiment] = {}


def register(name: str, *, result_cls: type[ExperimentResult],
             description: str = "") -> Callable:
    def decorate(fn: Callable[..., ExperimentResult]) -> Callable:
        _REGISTRY[name] = RegisteredExperiment(
            name=name, fn=fn, result_cls=result_cls,
            description=description)
        return fn
    return decorate


def get(name: str) -> RegisteredExperiment:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; registered: "
                       f"{sorted(_REGISTRY)}") from None


def names() -> list[str]:
    return sorted(_REGISTRY)


def run(scenario: Scenario, *,
        obs: Observability | None = None) -> ExperimentResult:
    """Run one scenario and stamp the result with its identity.

    ``obs`` goes to entry points that take an observability scope, so
    a caller can read the run's event log; the others ignore it."""
    reg = get(scenario.experiment)
    params = dict(scenario.params)
    if obs is not None and "obs" in inspect.signature(reg.fn).parameters:
        params["obs"] = obs
    result = reg.fn(seed=scenario.seed, **params)
    result.name = scenario.name
    result.seed = scenario.seed
    result.params = {**result.params, **scenario.params}
    return result


def rehydrate(line: dict[str, Any]) -> ExperimentResult:
    """Rebuild a result object from one stored line (record +
    volatile), using the experiment's result class."""
    record = line["record"]
    cls = get(record["experiment"]).result_cls
    return cls.from_record(record, volatile=line.get("volatile"))


# ---------------------------------------------------------------------------
# Registered experiments (every run_* entry point in the repo)
# ---------------------------------------------------------------------------


def _register_all() -> None:
    from ..apps.audio.experiment import (AudioExperimentResult,
                                         GapSweepResult,
                                         run_audio_experiment,
                                         run_gap_sweep)
    from ..apps.http.experiment import (Fig8SweepResult,
                                        HttpExperimentResult,
                                        run_fig8_sweep,
                                        run_http_experiment)
    from ..apps.images.service import (ImageExperimentResult,
                                       run_image_experiment)
    from ..apps.mpeg.experiment import (MpegExperimentResult,
                                        run_mpeg_experiment)
    from ..experiments.chaos import ChaosResult, run_chaos_experiment
    from ..experiments.upgrade import (UpgradeResult,
                                       run_upgrade_experiment)
    from ..experiments.fig3 import Fig3Result, fig3_codegen_table
    from ..experiments.microbench import (MicrobenchResult,
                                          run_engine_microbench)
    from ..experiments.scale import ScaleResult, run_scale_experiment
    from ..experiments.web import WebResult, run_web_experiment

    register("audio", result_cls=AudioExperimentResult,
             description="figure 5/6 audio adaptation run"
             )(run_audio_experiment)

    @register("audio_gap_sweep", result_cls=GapSweepResult,
              description="figure 7 silent-period sweep over loads")
    def _gap(*, seed: int, load_levels_bps: list[float],
             **params) -> ExperimentResult:
        sweep = run_gap_sweep(load_levels_bps=load_levels_bps,
                              seed=seed, **params)
        return GapSweepResult(
            name="audio_gap_sweep", seed=seed,
            figures={"sweep": {str(load): counts
                               for load, counts in sweep.items()}})

    register("http", result_cls=HttpExperimentResult,
             description="one figure 8 HTTP cluster configuration"
             )(run_http_experiment)

    @register("http_fig8_sweep", result_cls=Fig8SweepResult,
              description="figure 8 throughput-vs-load sweep per mode")
    def _fig8(*, seed: int, client_counts: list[int],
              modes: list[str] = ("single", "asp", "builtin"),
              **params) -> ExperimentResult:
        curves = run_fig8_sweep(client_counts=client_counts,
                                modes=tuple(modes), seed=seed, **params)
        return Fig8SweepResult(
            name="http_fig8_sweep", seed=seed,
            figures={"curves": {
                mode: [{"n_clients": r.params["n_clients"],
                        "throughput_rps": r.figures["throughput_rps"],
                        "mean_latency_s": r.figures["mean_latency_s"],
                        "balance_ratio": r.balance_ratio,
                        "completed": r.figures["completed"],
                        "failures": r.figures["failures"]}
                       for r in results]
                for mode, results in curves.items()}})

    register("mpeg", result_cls=MpegExperimentResult,
             description="§3.3 point-to-point→multipoint MPEG run"
             )(run_mpeg_experiment)

    register("images", result_cls=ImageExperimentResult,
             description="§5 image distillation over a slow link"
             )(run_image_experiment)

    @register("fig3", result_cls=Fig3Result,
              description="figure 3 codegen-time table for the ASPs")
    def _fig3(*, seed: int, backends: list[str] = ("closure", "source"),
              repeats: int = 5) -> ExperimentResult:
        rows = fig3_codegen_table(backends=tuple(backends),
                                  repeats=repeats)
        return Fig3Result(name="fig3", seed=seed, figures={"rows": rows})

    register("microbench", result_cls=MicrobenchResult,
             description="§2.4 engine microbenchmark (one engine)"
             )(run_engine_microbench)

    register("chaos", result_cls=ChaosResult,
             description="lifecycle/fault chaos drill (one profile)"
             )(run_chaos_experiment)

    register("scale", result_cls=ScaleResult,
             description="sharded-core ring-of-clusters scale run "
                         "(shard_segments picks the partition)"
             )(run_scale_experiment)

    register("web", result_cls=WebResult,
             description="overload drill: flash/syn/elephant attacks "
                         "with in-network shedding on or off"
             )(run_web_experiment)

    register("upgrade", result_cls=UpgradeResult,
             description="rolling-upgrade drill: wire-compat veto "
                         "plus a compatible canary promotion"
             )(run_upgrade_experiment)


_register_all()
