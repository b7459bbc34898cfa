"""The benchmark's four workloads: what each runs and how it is checked.

Each workload calls one experiment entry point of the simulator with
fixed parameters and the experiment's default engine backend.  The
seed is the only input that varies between runs.  For every workload
this module also says:

* which simulated operations it attempts and how many failed
  (``ops``);
* the output digest pinned in ``digests.json`` (``digest``);
* the invariants that hold for any seed (``invariants``);
* which layers a traced run must reach (``live``) and which it must
  bypass (``idle``), checked by :func:`layer_errors`.

Simulated statistics are output checks here, never metrics: the
metrics are host times, measured by ``child.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Harvest:
    """What a run leaves behind for the checks besides its result:
    objects the benchmark collected from the run (closed-loop HTTP
    clients, which the result only summarizes over its window)."""

    http_workers: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    #: the seed whose digest is pinned in ``digests.json``
    default_seed: int
    run: Callable[[int], Any]
    #: (result, harvest) -> (attempted, failed) simulated operations
    ops: Callable[[Any, Harvest], tuple[int, int]]
    #: (result, harvest) -> list of violated invariants (empty = ok)
    invariants: Callable[[Any, Harvest], list[str]]
    digest: Callable[[Any], str]
    #: layers (see :data:`LAYERS`) whose work a traced run must show
    live: tuple[str, ...]
    #: layers whose every per-layer metric must be 0 in a traced run
    idle: tuple[str, ...]


#: per layer, the per-layer metric that is nonzero when the layer runs;
#: a layer's metrics are those whose name starts with ``<layer>.``
LAYERS = {
    "sim": "sim.events",
    "link": "link.transmits",
    "monitor": "monitor.records",
    "node": "node.receives",
    "packet": "packet.allocs_per_delivered",
    "routing": "routing.lookups",
    "udp": "udp.datagrams",
    "topology": "topology.finalize_s",
    "planp": "planp.wants_calls",
    "codec": "codec.decodes",
    "engine": "engine.calls",
    "tcp": "tcp.segments",
    "app": "app.self_s",
    "cpu": "cpu.submits",
    "lifecycle": "lifecycle.calls",
    "overload": "overload.calls",
    "deploy": "deploy.install_s",
}

#: the layers every workload runs through
NETWORK = ("sim", "link", "monitor", "node", "packet", "routing",
           "topology")


def layer_errors(workload: Workload, layers: dict[str, float]) -> list[str]:
    """Where a traced run's per-layer metrics break the workload's
    predictions: a live layer did no work, or a bypassed one did."""
    bad = []
    for layer in workload.live:
        metric = LAYERS[layer]
        if not layers[metric] > 0:
            bad.append(f"layer {layer} should run, but {metric} is "
                       f"{layers[metric]}")
    for layer in workload.idle:
        busy = {name: value for name, value in layers.items()
                if name.startswith(f"{layer}.") and value != 0}
        if busy:
            bad.append(f"layer {layer} should be bypassed, but {busy}")
    return bad


def figures_digest(result) -> str:
    """sha256 over the record's figures, which already leave out the
    experiment's ``_VOLATILE_FIGURES``.  Metrics stay out, so a change
    that adds an observability counter keeps the digest."""
    figures = result.record()["figures"]
    blob = json.dumps(figures, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- scale --------------------------------------------------------------------

#: 100 clusters of 1 router + 99 hosts: the 10k-node serial floor of
#: BENCH_scale.json, with 1 datagram per host instead of 10 so one run
#: takes about 3 s and an invocation holds about ten runs
SCALE_PARAMS = dict(n_clusters=100, hosts_per_cluster=100,
                    packets_per_host=1, interval=0.02, payload_bytes=64)
SCALE_SENDS = (SCALE_PARAMS["n_clusters"]
               * (SCALE_PARAMS["hosts_per_cluster"] - 1)
               * SCALE_PARAMS["packets_per_host"])


def _run_scale(seed: int):
    from repro.experiments.scale import run_scale_experiment

    return run_scale_experiment(seed=seed, **SCALE_PARAMS)


def _scale_ops(result, _harvest) -> tuple[int, int]:
    sent = result.figures["sent"]
    return sent, sent - result.figures["delivered"]


def _scale_invariants(result, _harvest) -> list[str]:
    figs = result.figures
    bad = []
    if figs["sent"] != SCALE_SENDS:
        bad.append(f"sent {figs['sent']} datagrams, scheduled "
                   f"{SCALE_SENDS}")
    if figs["delivered"] != figs["sent"]:
        bad.append(f"delivered {figs['delivered']} of {figs['sent']} "
                   f"datagrams")
    return bad


# -- http_asp -----------------------------------------------------------------

#: figure 8, curve b: 8 closed-loop clients through the PLAN-P gateway
#: (160 us simulated CPU per packet, so the gateway saturates) to two
#: servers; 4 simulated seconds instead of the report's 12
HTTP_PARAMS = dict(mode="asp", n_clients=8, duration=4.0, warmup=1.0)


def _run_http(seed: int):
    from repro.apps.http.experiment import run_http_experiment

    return run_http_experiment(seed=seed, **HTTP_PARAMS)


def _request_ops(_result, harvest) -> tuple[int, int]:
    """Good-client request attempts: each ends completed, failed
    (connection failure or timeout) or shed (a 503), or is still in
    flight at the end, which counts as neither.  An abandoned request
    was given up after such failed attempts, so it is counted there."""
    workers = harvest.http_workers
    completed = sum(len(w.completed) for w in workers)
    failed = sum(w.failures + w.shed_responses for w in workers)
    return completed + failed, failed


def _http_invariants(result, harvest) -> list[str]:
    figs = result.figures
    bad = []
    if figs["failures"] != 0:
        bad.append(f"{figs['failures']} request failures")
    if figs["completed"] <= 0:
        bad.append("no request completed in the window")
    if len(harvest.http_workers) != HTTP_PARAMS["n_clients"]:
        bad.append(f"{len(harvest.http_workers)} clients started, "
                   f"expected {HTTP_PARAMS['n_clients']}")
    return bad


# -- audio --------------------------------------------------------------------

#: figure 6 at report scale: the stepped load schedule over 45
#: simulated seconds, router and client ASPs installed
AUDIO_PARAMS = dict(adaptation=True, duration=45.0)


def _run_audio(seed: int):
    from repro.apps.audio.experiment import run_audio_experiment

    return run_audio_experiment(seed=seed, **AUDIO_PARAMS)


def _audio_ops(result, _harvest) -> tuple[int, int]:
    figs = result.figures
    return figs["frames_sent"], figs["frames_sent"] - figs["frames_received"]


def _audio_invariants(result, _harvest) -> list[str]:
    figs = result.figures
    bad = []
    if figs["frames_sent"] <= 0:
        bad.append("no audio frame sent")
    if not 0 <= figs["frames_received"] <= figs["frames_sent"]:
        bad.append(f"played {figs['frames_received']} of "
                   f"{figs['frames_sent']} frames")
    if not figs["restored"]:
        bad.append("client ASP did not restore frames")
    return bad


# -- web_syn_shed -------------------------------------------------------------

#: the BENCH_web.json syn/shed cell: 4 closed-loop good clients, 4
#: open-loop SYN flooders, shedding ASP at the gateway
WEB_PARAMS = dict(attack="syn", shedding=True, n_good=4, n_attackers=4,
                  duration=6.0, warmup=2.0)


def _run_web(seed: int):
    from repro.experiments.web import run_web_experiment

    return run_web_experiment(seed=seed, **WEB_PARAMS)


def _web_invariants(result, harvest) -> list[str]:
    figs = result.figures
    bad = []
    if figs["flood_sent"] <= 0:
        bad.append("the SYN flood sent nothing")
    if figs["gateway_dropped"] <= 0:
        bad.append("the shedding ASP dropped nothing")
    if figs["good_completed"] <= 0:
        bad.append("no good request completed in the attack window")
    if not figs["healthy"]:
        bad.append("network unhealthy at the end")
    if len(harvest.http_workers) != WEB_PARAMS["n_good"]:
        bad.append(f"{len(harvest.http_workers)} good clients started, "
                   f"expected {WEB_PARAMS['n_good']}")
    return bad


WORKLOADS = {w.name: w for w in (
    Workload("scale", 5, _run_scale, _scale_ops, _scale_invariants,
             lambda r: r.figures["delivery_sha256"],
             live=NETWORK + ("udp",),
             idle=("planp", "codec", "engine", "tcp", "app", "cpu",
                   "deploy", "lifecycle", "overload")),
    Workload("http_asp", 11, _run_http, _request_ops, _http_invariants,
             figures_digest,
             live=NETWORK + ("planp", "codec", "engine", "tcp", "app",
                             "cpu", "deploy"),
             idle=("lifecycle", "overload")),
    Workload("audio", 7, _run_audio, _audio_ops, _audio_invariants,
             figures_digest,
             live=NETWORK + ("udp", "planp", "codec", "engine", "deploy"),
             idle=("tcp", "app", "cpu", "lifecycle", "overload")),
    Workload("web_syn_shed", 17, _run_web, _request_ops, _web_invariants,
             figures_digest,
             live=NETWORK + ("planp", "codec", "engine", "tcp", "app",
                             "lifecycle", "overload", "deploy"),
             idle=()),
)}
