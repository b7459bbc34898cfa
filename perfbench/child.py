"""Timed runs of the workloads, each in a fresh process.

This script imports the simulator once and then forks one process per
requested run, so the process-wide program cache and observability
scope start empty in every run, as on a user's first run, and no run
pays for the imports.  Each request is a JSON line on standard input;
each answer is a JSON line on standard output: the host times, the
output digest and invariant check, the simulated operation counts, the
exact-count block and, for a traced run, the per-layer figures.  A run
that fails is answered with ``{"error": ...}`` and its traceback goes
to standard error.

    echo '{"workload": "scale", "seed": 5, "trace": 0}' \\
        | python3 perfbench/child.py
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def metric_sum(metrics: dict, prefix: str, suffix: str) -> int:
    return sum(value for key, value in metrics.items()
               if key.startswith(prefix) and key.endswith(suffix)
               and isinstance(value, (int, float))
               and not isinstance(value, bool))


def exact_counts(metrics: dict) -> dict[str, float]:
    """Counters from ``metrics_snapshot()`` that repeat exactly for a
    given workload and seed."""
    processed = metric_sum(metrics, "node.", ".planp.packets_processed")
    batched = metric_sum(metrics, "node.", ".planp.batched_packets")
    cache = {key.rpartition(".")[2]: value for key, value in metrics.items()
             if key.startswith("global.program_cache.")}
    return {
        "exact.sim.events_processed": metrics.get("sim.events_processed",
                                                  0),
        "exact.node.delivered": metric_sum(metrics, "node.", ".delivered"),
        "exact.planp.fastpath_dispatches": metric_sum(
            metrics, "node.", ".planp.fastpath_dispatches"),
        "exact.planp.structural_dispatches": metric_sum(
            metrics, "node.", ".planp.structural_dispatches"),
        "exact.planp.batched_packets": batched,
        "exact.planp.packets_processed": processed,
        "exact.planp.batched_frac": batched / processed if processed else 0.0,
        "exact.tcp.retransmissions": metric_sum(metrics, "node.",
                                                ".tcp.retransmissions"),
        "exact.link.packets_dropped": metric_sum(metrics, "link.",
                                                 ".packets_dropped"),
        "exact.program_cache.hits": sum(
            v for k, v in cache.items() if k.endswith("_hits")),
        "exact.program_cache.misses": sum(
            v for k, v in cache.items() if k.endswith("_misses")),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, metrics: dict, exact: dict) -> dict[str, float]:
    """The per-layer figures of one traced run."""
    t = tracer
    events = exact["exact.sim.events_processed"]
    enqueued = t.calls_of("sim.schedule") + t.calls_of("sim.post")
    transmits = t.calls_of("link.transmit")
    node_pkts = t.calls_of("node.receive") + t.calls_of("node.ip_send")
    delivered = exact["exact.node.delivered"]
    decodes = t.calls_of("codec.decode")
    encodes = t.calls_of("codec.encode")
    engine_calls = (t.calls_of("engine.run_channel")
                    + t.calls_of("engine.run_channel_batch"))
    segments = t.calls_of("tcp.handle_segment")
    retx = exact["exact.tcp.retransmissions"]
    segments_out = metric_sum(metrics, "node.", ".tcp.segments_out")
    fast = exact["exact.planp.fastpath_dispatches"]
    structural = exact["exact.planp.structural_dispatches"]
    wants = t.calls_of("planp.wants")
    planp_pkts = t.calls_of("planp.process")
    out = {
        "sim.events": events,
        "sim.schedule_calls": enqueued,
        "sim.cancelled_frac": _ratio(t.calls_of("sim.cancel"), enqueued),
        "sim.heap_peak": t.counts["sim.heap_peak"],
        "sim.self_s": t.self_in_run("sim"),
        "sim.us_per_event": 1e6 * _ratio(t.self_in_run("sim"), events),
        "link.transmits": transmits,
        "link.self_s": t.self_in_run("link"),
        "link.us_per_pkt": 1e6 * _ratio(t.self_in_run("link"), transmits),
        "link.queue_drops": exact["exact.link.packets_dropped"],
        "monitor.records": t.calls_of("monitor.record"),
        "monitor.self_s": t.self_in_run("monitor"),
        "node.receives": t.calls_of("node.receive"),
        "node.self_s": t.self_in_run("node"),
        "node.us_per_pkt": 1e6 * _ratio(t.self_in_run("node"), node_pkts),
        "node.forwarded": metric_sum(metrics, "node.", ".forwarded"),
        "node.dropped": sum(metric_sum(metrics, "node.", f".dropped_{why}")
                            for why in ("down", "no_route", "not_local",
                                        "ttl")),
        "packet.hops": t.calls_of("packet.hop"),
        "packet.copies": t.calls_of("packet.copy"),
        "packet.self_s": t.self_in_run("packet"),
        "packet.allocs_per_delivered": _ratio(t.counts["packet.allocs"],
                                              delivered),
        "routing.lookups": t.calls_of("routing.lookup"),
        "routing.self_s": t.self_in_run("routing"),
        "udp.datagrams": t.calls_of("udp.sendto") + t.calls_of("udp.receive"),
        "udp.self_s": t.self_in_run("udp"),
        "topology.build_s": t.inclusive_of("topology.build"),
        "topology.finalize_s": t.inclusive_of("topology.finalize"),
        "planp.wants_calls": wants,
        "planp.hit_frac": _ratio(t.counts["planp.wants_hits"], wants),
        "planp.self_s": t.self_in_run("planp"),
        "planp.us_per_pkt": 1e6 * _ratio(t.self_in_run("planp"), planp_pkts),
        "planp.structural_frac": _ratio(structural, fast + structural),
        "planp.batched_frac": exact["exact.planp.batched_frac"],
        "planp.dropped": metric_sum(metrics, "node.",
                                    ".planp.packets_dropped"),
        "codec.decodes": decodes,
        "codec.encodes": encodes,
        "codec.self_s": t.self_in_run("codec"),
        "codec.us_per_op": 1e6 * _ratio(t.self_in_run("codec"),
                                        decodes + encodes),
        "engine.calls": engine_calls,
        "engine.self_s": t.self_in_run("engine"),
        "engine.us_per_call": 1e6 * _ratio(t.self_in_run("engine"),
                                           engine_calls),
        "tcp.segments": segments,
        "tcp.self_s": t.self_in_run("tcp"),
        "tcp.us_per_seg": 1e6 * _ratio(t.self_in_run("tcp"), segments),
        "tcp.retransmissions": retx,
        "tcp.retx_frac": _ratio(retx, segments_out),
        "app.self_s": t.self_in_run("app"),
        "cpu.submits": t.calls_of("cpu.submit"),
        "cpu.self_s": t.self_in_run("cpu"),
        "lifecycle.calls": t.calls_of("lifecycle.on_packet"),
        "lifecycle.self_s": t.self_in_run("lifecycle"),
        "lifecycle.trips": metrics.get("lifecycle.trips", 0),
        "overload.calls": t.calls_of("overload.admission"),
        "overload.self_s": t.self_in_run("overload"),
        "deploy.install_s": t.busy_of("deploy"),
        "deploy.verify_s": t.inclusive_of("deploy.verify"),
        "deploy.codegen_s": t.inclusive_of("deploy.codegen"),
        "deploy.cache_hits": exact["exact.program_cache.hits"],
        "deploy.self_s": t.self_in_run("deploy"),
    }
    return out


def run_once(name: str, seed: int, trace: bool, spans: str) -> dict:
    """One run of one workload; the process must not have run any."""
    from repro.apps.http.client import HttpClientWorker
    from repro.net.topology import Network
    from workloads import WORKLOADS, Harvest

    workload = WORKLOADS[name]
    harvest = Harvest()

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    perf = time.perf_counter
    clock = {"first_run": None, "run_s": 0.0}
    net_run = Network.run

    def timed_run(net, *a, **kw):
        t0 = perf()
        if clock["first_run"] is None:
            clock["first_run"] = t0
        try:
            return net_run(net, *a, **kw)
        finally:
            clock["run_s"] += perf() - t0

    Network.run = timed_run
    worker_start = HttpClientWorker.start

    def start(worker, *a, **kw):
        harvest.http_workers.append(worker)
        return worker_start(worker, *a, **kw)

    HttpClientWorker.start = start

    t0 = perf()
    result = workload.run(seed)
    wall_s = perf() - t0

    Network.run = net_run
    HttpClientWorker.start = worker_start
    if tracer is not None:
        tracer.uninstall()

    metrics = result.metrics
    exact = exact_counts(metrics)
    attempted, failed = workload.ops(result, harvest)
    invariants = workload.invariants(result, harvest)
    if clock["first_run"] is None:
        invariants.append("Network.run was never called")
        clock["first_run"] = t0 + wall_s
    out = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "setup_s": clock["first_run"] - t0,
        "wall_s": wall_s,
        "run_s": clock["run_s"],
        "delivered": exact["exact.node.delivered"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": workload.digest(result),
        "invariants": invariants,
        "attempted": attempted,
        "failed": failed,
        "exact": exact,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, metrics, exact)
        out["missing_entry_points"] = tracer.missing
        layers["trace.run_s"] = tracer.inclusive_of("net.run")
        layers["trace.spans"] = len(tracer.starts)
        if spans:
            tracer.dump(spans, origin=t0)
        out["layers"] = layers
    return out


def serve(timeout_s: int) -> None:
    """Answer each request line on standard input with one run in a
    process forked for it, and one JSON line on standard output."""
    # Import the whole package once, before anything is timed or
    # wrapped: imports are not set-up time, and the tracer must see
    # every module that bound a wrapped function by name.  Nothing runs
    # here, so each forked run starts with the process-wide state empty.
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    import workloads  # noqa: F401

    for line in sys.stdin:
        req = json.loads(line)
        pid = os.fork()
        if pid == 0:
            signal.alarm(timeout_s)
            status = 1
            try:
                out = run_once(req["workload"], req["seed"],
                               bool(req["trace"]), req.get("spans", ""))
                print(json.dumps(out), flush=True)
                status = 0
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                # skip tearing down a 10k-node network object by object
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        if status != 0:
            why = (f"killed by signal {os.WTERMSIG(status)}"
                   if os.WIFSIGNALED(status)
                   else f"exit code {os.WEXITSTATUS(status)}")
            print(json.dumps({"error": f"run ended with {why}"}),
                  flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--timeout", type=int, default=120,
                        help="seconds after which a run is killed")
    serve(parser.parse_args().timeout)
