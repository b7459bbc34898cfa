"""``obsdump`` — inspect the observability layer from the shell.

    python -m repro.tools.obsdump demo
    python -m repro.tools.obsdump smoke/http-asp --events-limit 50
    python -m repro.tools.obsdump smoke/images --json out.json
    python -m repro.tools.obsdump chaos/drill-4 --lifecycle
    python -m repro.tools.obsdump chaos/upgrade-16 --lifecycle
    python -m repro.tools.obsdump web/syn-shed --overload
    python -m repro.tools.obsdump scale --shards 4

The argument names what to run: ``demo``, ``scale``, or any scenario
of the harness (``python -m repro.tools.runx list`` prints them).  A
scenario runs through the experiment registry with its own
:class:`~repro.obs.Observability` scope, so the structured event log
of every entry point that takes one is captured.

Each run dumps its metrics snapshot as sorted JSON on stdout;
``--events`` additionally prints the event log as JSON lines (``demo``
prints events by default — that is what it is for).  ``--json PATH``
writes ``{"metrics": ..., "events": [...]}`` to a file instead, which
is the shape the CI artifact uses.

``demo`` builds a deliberately eventful little network: an ASP deployed
over the wire, a congested bottleneck link dropping packets, and a
scripted link flap — so every event kind (``deploy``, ``drop``,
``fault``, ``jit``) shows up in one run.

``scale`` runs the ring-of-clusters workload through the sharded core
(DESIGN §13) with ``--shards N`` segments and prints the per-segment
window summary — events processed, horizon stalls, and boundary
crossings per segment — instead of raw metrics (use ``--json`` for
both).  Boundary-crossing tracing is enabled, so ``shard-boundary``
events show up under ``--events``.

``--lifecycle`` folds the event log into per-node rollout
generations, vetoes, breaker trips and rollbacks (the ``chaos/``
drills); ``--overload`` folds it into per-node shed/expired decisions
with the shedding ASP's lifecycle verdict (the ``web/`` cells).
Either prints the fold instead of raw metrics, and ``--json`` adds it
under the ``lifecycle`` / ``overload`` key.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..harness import matrix, run
from ..obs import Observability

#: the tool's own runs; every other name is a harness scenario
MODES = ("demo", "scale")


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _run_demo() -> tuple[dict, list]:
    """A small network exercising every event kind."""
    from ..asps import audio_router_asp
    from ..net.topology import Network
    from ..runtime.netdeploy import DeploymentManager, DeploymentService

    net = Network(seed=7)
    manager_host = net.add_host("mgr")
    router = net.add_router("r1")
    sink = net.add_host("sink")
    uplink = net.link(manager_host, router, bandwidth=1e6)
    # A deliberately narrow bottleneck: pushing datagrams through it
    # overruns the 4-packet queue and produces drop events.
    net.link(router, sink, bandwidth=64_000, queue_limit=4)
    net.finalize()

    DeploymentService(net, router)
    manager = DeploymentManager(net, manager_host)
    manager.push(audio_router_asp(), [router.address])

    # Congestion: blast datagrams at the sink through the bottleneck.
    socket = net.udp(manager_host).bind()
    for i in range(40):
        net.sim.at(0.5 + i * 0.001,
                   lambda: socket.sendto(sink.address, 9, b"x" * 512))

    # A link flap mid-run (fault events + reconvergence).
    net.faults.at(1.0, net.faults.link_down, uplink)
    net.faults.at(1.5, net.faults.link_up, uplink)

    net.run(until=3.0)
    events = [record.to_dict() for record in net.obs.events.filter()]
    return net.metrics_snapshot(), events














def lifecycle_summary(events: list[dict]) -> dict:
    """Fold an event list into the ``--lifecycle`` view: rollout
    totals (including wire-compatibility vetoes with their verdicts),
    plus per-node installs, breaker trips, half-opens, closes,
    rollbacks, and the generation each node ended on."""
    totals = {"rollouts": 0, "promoted": 0, "aborted": 0,
              "vetoed": 0, "fleet_rollbacks": 0, "rollback_skips": 0}
    vetoes: list[dict] = []
    nodes: dict[str, dict] = {}

    def node(name: str) -> dict:
        return nodes.setdefault(name, {
            "installs": 0, "trips": 0, "half_opens": 0, "closes": 0,
            "rollbacks": 0, "generation": None})

    for event in events:
        kind = event.get("kind")
        action = event.get("action", "")
        if kind == "deploy" and action in ("install", "restore"):
            node(event["node"])["installs"] += 1
        elif kind == "rollout":
            if action == "stage":
                totals["rollouts"] += 1
            elif action in ("promote", "force-promote"):
                totals["promoted"] += 1
            elif action == "abort":
                totals["aborted"] += 1
            elif action == "veto":
                totals["vetoed"] += 1
                vetoes.append({
                    "rollout": event.get("rollout"),
                    "sha": event.get("sha"),
                    "against": event.get("against"),
                    "nodes": event.get("nodes"),
                    "verdict": event.get("verdict"),
                })
        elif kind == "quarantine":
            key = {"trip": "trips", "half-open": "half_opens",
                   "close": "closes"}.get(action)
            if key is not None:
                node(event["node"])[key] += 1
        elif kind == "rollback":
            if action == "start":
                totals["fleet_rollbacks"] += 1
            elif action == "skip":
                totals["rollback_skips"] += 1
            elif action == "node":
                entry = node(event["node"])
                entry["rollbacks"] += 1
                entry["generation"] = event.get("to_generation")
    return {"totals": totals,
            "vetoes": vetoes,
            "nodes": {name: nodes[name] for name in sorted(nodes)}}




def overload_summary(events: list[dict]) -> dict:
    """Fold an event list into the ``--overload`` view: endpoint shed
    and expiry decisions grouped per node and reason, plus the
    lifecycle verdict on the shedding ASP (trips / rollbacks), so one
    glance shows where the overload went and whether the defense
    itself stayed healthy."""
    totals = {"shed": 0, "expired": 0, "trips": 0, "rollbacks": 0}
    nodes: dict[str, dict] = {}

    def node(name: str) -> dict:
        return nodes.setdefault(name, {"shed": 0, "expired": 0,
                                       "reasons": {}})

    for event in events:
        kind = event.get("kind")
        if kind == "overload":
            entry = node(event.get("node", "?"))
            action = event.get("action", "")
            if action == "shed":
                totals["shed"] += 1
                entry["shed"] += 1
                reason = event.get("reason", "")
                entry["reasons"][reason] = (
                    entry["reasons"].get(reason, 0) + 1)
            elif action == "expired":
                totals["expired"] += 1
                entry["expired"] += 1
        elif kind == "quarantine" and event.get("action") == "trip":
            totals["trips"] += 1
        elif kind == "rollback" and event.get("action") == "start":
            totals["rollbacks"] += 1
    return {"totals": totals,
            "nodes": {name: nodes[name] for name in sorted(nodes)}}




def _run_scale(shards: int) -> tuple[dict, list, dict]:
    """The ring-of-clusters workload on the sharded core, with
    boundary tracing on and a per-segment window summary."""
    from ..experiments.scale import build_scale_net, scale_until

    params = dict(n_clusters=8, hosts_per_cluster=6, packets_per_host=4)
    net = build_scale_net(params=params, seed=7, shard_segments=shards)
    if net._shard is not None:
        net._shard.trace_boundary = True
    net.run(until=scale_until(params))
    events = [record.to_dict() for record in net.obs.events.filter()]
    return net.metrics_snapshot(), events, shard_summary(net)


def _run_scenario(scenario) -> tuple[dict, list]:
    """One harness scenario through the registry, with its event log."""
    obs = Observability()
    result = run(scenario, obs=obs)
    events = [record.to_dict() for record in obs.events.filter()]
    return result.metrics, events


def shard_summary(net) -> dict:
    """Fold a sharded network's runner state into the ``scale`` view:
    windows, lookahead, cut links, and per-segment event counts,
    horizon stalls, and boundary crossings."""
    runner = net._shard
    if runner is None:
        return {"windows": 0, "segments": [],
                "note": "serial run (shard_segments=1)"}
    plan = runner.plan
    keep = ("events_processed", "pending_events", "horizon_stalls",
            "boundary_in", "boundary_out")
    return {
        "windows": runner.windows,
        "lookahead": plan.lookahead,
        "cross_links": plan.cross_links,
        "segments": [
            {"segment": i,
             "nodes": sum(1 for s in plan.assignment.values()
                          if s == i),
             **{key: value
                for key, value in runner._segment_stats(i).items()
                if key in keep}}
            for i in range(plan.segments)],
    }




# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.obsdump",
        description="dump metrics snapshots and event logs")
    parser.add_argument("mode", nargs="?", default="demo",
                        metavar="demo|scale|SCENARIO",
                        help="the tool's demo network, the sharded "
                             "scale run, or a harness scenario name")
    parser.add_argument("--events", action="store_true",
                        help="also print the event log as JSON lines")
    parser.add_argument("--events-limit", type=int, default=None,
                        metavar="N", help="print at most N events")
    parser.add_argument("--json", metavar="PATH",
                        help="write {metrics, events} JSON to a file")
    parser.add_argument("--lifecycle", action="store_true",
                        help="summarize rollout generations, breaker "
                             "trips and rollbacks per node from the "
                             "event log (instead of raw metrics)")
    parser.add_argument("--overload", action="store_true",
                        help="summarize shed/expired decisions per "
                             "node and the shedding ASP's lifecycle "
                             "verdict from the event log (instead of "
                             "raw metrics)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="scale mode: run the topology sharded "
                             "into N segments (default 2) and print "
                             "the per-segment window summary")
    args = parser.parse_args(argv)

    scenarios = {s.name: s for s in matrix("all")}
    if args.mode not in MODES and args.mode not in scenarios:
        parser.error(f"unknown mode or scenario {args.mode!r}; pick "
                     f"from {', '.join([*MODES, *sorted(scenarios)])}")

    shards_doc = None
    show_events = args.events
    if args.mode == "demo":
        metrics, events = _run_demo()
        show_events = True
    elif args.mode == "scale":
        metrics, events, shards_doc = _run_scale(
            args.shards if args.shards is not None else 2)
    else:
        metrics, events = _run_scenario(scenarios[args.mode])

    if args.json:
        doc = {"mode": args.mode, "metrics": metrics, "events": events}
        if args.lifecycle:
            doc["lifecycle"] = lifecycle_summary(events)
        if args.overload:
            doc["overload"] = overload_summary(events)
        if shards_doc is not None:
            doc["shards"] = shards_doc
        with open(args.json, "w") as fp:
            json.dump(doc, fp, indent=2, sort_keys=True, default=str)
        print(f"wrote {args.json}", file=sys.stderr)
        return 0

    if args.lifecycle:
        json.dump(lifecycle_summary(events), sys.stdout, indent=2,
                  sort_keys=True, default=str)
        sys.stdout.write("\n")
        return 0

    if args.overload:
        json.dump(overload_summary(events), sys.stdout, indent=2,
                  sort_keys=True, default=str)
        sys.stdout.write("\n")
        return 0

    if shards_doc is not None:
        json.dump(shards_doc, sys.stdout, indent=2, sort_keys=True,
                  default=str)
        sys.stdout.write("\n")
        return 0

    json.dump(metrics, sys.stdout, indent=2, sort_keys=True, default=str)
    sys.stdout.write("\n")
    if show_events:
        limited = events[:args.events_limit] \
            if args.events_limit is not None else events
        for record in limited:
            sys.stdout.write(json.dumps(record, default=str) + "\n")
        if len(limited) < len(events):
            print(f"... {len(events) - len(limited)} more events",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
