"""Host-time benchmark of the simulator: one command for every workload.

Runs each workload again and again, each run in a fresh
single-threaded process (forked by ``child.py``), for ``run_seconds``
seconds as ``BENCHMARK.json`` sets it, checks every run's simulated
output, and prints every metric with its unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py                       # BENCHMARK.json's workloads
    python3 perfbench/run.py --workload scale --seed 5
    python3 perfbench/run.py --workload audio --trace 1

With ``--trace 0`` the metrics are the end-to-end ones (medians over
the runs).  With ``--trace 1`` untraced and traced runs alternate and
the metrics are the per-layer ones (medians over the traced runs),
plus the tracing overhead; the spans of the last traced run are
written to ``perfbench/out/``.  Each workload also runs once at a
held-out seed with only its invariants checked.  Without ``--workload`` the workloads ``BENCHMARK.json``
names run in turn; ``http_asp`` and ``audio`` run only by name.  Metric names and
units come from ``BENCHMARK.json``.  The exit code is non-zero if any
output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, layer_errors  # noqa: E402

#: fewest untraced runs a measurement takes, however long they are
MIN_RUNS = 4

#: a held-out seed: never pinned, checked on invariants only
HELD_OUT_SEED = 1009

#: a run must end by then, or it is killed and the benchmark fails
CHILD_TIMEOUT_S = 120


#: units of host time; a metric in any other unit is a count or a
#: ratio of counts, which must repeat exactly between runs of one seed
TIME_UNITS = ("s", "us")


def load_spec() -> dict:
    """``BENCHMARK.json``: the run length, the workloads and every
    metric's unit."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"seconds": spec["run_seconds"],
            "workloads": [w["name"] for w in spec["workloads"]],
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


class RunFailed(Exception):
    """A run did not produce a result."""


class Runs:
    """``child.py``, which imports the simulator once and forks a fresh
    process for every run asked of it; stopped and waited for on
    leaving the ``with`` block."""

    def __enter__(self) -> "Runs":
        # every forked run inherits the string hash seed, so an unset
        # one would shift all runs of an invocation together
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"),
             "--timeout", str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"})
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, workload: str, seed: int, trace: bool,
            spans: Path | None = None) -> dict:
        request = {"workload": workload, "seed": seed, "trace": int(trace),
                   "spans": str(spans) if spans else ""}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RunFailed(f"{workload} seed {seed}: child.py ended "
                            f"(its error is on standard error)")
        out = json.loads(line)
        if "error" in out:
            raise RunFailed(f"{workload} seed {seed}: {out['error']} "
                            f"(its traceback is on standard error)")
        return out


def load_pinned() -> dict[str, dict[str, str]]:
    with open(HERE / "digests.json") as fh:
        return json.load(fh)


def run_errors(run: dict, reference: str, pinned: str | None) -> list[str]:
    """Why one run's output is wrong (empty: it is right)."""
    errors = list(run["invariants"])
    if pinned is not None and run["digest"] != pinned:
        errors.append(f"digest {run['digest'][:16]} != pinned "
                      f"{pinned[:16]}")
    elif run["digest"] != reference:
        errors.append(f"digest {run['digest'][:16]} differs from the "
                      f"first run's {reference[:16]} (same seed)")
    return errors


def check_runs(runs: list[dict], pinned: str | None):
    """Per-run errors, and the operations attempted and failed over all
    runs (a wrong run counts all of its operations as failed)."""
    reference = runs[0]["digest"]
    errors, attempted, failed = [], 0, 0
    for i, run in enumerate(runs):
        wrong = run_errors(run, reference, pinned)
        errors += [f"run {i + 1}{' (traced)' if run['trace'] else ''}: "
                   f"{msg}" for msg in wrong]
        attempted += run["attempted"]
        failed += run["attempted"] if wrong else run["failed"]
    counts = {json.dumps(run["exact"], sort_keys=True) for run in runs}
    if len(counts) > 1:
        errors.append("exact counts differ between runs of one seed")
    return errors, attempted, failed


def end_to_end(runs: list[dict],
               units: dict[str, str]) -> dict[str, tuple[float, str]]:
    """Each end-to-end metric's median over the runs, with its unit."""
    for run in runs:
        run["delivered_per_s"] = run["delivered"] / run["run_s"]
    return {name: (statistics.median(run[name] for run in runs), unit)
            for name, unit in units.items()}


def per_layer(traced: list[dict], wall_s: float, units: dict[str, str]):
    """Each per-layer metric's median over the traced runs, with its
    unit, and the errors in them."""
    errors = [f"entry point {ref} not found, so its layer is not traced"
              for ref in traced[0]["missing_entry_points"]]
    values = {metric: [run["layers"][metric] for run in traced]
              for metric in traced[0]["layers"]}
    values.update({metric: [value]
                   for metric, value in traced[0]["exact"].items()})
    values["trace.overhead"] = [
        statistics.median(run["wall_s"] for run in traced) / wall_s]
    if set(values) != set(units):
        errors.append(f"per-layer metrics {sorted(set(values) ^ set(units))} "
                      f"are not both measured and in BENCHMARK.json")
    layers = {}
    for metric, unit in units.items():
        if metric not in values:
            continue
        if unit not in TIME_UNITS and len(set(values[metric])) > 1:
            errors.append(f"{metric} differs between traced runs: "
                          f"{values[metric]}")
        layers[metric] = (statistics.median(values[metric]), unit)
    return layers, errors


def measure(name: str, seed: int, spec: dict, trace: bool) -> dict:
    """Run one workload for the benchmark's run length, and once at the
    held-out seed, and check every run."""
    workload = WORKLOADS[name]
    pinned = load_pinned().get(name, {}).get(str(seed))
    spans = None
    if trace:
        (HERE / "out").mkdir(exist_ok=True)
        spans = HERE / "out" / f"spans-{name}-seed{seed}.csv.gz"
    plain, traced, cycles = [], [], []
    start = time.monotonic()
    with Runs() as runs:
        held = runs.run(name, HELD_OUT_SEED, False)
        while True:
            began = time.monotonic()
            plain.append(runs.run(name, seed, False))
            if trace:
                traced.append(runs.run(name, seed, True, spans))
            cycles.append(time.monotonic() - began)
            elapsed = time.monotonic() - start
            enough = len(plain) >= (1 if trace else MIN_RUNS)
            # stop when a typical further run would end past the budget
            if (enough and elapsed + statistics.median(cycles)
                    > spec["seconds"]):
                break

    # traced runs are checked against the first untraced one: tracing
    # must not change the simulated output
    errors, attempted, failed = check_runs(plain + traced, pinned)
    errors += [f"held-out seed {HELD_OUT_SEED}: {msg}"
               for msg in held["invariants"]]
    attempted += held["attempted"]
    failed += held["attempted"] if held["invariants"] else held["failed"]
    metrics = end_to_end(plain, spec["end_to_end"])
    layers: dict[str, tuple[float, str]] = {}
    if traced:
        layers, wrong = per_layer(traced, metrics["wall_s"][0],
                                  spec["per_layer"])
        errors += wrong
        errors += [f"traced run: {msg}" for msg in layer_errors(
            workload, {metric: value for metric, (value, _) in
                       layers.items()})]
    return {
        "workload": name, "seed": seed, "pinned": pinned is not None,
        "runs": len(plain), "traced_runs": len(traced),
        "seconds": time.monotonic() - start,
        "metrics": metrics, "layers": layers,
        "exact": plain[0]["exact"], "errors": errors,
        "attempted": attempted, "failed": failed,
        "spans": spans,
    }


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.6g}"


def report(m: dict) -> None:
    runs = f"{m['runs']} runs"
    if m["traced_runs"]:
        runs += f" + {m['traced_runs']} traced"
    print(f"== {m['workload']}  seed {m['seed']}  {runs} + 1 at held-out "
          f"seed {HELD_OUT_SEED} in "
          f"{m['seconds']:.1f} s (one fresh process per run)")
    for metric, (value, unit) in m["metrics"].items():
        print(f"  {metric:<34} {_fmt(value):>14} {unit}")
    frac = m["failed"] / m["attempted"] if m["attempted"] else 0.0
    print(f"  {'ops_failed_frac':<34} {_fmt(frac):>14} ratio "
          f"({m['failed']} of {m['attempted']} operations)")
    if m["layers"]:
        print("  -- per layer (medians over the traced runs)")
        for metric, (value, unit) in m["layers"].items():
            print(f"  {metric:<34} {_fmt(value):>14} {unit}")
        print(f"  spans: {m['spans'].relative_to(ROOT)}")
    else:
        print("  -- exact counts")
        for metric, value in m["exact"].items():
            print(f"  {metric:<34} {_fmt(value):>14}")
    status = "ok" if not m["errors"] else "FAILED"
    pinned = "pinned digest" if m["pinned"] else "invariants only"
    print(f"  output check ({pinned}): {status}")
    for error in m["errors"]:
        print(f"    {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: those BENCHMARK.json "
                             "names)")
    parser.add_argument("--seed", type=int,
                        help="default: each workload's pinned seed")
    parser.add_argument("--seconds", type=float,
                        help="must equal BENCHMARK.json's run_seconds, "
                             "the one source of the run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.seconds is not None and args.seconds != spec["seconds"]:
        parser.error(f"--seconds {args.seconds:g} differs from "
                     f"BENCHMARK.json's run_seconds {spec['seconds']}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else spec["workloads"]
    results = []
    try:
        for name in names:
            seed = (args.seed if args.seed is not None
                    else WORKLOADS[name].default_seed)
            m = measure(name, seed, spec, bool(args.trace))
            report(m)
            results.append(m)
    except RunFailed as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1

    correct = not any(m["errors"] for m in results)
    metrics = {}
    for m in results:
        chosen = m["layers"] if args.trace else m["metrics"]
        for metric, (value, unit) in chosen.items():
            key = metric if args.workload else f"{m['workload']}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(m["attempted"] for m in results),
        "failed": sum(m["failed"] for m in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
