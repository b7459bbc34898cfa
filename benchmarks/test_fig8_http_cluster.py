"""Figure 8: HTTP cluster throughput vs offered load.

Paper: curves for (a) a single server, (b) the ASP-based load-balancing
gateway over two servers, (c) the built-in C gateway.  Headline numbers:
"little or no difference" between b and c; the ASP gateway serves 1.75x
the load of a single server and ~85% of two servers with disjoint
clients (the gateway is a contention point).
"""

import pytest

from repro.apps.http import generate_trace, run_http_experiment

from .conftest import print_table, shape_check

CLIENTS = [2, 4, 8]
DURATION = 12.0
WARMUP = 3.0


@pytest.fixture(scope="module")
def curves():
    trace = generate_trace(6000, seed=11)
    out = {}
    for mode in ("single", "asp", "builtin", "disjoint"):
        out[mode] = {
            n: run_http_experiment(mode=mode, n_clients=n,
                                   duration=DURATION, warmup=WARMUP,
                                   trace=trace)
            for n in CLIENTS}
    rows = []
    for n in CLIENTS:
        rows.append([n] + [f"{out[mode][n].figures['throughput_rps']:.1f}"
                           for mode in ("single", "asp", "builtin",
                                        "disjoint")])
    print_table("Figure 8: throughput (req/s) vs number of clients",
                ["clients", "single (a)", "ASP gw (b)", "C gw (c)",
                 "disjoint"], rows)
    return out


def test_fig8_asp_equals_builtin(benchmark, curves):
    shape_check(benchmark)
    """Curves b and c coincide (paper: 'little or no difference')."""
    for n in CLIENTS:
        asp = curves["asp"][n].figures["throughput_rps"]
        builtin = curves["builtin"][n].figures["throughput_rps"]
        assert asp == pytest.approx(builtin, rel=0.05), f"n={n}"


def test_fig8_headline_ratio_vs_single(benchmark, curves):
    shape_check(benchmark)
    """At saturation the ASP cluster serves ~1.75x one server."""
    n = CLIENTS[-1]
    ratio = (curves["asp"][n].figures["throughput_rps"]
             / curves["single"][n].figures["throughput_rps"])
    assert 1.55 < ratio < 1.95
    print(f"\nASP/single at {n} clients: {ratio:.2f} (paper: 1.75)")


def test_fig8_gateway_contention(benchmark, curves):
    shape_check(benchmark)
    """~85% of two servers with disjoint clients."""
    n = CLIENTS[-1]
    ratio = (curves["asp"][n].figures["throughput_rps"]
             / curves["disjoint"][n].figures["throughput_rps"])
    assert 0.75 < ratio < 0.95
    print(f"ASP/disjoint at {n} clients: {ratio:.2f} (paper: ~0.85)")


def test_fig8_saturation_plateau(benchmark, curves):
    shape_check(benchmark)
    """The single-server curve saturates: doubling clients from 4 to 8
    barely moves it, while the cluster still gains."""
    single_gain = (curves["single"][8].figures["throughput_rps"]
                   / curves["single"][4].figures["throughput_rps"])
    asp_gain = (curves["asp"][8].figures["throughput_rps"]
                / curves["asp"][4].figures["throughput_rps"])
    assert single_gain < 1.15
    assert asp_gain > single_gain


def test_fig8_balance(benchmark, curves):
    shape_check(benchmark)
    assert curves["asp"][8].balance_ratio > 0.95


def test_fig8_benchmark(benchmark):
    trace = generate_trace(2000, seed=11)
    benchmark.group = "fig8 experiment"
    benchmark.pedantic(
        lambda: run_http_experiment(mode="asp", n_clients=4, duration=8.0,
                                    warmup=2.0, trace=trace),
        rounds=1, iterations=1)
