"""§3.3: point-to-point to multipoint MPEG delivery.

Paper (qualitative): with the monitor and capture ASPs, clients on the
same segment share one server connection; "no traffic rate degradation
is induced by the ASP" on the video.  Reproduced as: one server session
and ~1/N upstream traffic for N viewers, with every viewer at the
nominal frame rate.
"""

import pytest

from repro.apps.mpeg import run_mpeg_experiment

from .conftest import print_table, shape_check

N_CLIENTS = 3
DURATION = 15.0


@pytest.fixture(scope="module")
def pair():
    with_asps = run_mpeg_experiment(use_asps=True, n_clients=N_CLIENTS,
                                    duration=DURATION, warmup=2.0)
    without = run_mpeg_experiment(use_asps=False, n_clients=N_CLIENTS,
                                  duration=DURATION, warmup=2.0)
    rows = []
    for r in (without, with_asps):
        rows.append(["ASPs" if r.params["use_asps"] else "plain",
                     r.figures["server_sessions"],
                     f"{r.figures['uplink_bytes'] / 1e6:.2f} MB",
                     ", ".join(f"{x:.1f}"
                               for x in r.figures["per_client_rate"]),
                     "/".join(r.figures["modes"])])
    print_table(f"MPEG multipoint: {N_CLIENTS} viewers of one stream",
                ["config", "server sessions", "uplink", "client fps",
                 "modes"], rows)
    return with_asps, without


def test_mpeg_single_upstream_session(benchmark, pair):
    shape_check(benchmark)
    with_asps, without = pair
    assert with_asps.figures["server_sessions"] == 1
    assert without.figures["server_sessions"] == N_CLIENTS


def test_mpeg_uplink_reduction(benchmark, pair):
    shape_check(benchmark)
    with_asps, without = pair
    ratio = with_asps.figures["uplink_bytes"] / without.figures["uplink_bytes"]
    assert ratio < 1.25 / N_CLIENTS + 0.15  # ~1/N plus control traffic
    print(f"\nuplink ratio with/without ASPs: {ratio:.2f} "
          f"(ideal 1/{N_CLIENTS} = {1 / N_CLIENTS:.2f})")


def test_mpeg_no_rate_degradation(benchmark, pair):
    shape_check(benchmark)
    """The paper's headline: sharing does not degrade the traffic rate
    any viewer receives."""
    with_asps, _ = pair
    assert with_asps.all_clients_at_full_rate
    spread = max(with_asps.figures["per_client_rate"]) - min(
        with_asps.figures["per_client_rate"])
    assert spread < 0.1 * with_asps.figures["nominal_fps"]


def test_mpeg_later_clients_shared(benchmark, pair):
    shape_check(benchmark)
    with_asps, _ = pair
    assert with_asps.figures["modes"] \
        == ["direct"] + ["shared"] * (N_CLIENTS - 1)


def test_mpeg_benchmark(benchmark):
    benchmark.group = "mpeg experiment"
    benchmark.pedantic(
        lambda: run_mpeg_experiment(use_asps=True, n_clients=2,
                                    duration=8.0),
        rounds=1, iterations=1)
