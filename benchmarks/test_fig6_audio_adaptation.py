"""Figure 6: audio bandwidth vs time under the stepped load schedule.

Paper: 176 kbit/s (16-bit stereo) with no load; an immediate drop to
44 kbit/s (8-bit mono) when the large load starts at 100 s; oscillation
between 44 and 88 under the medium load at 220 s; 88 kbit/s (16-bit
mono) under the small load at 340 s.

Reproduced on a 45-second scaled clock (breakpoints at 10/22/34 s); the
asserted *shape* is the quality level and mean bandwidth of each phase
plus the immediacy of the first transition.
"""

import pytest

from repro.apps.audio import run_audio_experiment
from repro.apps.audio.codec import FORMAT_NAMES
from repro.asps.audio import FMT_MONO16, FMT_MONO8, FMT_STEREO16

from .conftest import print_table, shape_check

DURATION = 45.0

#: (phase, window, paper kbit/s, paper quality)
PHASES = [
    ("no load", (1, 9), 176, FMT_STEREO16),
    ("large load", (12, 21), 44, FMT_MONO8),
    ("medium load", (24, 33), None, None),   # oscillates 44..88
    ("small load", (36, 44), 88, FMT_MONO16),
]


@pytest.fixture(scope="module")
def result():
    return run_audio_experiment(duration=DURATION)


def test_fig6_phases(benchmark, result):
    shape_check(benchmark)
    rows = []
    for name, (a, b), paper_kbps, paper_quality in PHASES:
        mean = result.mean_kbps_between(a, b)
        dominant = result.dominant_quality_between(a, b)
        rows.append([name, f"{a}-{b}s",
                     paper_kbps if paper_kbps else "44..88 (osc)",
                     f"{mean:.1f}", FORMAT_NAMES[dominant]])
        if paper_kbps is not None:
            assert mean == pytest.approx(paper_kbps, abs=10), name
            assert dominant == paper_quality, name
    print_table("Figure 6: audio bandwidth per load phase (scaled run)",
                ["phase", "window", "paper kbit/s", "measured kbit/s",
                 "dominant quality"], rows)

    # The medium phase oscillates between both mono levels.
    qualities = result.qualities_between(24, 33)
    assert FMT_MONO8 in qualities and FMT_MONO16 in qualities
    mean = result.mean_kbps_between(24, 33)
    assert 44 < mean < 88


def test_fig6_adaptation_immediate(benchmark, result):
    shape_check(benchmark)
    """The drop to 8-bit mono happens within ~2 s of the load step
    (paper: 'the adaptation is immediate ... avoiding the need for
    software feedback')."""
    assert result.dominant_quality_between(12, 14) == FMT_MONO8


def test_fig6_client_transparency(benchmark, result):
    shape_check(benchmark)
    assert result.figures["restored"]
    assert result.figures["frames_received"] == result.figures["frames_sent"]


def test_fig6_benchmark(benchmark):
    """Wall-clock cost of regenerating the figure (one full run)."""
    benchmark.group = "fig6 experiment"
    benchmark.pedantic(
        lambda: run_audio_experiment(duration=DURATION),
        rounds=1, iterations=1)
