#!/usr/bin/env python3
"""Audio broadcasting with in-router bandwidth adaptation (paper §3.1).

Reproduces figure 6 on a scaled clock (60 s instead of 450 s): as the
load generator steps through large / medium / small loads, the router
ASP degrades the stream to 8-bit mono, oscillates, and settles at
16-bit mono — and the client ASP restores every frame so the unmodified
player always sees 16-bit stereo.

Run:  python examples/audio_adaptation.py
"""

from repro.apps.audio import run_audio_experiment, run_gap_sweep
from repro.apps.audio.codec import FORMAT_NAMES


def main() -> None:
    duration = 60.0
    print(f"figure 6 (scaled to {duration:.0f} s) — "
          f"audio bandwidth at the client:")
    result = run_audio_experiment(duration=duration)
    for sample in result.figures["bandwidth_series"]:
        bar = "#" * int(sample.kbps / 4)
        name = FORMAT_NAMES[sample.quality]
        print(f"  t={sample.time:5.1f}s {sample.kbps:7.1f} kbit/s "
              f"{name:14s} {bar}")

    figs = result.figures
    print(f"\nframes: {figs['frames_received']}/{figs['frames_sent']} "
          f"received; every frame restored to 16-bit stereo: "
          f"{figs['restored']}")
    print(f"silent periods with adaptation: {figs['silent_periods']}")

    print("\nfigure 7 — silent periods under constant load, with vs "
          "without adaptation:")
    sweep = run_gap_sweep(
        load_levels_bps=[1_000_000, 1_500_000, 1_900_000],
        duration=30.0)
    print(f"  {'load':>10s} {'with-ASP':>9s} {'without':>9s}")
    for load, row in sweep.items():
        print(f"  {load/1e6:9.1f}M {row['with_adaptation']:9d} "
              f"{row['without_adaptation']:9d}")


if __name__ == "__main__":
    main()
