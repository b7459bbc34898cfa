#!/usr/bin/env python3
"""Image distillation over a slow link (paper section 5, implemented).

A mobile client behind a 64 kbit/s access link fetches an image
catalogue.  With the distiller ASP on the border router, oversized
images are downscaled in flight to fit a byte budget: fetches that took
seconds complete in fractions of a second, at reduced fidelity.

Run:  python examples/image_distillation.py
"""

from repro.apps.images import run_image_experiment


def main() -> None:
    plain = run_image_experiment(distillation=False)
    distilled = run_image_experiment(distillation=True)

    print(f"{'image':20s} {'original':>9s} {'plain-lat':>10s} "
          f"{'distilled':>10s} {'dist-lat':>9s} {'size':>11s}")
    for p in plain.figures["fetches"]:
        d = distilled.result_for(p.name)
        print(f"{p.name:20s} {p.original_bytes:8d}B "
              f"{p.latency * 1000:8.1f}ms {d.received_bytes:8d}B "
              f"{d.latency * 1000:7.1f}ms {d.width}x{d.height}")

    speedup = plain.mean_latency() / distilled.mean_latency()
    print(f"\nmean fetch latency: {plain.mean_latency() * 1000:.0f} ms -> "
          f"{distilled.mean_latency() * 1000:.0f} ms "
          f"({speedup:.1f}x faster)")
    print(f"images distilled: {distilled.figures['distilled_count']} of "
          f"{len(distilled.figures['fetches'])}")


if __name__ == "__main__":
    main()
