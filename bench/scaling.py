"""Per-layer seconds at several sizes, with a log-log slope per layer.

    python3 bench/scaling.py

Runs the first document of each workload, generated from seed 1 at 1000,
2000 and 4000 classes, once through `layers.pipeline` in this process and
prints a Markdown table. A slope near 1 means linear growth, near 2
quadratic. README.md quotes these figures for reference; they are not
benchmark metrics.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layers  # noqa: E402
import workloads  # noqa: E402

SIZES = (1000, 2000, 4000)
SEED = 1

GENERATORS = {
    "deep-chain": lambda seed, n: workloads.deep_chain(seed, n)[0],
    "wide-flat": lambda seed, n: workloads.wide_flat(seed, n)[0],
    "daml-dag": lambda seed, n: workloads.daml_dag(seed, n)[0],
}


def slope(sizes: tuple[int, ...], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(t, 1e-9)) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main() -> int:
    head = " | ".join(f"{n}" for n in SIZES)
    print(f"| workload | layer | {head} | slope |")
    print("|---|---|" + "---:|" * (len(SIZES) + 1))
    for workload, generate in GENERATORS.items():
        per_layer: dict[str, list[float]] = {}
        for n in SIZES:
            tracer = layers.Tracer()
            layers.pipeline(generate(SEED, n), tracer.step)
            for span in tracer.spans:
                per_layer.setdefault(span.name, []).append(span.end - span.start)
        for name in layers.LAYER_STEPS:
            seconds = per_layer[name]
            cells = " | ".join(f"{t:.3f}" for t in seconds)
            print(f"| {workload} | {name} | {cells} | "
                  f"{slope(SIZES, seconds):.2f} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
