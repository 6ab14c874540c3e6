"""Recompute the pinned throughputs of the saturated_eval shapes.

Run from the repository root:  python3 perfbench/pins.py

Each shape is evaluated over its ``pin_frames`` frames from ``pin_rng``, a
seed-sequence stream that no workload op draws. Paste the printed values into
``SHAPES`` in workloads.py.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from irsa_rl.env import evaluate  # noqa: E402

from workloads import PIN_ENTROPY, SHAPES, pin_rng  # noqa: E402


def main() -> int:
    print(f"pin entropy {PIN_ENTROPY}")
    for index, shape in enumerate(SHAPES):
        summary = evaluate(shape.policy, shape.config, shape.pin_frames, pin_rng(index))
        print(
            f"{shape.label}: pin={summary.mean!r} pin_se={summary.stderr!r} "
            f"pin_frames={shape.pin_frames}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
