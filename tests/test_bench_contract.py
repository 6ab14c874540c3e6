"""The package surface the benchmark's span tracer relies on.

``perfbench/spans.py`` wraps module attributes by name and reads counts from
the wrapped calls' return values. A wrap point that no longer resolves, or a
return value without the fields a count hook reads, leaves per-layer metrics
absent from a traced run, which then fails as malformed output. These tests
load the tracer by path, without changing it, and check that contract.
"""

import importlib
from pathlib import Path
import types

import numpy as np
import pytest

from irsa_rl.core import simulate_frame
from irsa_rl.env import TrainConfig, new_nodes, step_frame, train

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    """The tracer module, run from its source text (no bytecode is written)."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


WRAP_POINTS = _load_spans().WRAP_POINTS


@pytest.mark.parametrize(
    "module,attr",
    [(m, a) for m, a, _ in WRAP_POINTS],
    ids=[f"{m}.{a}" for m, a, _ in WRAP_POINTS],
)
def test_wrap_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"irsa_rl.{module}"), attr))


def test_count_hook_fields_exist():
    cfg = TrainConfig(load=0.5, episodes=2, iters_per_episode=5, seed=3)
    result = step_frame(new_nodes(cfg), cfg, np.random.default_rng(0))
    for field in ("transmitting", "decoded", "dropped"):
        assert isinstance(getattr(result, field), int), field

    assert isinstance(simulate_frame({0: [0], 1: [0, 1]}).iterations, int)

    nodes, record = train(cfg)
    assert len(record.resets) == len(record)
    table = nodes[0].q
    assert len(table) > 0
    assert all(len(entry) == 4 for entry in table.items())
