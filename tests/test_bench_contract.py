"""The package surface the benchmark's span tracer relies on.

``perfbench/spans.py`` wraps module attributes by name and reads counts from
the wrapped calls' return values. A wrap point that no longer resolves, or a
return value without the fields a count hook reads, leaves per-layer metrics
absent from a traced run, which then fails as malformed output. These tests
load the tracer by path, without changing it, and check that contract.
"""

from collections import Counter
from dataclasses import replace
import importlib
from pathlib import Path
import threading
import types

import numpy as np
import pytest

from irsa_rl import core, env, harness
from irsa_rl.core import PURE_ALOHA, simulate_frame
from irsa_rl.env import ArrivalModel, TrainConfig, new_nodes, step_frame, train

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


def _count_calls(monkeypatch, module, names) -> Counter:
    """Replace ``module``'s ``names`` with wrappers that count their calls."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_experiments_call_the_wrapped_harness_names(monkeypatch):
    # The tracer replaces these harness attributes; an experiment that bound
    # one of them elsewhere would run untraced and leave its spans empty.
    names = ("train", "deployed_policies", "simulate_saturated")
    calls = _count_calls(monkeypatch, harness, names)

    short = replace(harness.CONVERGENCE, episodes=1, iters_per_episode=5)
    base = TrainConfig(episodes=1, iters_per_episode=5)
    experiments = {
        "sweep": lambda: harness.run_sweep(
            harness.SweepSpec(loads=(0.5,), variants=("dec_rl",), repetitions=1, trials=5),
            base,
        ),
        "virtual-compare": lambda: harness.compare_virtual(
            harness.SweepSpec(repetitions=1, trials=5), short, (5,)
        ),
        "waterfall": lambda: harness.waterfall_suite(
            harness.SweepSpec(loads=(0.5,), repetitions=1, trials=5), base
        ),
    }
    for experiment, run in experiments.items():
        calls.clear()
        run()
        for name in names:
            assert calls[name] > 0, (experiment, name)


def test_slotted_aloha_calls_the_wrapped_names(monkeypatch):
    # evaluate reaches the Slotted ALOHA runner through simulate_saturated's
    # core global, and a slotted_aloha sweep cell through harness's
    # simulate_saturated, so both stay traced.
    aloha = _count_calls(monkeypatch, core, ("simulate_slotted_aloha",))
    saturated = _count_calls(monkeypatch, harness, ("simulate_saturated",))
    env.evaluate(PURE_ALOHA, TrainConfig(load=0.5), 5, np.random.default_rng(0))
    assert aloha["simulate_slotted_aloha"] == 1
    harness.run_sweep(
        harness.SweepSpec(loads=(0.5,), variants=("slotted_aloha",), repetitions=2, trials=5),
        TrainConfig(),
    )
    assert saturated["simulate_saturated"] == 2
    assert aloha["simulate_slotted_aloha"] == 3


def test_training_frames_call_the_wrapped_env_names(monkeypatch):
    # The tracer replaces these env attributes; a step_frame that bound one of
    # them locally would train untraced.
    calls = _count_calls(
        monkeypatch, env, ("select_action", "simulate_frame", "q_update", "batch_update")
    )
    base = TrainConfig(load=0.5, episodes=2, iters_per_episode=5, seed=3)
    for virtual, update in ((False, "q_update"), (True, "batch_update")):
        calls.clear()
        train(replace(base, virtual_experience=virtual))
        for name in ("select_action", "simulate_frame", update):
            assert calls[name] > 0, (virtual, name)


@pytest.mark.parametrize(
    "cfg",
    [
        TrainConfig(load=1.0, episodes=3, iters_per_episode=60, seed=5),
        TrainConfig(load=0.6, arrivals=ArrivalModel("poisson", 0.8), episodes=2, seed=6),
        TrainConfig(load=0.5, episodes=2, iters_per_episode=0, seed=7),
    ],
    ids=["bernoulli", "poisson", "no-frames"],
)
def test_train_steps_and_resets_through_the_wrapped_env_names(monkeypatch, cfg):
    # The env.step_frame and env.reset_episode spans are per frame and per
    # reset: train calls each through its module global, once per frame and
    # once per episode start or bad-episode reset.
    calls = _count_calls(monkeypatch, env, ("step_frame", "reset_episode"))
    _, record = train(cfg)
    assert calls["step_frame"] == cfg.total_iterations
    assert calls["reset_episode"] == cfg.episodes + sum(record.resets)
    if cfg.iters_per_episode:
        assert sum(record.resets) > 0


def test_wrapped_names_run_on_the_calling_thread(monkeypatch):
    # The tracer keeps one span stack per process, so a wrapped call made on
    # the Slotted ALOHA runner's draw-ahead helper would nest its span under
    # whatever the calling thread has open. 1000 users in 200 frames take
    # four chunks, so the helper draws three of them.
    threads = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            threads.append(threading.current_thread())
            return fn(*args, **kwargs)

        return wrapper

    for module, attr, _ in WRAP_POINTS:
        owner = importlib.import_module(f"irsa_rl.{module}")
        monkeypatch.setattr(owner, attr, recording(getattr(owner, attr)))
    env.evaluate(PURE_ALOHA, TrainConfig(n_slots=1000, load=1.0), 200, np.random.default_rng(0))
    assert len(threads) == 2  # env.simulate_saturated, core.simulate_slotted_aloha
    assert all(thread is threading.main_thread() for thread in threads)
