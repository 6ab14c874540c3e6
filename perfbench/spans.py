"""Span tracer for the traced benchmark run.

The tracer replaces module attributes that callers look up at call time
(``WRAP_POINTS``) with timing wrappers, and the benchmark opens one more span
around its own call into the package (``CALL_SITES``). Each span records its
name, start, end, parent span and op id in flat arrays that stay in memory
until ``save``. A span's self time is its duration minus the durations of its
direct children; the wrappers nest, so children never overlap.

Counts come from the wrapped calls' return values (``FrameResult``,
``DecodeOutcome``, the ``batch_update`` return value, class lengths). A wrap
point the package no longer has, or a return value without the expected
fields, makes the metrics that depend on it absent instead of failing the run.
"""

from array import array
from collections import Counter
import importlib
import os
from time import perf_counter

import numpy as np

#: (module of irsa_rl, attribute, span name). The span is named after the
#: layer that implements the function, not the module it is looked up in.
WRAP_POINTS = (
    ("cli", "run_sweep", "harness.run_sweep"),
    ("cli", "emit_report", "harness.emit_report"),
    ("harness", "train", "env.train"),
    ("harness", "deployed_policies", "env.deployed_policies"),
    ("harness", "simulate_saturated", "core.simulate_saturated"),
    ("env", "simulate_saturated", "core.simulate_saturated"),
    ("env", "step_frame", "env.step_frame"),
    ("env", "reset_episode", "env.reset_episode"),
    ("env", "select_action", "agent.select_action"),
    ("env", "simulate_frame", "core.simulate_frame"),
    ("env", "q_update", "agent.q_update"),
    ("env", "batch_update", "virtual.batch_update"),
    ("env", "extract_policy", "agent.extract_policy"),
    ("virtual", "q_update", "agent.q_update"),
    ("virtual", "enumerate_class", "virtual.enumerate_class"),
    ("core", "place_replicas", "core.place_replicas"),
    ("core", "sic_decode", "core.sic_decode"),
    ("core", "simulate_slotted_aloha", "core.simulate_slotted_aloha"),
)

#: Spans the benchmark opens around its own calls into the package.
CALL_SITES = ("cli.main", "harness.learning_curves", "env.evaluate")


def _count_step_frame(counts, args, result):
    counts["frames"] += 1
    counts["transmissions"] += result.transmitting
    counts["step_transmissions"] += result.transmitting
    counts["decodes"] += result.decoded
    counts["drops"] += result.dropped


def _count_saturated(counts, args, result):
    frames = len(result)
    counts["frames"] += frames
    counts["saturated_frames"] += frames
    counts["transmissions"] += len(args[0]) * frames
    counts["decodes"] += int(np.sum(result))


def _count_aloha(counts, args, result):
    counts["aloha_frames"] += len(result)


def _count_sic(counts, args, result):
    counts["peel_passes"] += result.iterations


def _count_batch(counts, args, result):
    counts["virtual_members"] += int(result)


def _count_class(counts, args, result):
    counts["class_members"] += len(result)


def _count_train(counts, args, result):
    nodes, record = result
    counts["bad_resets"] += int(sum(record.resets))
    counts["q_entries"] += sum(len(node.q) for node in nodes)
    counts["trains"] += 1


def _count_report(counts, args, result):
    counts["report_bytes"] += sum(os.path.getsize(path) for path in result)


#: Span name -> hook reading counts from (positional args, return value).
COUNT_HOOKS = {
    "env.step_frame": _count_step_frame,
    "core.simulate_saturated": _count_saturated,
    "core.simulate_slotted_aloha": _count_aloha,
    "core.sic_decode": _count_sic,
    "virtual.batch_update": _count_batch,
    "virtual.enumerate_class": _count_class,
    "env.train": _count_train,
    "harness.emit_report": _count_report,
}

#: Return values the benchmark checks after a traced op.
KEEP_OUTPUTS = ("env.train", "env.deployed_policies")


class Tracer:
    """Records spans and counts for the wrap points it installs."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.installed: set[str] = set(CALL_SITES)
        self.missing: list[str] = []
        self.uncounted: set[str] = set()
        self.outputs: dict[str, list] = {name: [] for name in KEEP_OUTPUTS}
        self._restore: list[tuple] = []
        self._cache = None

    def __len__(self) -> int:
        """Number of spans recorded."""
        return len(self._start)

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self._span(name)(fn, args, kwargs)

    def _span(self, name):
        """Recorder of spans called ``name``: ``record(fn, args, kwargs)``."""
        nid = self._id(name)
        hook = COUNT_HOOKS.get(name)
        keep = name in KEEP_OUTPUTS
        stack = self._stack
        names, parents, ops, starts, ends = self._name, self._parent, self._op, self._start, self._end

        def record(fn, args, kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None and name not in self.uncounted:
                try:
                    hook(self.counts, args, result)
                except (AttributeError, TypeError, ValueError):
                    self.uncounted.add(name)
            if keep:
                self.outputs[name].append((args, result))
            return result

        return record

    def _wrapper(self, name, fn):
        record = self._span(name)

        def traced(*args, **kwargs):
            return record(fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every wrap point the package has; record the missing ones."""
        for module_name, attr, name in WRAP_POINTS:
            try:
                module = importlib.import_module(f"irsa_rl.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))
            self.installed.add(name)
            if name == "virtual.enumerate_class" and hasattr(original, "cache_info"):
                self._cache = (original, original.cache_info())

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def take_outputs(self) -> dict[str, list]:
        outputs = self.outputs
        self.outputs = {name: [] for name in KEEP_OUTPUTS}
        return outputs

    # -- reading ----------------------------------------------------------

    def _arrays(self):
        return (
            np.asarray(self._name, dtype=np.int32),
            np.asarray(self._parent, dtype=np.int32),
            np.asarray(self._start, dtype=np.float64),
            np.asarray(self._end, dtype=np.float64),
        )

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds)."""
        name, parent, start, end = self._arrays()
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        own = duration - children
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=duration, minlength=len(self.names))
        self_total = np.bincount(name, weights=own, minlength=len(self.names))
        return {
            n: (int(calls[i]), float(total[i]), float(self_total[i]))
            for i, n in enumerate(self.names)
        }

    def cache_hit_ratio(self):
        if self._cache is None:
            return None
        original, before = self._cache
        after = original.cache_info()
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        return hits / lookups if lookups else 0.0

    def save(self, path: str) -> None:
        name, parent, start, end = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            op=np.asarray(self._op, dtype=np.int32),
            start=start,
            end=end,
        )


def _ratio(a, b):
    return a / b if b else 0.0


class Totals:
    """What a metric reads: per-span calls and seconds, hook counts, op count."""

    def __init__(self, tracer: Tracer, ops: int):
        self.spans = tracer.span_totals()
        self.counts = tracer.counts
        self.ops = ops

    def calls(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[0]

    def seconds(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[1]

    def self_seconds(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[2]

    def count(self, key):
        return self.counts.get(key, 0)


#: (name, unit, spans that must be wrapped, spans whose hook counts it reads,
#: value from a Totals). ``.s`` and ``.self_s`` metrics are seconds per op.
METRICS = []


def _metric(name, unit, spans, counted, value):
    METRICS.append((name, unit, tuple(spans), tuple(counted), value))


def _calls(span):
    _metric(f"{span}.calls", "count", [span], [], lambda t: t.calls(span))


def _us_per_call(span):
    _metric(f"{span}.us_per_call", "us", [span], [],
            lambda t: 1e6 * _ratio(t.seconds(span), t.calls(span)))


def _self_us_per_call(span):
    _metric(f"{span}.self_us_per_call", "us", [span], [],
            lambda t: 1e6 * _ratio(t.self_seconds(span), t.calls(span)))


def _s_per_op(span):
    _metric(f"{span}.s", "s", [span], [], lambda t: t.seconds(span) / t.ops)


def _self_s_per_op(span):
    _metric(f"{span}.self_s", "s", [span], [], lambda t: t.self_seconds(span) / t.ops)


def _us_per_frame(span, frames_key):
    _metric(f"{span}.us_per_frame", "us", [span], [span],
            lambda t: 1e6 * _ratio(t.seconds(span), t.count(frames_key)))


def _per(name, unit, span, key, per_span):
    """Hook count ``key`` per call of ``per_span``."""
    _metric(name, unit, [span, per_span], [span],
            lambda t: _ratio(t.count(key), t.calls(per_span)))


_FRAME_SPANS = ["env.step_frame", "core.simulate_saturated"]

_calls("core.place_replicas")
_us_per_call("core.place_replicas")
_calls("core.sic_decode")
_us_per_call("core.sic_decode")
_self_us_per_call("core.simulate_frame")
_us_per_frame("core.simulate_saturated", "saturated_frames")
_us_per_frame("core.simulate_slotted_aloha", "aloha_frames")
_per("core.peel_passes_per_frame", "passes/frame", "core.sic_decode", "peel_passes",
     "core.sic_decode")
_metric("core.decoded_per_tx", "ratio", _FRAME_SPANS, _FRAME_SPANS,
        lambda t: _ratio(t.count("decodes"), t.count("transmissions")))

_calls("agent.select_action")
_us_per_call("agent.select_action")
_calls("agent.q_update")
_us_per_call("agent.q_update")
_metric("agent.q_update.per_action", "count/action", ["agent.q_update", "agent.select_action"],
        [], lambda t: _ratio(t.calls("agent.q_update"), t.calls("agent.select_action")))
_s_per_op("agent.extract_policy")
_metric("agent.q_entries", "count", ["env.train"], ["env.train"],
        lambda t: _ratio(t.count("q_entries"), t.count("trains")))

_calls("virtual.batch_update")
_us_per_call("virtual.batch_update")
_self_us_per_call("virtual.batch_update")
_per("virtual.members_per_batch", "count/batch", "virtual.batch_update", "virtual_members",
     "virtual.batch_update")
_metric("virtual.member_yield", "ratio", ["virtual.batch_update", "virtual.enumerate_class"],
        ["virtual.batch_update", "virtual.enumerate_class"],
        lambda t: _ratio(t.count("virtual_members"), t.count("class_members")))
# None: layer_metrics reads it from the lru_cache statistics.
_metric("virtual.enumerate_class.hit_ratio", "ratio", ["virtual.enumerate_class"], [], None)

_s_per_op("env.train")
_calls("env.step_frame")
_self_us_per_call("env.step_frame")
_calls("env.reset_episode")
_metric("env.bad_episode_resets", "count", ["env.train"], ["env.train"],
        lambda t: t.count("bad_resets"))
_per("env.transmitting_per_frame", "count/frame", "env.step_frame", "step_transmissions",
     "env.step_frame")
_per("env.dropped_per_frame", "count/frame", "env.step_frame", "drops", "env.step_frame")
_s_per_op("env.deployed_policies")
_self_s_per_op("env.evaluate")

_self_s_per_op("harness.run_sweep")
_self_s_per_op("harness.learning_curves")
_s_per_op("harness.emit_report")
_metric("harness.emit_report.bytes", "bytes", ["harness.emit_report"], ["harness.emit_report"],
        lambda t: t.count("report_bytes") / t.ops)
_self_s_per_op("cli.main")

# Exact simulated-statistic totals over the traced ops.
for _key, _spans in (
    ("frames", _FRAME_SPANS),
    ("transmissions", _FRAME_SPANS),
    ("decodes", _FRAME_SPANS),
    ("drops", ["env.step_frame"]),
    ("bad_resets", ["env.train"]),
    ("peel_passes", ["core.sic_decode"]),
    ("virtual_members", ["virtual.batch_update"]),
):
    _metric(f"sim.{_key}", "count", _spans, _spans, lambda t, key=_key: t.count(key))

#: Per-layer metric name -> unit, including the trace overhead.
LAYER_UNITS = {name: unit for name, unit, *_ in METRICS}
LAYER_UNITS["trace.overhead_frac"] = "fraction"


def layer_metrics(tracer: Tracer, ops: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over ``ops`` traced ops, and the names left absent."""
    totals = Totals(tracer, ops)
    values, absent = {}, []
    for name, _unit, spans, counted, value in METRICS:
        if value is None:
            measured = tracer.cache_hit_ratio()
        elif all(span in tracer.installed for span in spans) and not any(
            span in tracer.uncounted for span in counted
        ):
            measured = value(totals)
        else:
            measured = None
        if measured is None:
            absent.append(name)
        else:
            values[name] = measured
    return values, absent
