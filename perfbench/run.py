"""irsa-rl benchmark: one closed-loop client per workload, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_cell --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs a fixed number of ops untraced, then the same ops with
every wrap point of spans.py installed, and reports the per-layer metrics.
``--workload all`` runs each workload in its own process, one after another.
The last line of standard output is one JSON object; a fuller record goes to
perfbench/results/. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from time import perf_counter

from hostclock import REFERENCE_S, HostClock, reference_seconds

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

#: End-to-end metrics of an untraced run and their units.
END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}
#: Fresh processes timed from spawn to the end of their warm-up op.
SETUP_SAMPLES = 3
#: After each op the reference kernel (hostclock.py) runs until it has taken
#: this share of the op's time.
CALIBRATION_SHARE = 0.1
#: An untraced run stops starting ops after this many seconds even when it
#: has fewer than its minimum op count, so it always ends within 180 s.
HARD_STOP_S = 120.0
#: Tail ops: op_s_tail is the latency with this many ops above it.
TAIL_OPS = 10


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as a setup probe spawned at this CLOCK_MONOTONIC time.
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _commit() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(seed, workload, trace):
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload,
        "trace": trace,
    }


def _tail(latencies):
    """(latency with TAIL_OPS ops above it, the percentile it stands for)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_OPS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_OPS - 1], 100.0 * (n - TAIL_OPS) / n


class Client:
    """One closed-loop client: runs ops one at a time and checks each."""

    def __init__(self, workload, call=None):
        self.workload = workload
        self.call = call or (lambda name, fn, *args, **kwargs: fn(*args, **kwargs))
        self.ops = []

    def op(self, index):
        """Run and check op ``index``; returns its latency in seconds."""
        wl = self.workload
        error = None
        t0 = perf_counter()
        try:
            output = wl.run(index, self.call)
        except Exception as exc:  # an op that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        if error is None:
            try:
                value, failures = wl.check(index, output)
            except Exception as exc:
                value, failures = math.nan, [f"check raised {type(exc).__name__}: {exc}"]
        else:
            value, failures = math.nan, [error]
        self.ops.append({
            "index": index,
            "seed": wl.seed(index),
            "latency_s": latency,
            "frames": wl.frames(index),
            "value": None if failures else value,
            "failures": failures,
        })
        return latency

    def failed(self):
        return sum(1 for op in self.ops if op["failures"])

    def quality(self):
        values = {op["index"]: op["value"] for op in self.ops if not op["failures"]}
        return self.workload.quality(values) if values else None


def _setup_probe(workload_name, seed):
    """Spawn a fresh process that imports, builds inputs and runs the warm-up
    op; returns the wall time from spawn to the end of the warm-up op, or None
    and an error when it failed."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
           "--seed", str(seed), "--seconds", "0", "--setup-probe", repr(spawned)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=40)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "setup probe timed out"
    if proc.returncode != 0:
        return None, f"setup probe exited with {proc.returncode}: {err.decode()[-300:]}"
    return json.loads(out.decode().splitlines()[-1])["setup_s"], None


def _probe(workload, spawned):
    """Body of a setup probe: warm up, then report the time since ``spawned``."""
    # Only the time counts here; the parent checks its own warm-up.
    _warm_up(Client(workload))
    print(json.dumps({"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawned}))


def _reference_latencies(ops):
    """Latencies of ops that carry a ``kernel_s``, in reference seconds."""
    return reference_seconds([op["latency_s"] for op in ops], [op["kernel_s"] for op in ops])


def _warm_up(client):
    """Run the untimed warm-up op and drop it from the client's record."""
    client.op(-1)
    warm = client.ops.pop()
    return [f"warm-up: {f}" for f in warm["failures"]]


def run_untraced(workload, seconds):
    failures = []
    setup = []
    for _ in range(SETUP_SAMPLES):
        elapsed, error = _setup_probe(workload.name, workload.bench_seed)
        if error:
            failures.append(error)
        else:
            setup.append(elapsed)
    client = Client(workload)
    failures += _warm_up(client)

    clock = HostClock()
    start = perf_counter()
    index = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= HARD_STOP_S or (index >= workload.min_ops and elapsed >= seconds):
            break
        latency = client.op(index)
        client.ops[-1]["kernel_s"] = clock.sample(CALIBRATION_SHARE * latency)
        index += 1

    wall = [op["latency_s"] for op in client.ops]
    latencies = _reference_latencies(client.ops)
    tail, percentile = _tail(latencies)
    frames = sum(op["frames"] for op in client.ops)
    metrics = {
        "setup_s": statistics.median(setup) if setup else None,
        "frames_per_s": frames / sum(latencies),
        "op_s_p50": statistics.median(latencies),
        "op_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "setup_samples_s": setup,
        "op_s_tail": {"percentile": percentile, "ops": len(latencies)},
        "reference_kernel": {"reference_s": REFERENCE_S, "calls": len(clock.samples),
                             "median_s": statistics.median(clock.samples)},
        "wall_clock": {
            "frames_per_s": frames / sum(wall),
            "op_s_p50": statistics.median(wall),
            "op_s_tail": _tail(wall)[0],
        },
    }
    return client, metrics, END_TO_END, failures, extra


def run_traced(workload):
    from spans import LAYER_UNITS, Tracer, layer_metrics
    from workloads import check_deployment

    failures = []
    clock = HostClock()
    plain = Client(workload)
    failures += _warm_up(plain)
    for index in range(workload.trace_ops):
        latency = plain.op(index)
        plain.ops[-1]["kernel_s"] = clock.sample(CALIBRATION_SHARE * latency)

    tracer = Tracer()
    traced = Client(workload, call=tracer.call)
    skipped = []
    tracer.install()
    try:
        for index in range(workload.trace_ops):
            tracer.op = index
            latency = traced.op(index)
            traced.ops[-1]["kernel_s"] = clock.sample(CALIBRATION_SHARE * latency)
            outputs = tracer.take_outputs()
            trained = [(args[0], result[0]) for args, result in outputs["env.train"]]
            deployed = [result for _args, result in outputs["env.deployed_policies"]]
            try:
                problems = check_deployment(trained, deployed)
            except (AttributeError, TypeError) as exc:
                skipped.append(f"op {index}: deployment check skipped ({exc})")
                problems = []
            traced.ops[-1]["failures"] += problems
    finally:
        tracer.uninstall()

    metrics, absent = layer_metrics(tracer, workload.trace_ops)
    # Both halves in reference seconds, so host drift between them cancels.
    metrics["trace.overhead_frac"] = (
        sum(_reference_latencies(traced.ops)) / sum(_reference_latencies(plain.ops)) - 1.0
    )
    spans_path = os.path.join(
        RESULTS_DIR, f"spans_{workload.name}_seed{workload.bench_seed}.npz"
    )
    tracer.save(spans_path)
    units = {name: LAYER_UNITS[name] for name in metrics}
    for op in traced.ops:
        op["traced"] = True
    extra = {
        "missing_wrap_points": tracer.missing,
        "uncounted_spans": sorted(tracer.uncounted),
        "absent_metrics": absent,
        "skipped_checks": skipped,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "span_count": len(tracer),
    }
    client = Client(workload)
    client.ops = plain.ops + traced.ops
    return client, metrics, units, failures, extra


def run_workload(args):
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        if args.setup_probe is not None:
            _probe(workload, args.setup_probe)
            return 0
        if args.trace:
            client, metrics, units, failures, extra = run_traced(workload)
        else:
            client, metrics, units, failures, extra = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(client.ops)
    failed = client.failed()
    failures += [f"op {op['index']}: {f}" for op in client.ops for f in op["failures"]]
    quality = client.quality()
    print(f"{workload.name}: {attempted} ops, {failed} failed"
          f" ({'traced' if args.trace else 'untraced'}, seed {args.seed})")
    for name, value in metrics.items():
        print(f"  {name:<42} {value if value is not None else math.nan:>14.6g} {units[name]}")
    for name, value in extra.get("wall_clock", {}).items():
        label = f"{name} (wall clock)"
        print(f"  {label:<42} {value if value is not None else math.nan:>14.6g} {units[name]}")
    if quality:
        print(f"  {quality[0]:<42} {quality[2]:>14.6g} {quality[1]}")
    print(f"  {'failed_frac':<42} {failed / attempted:>14.6g} fraction")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")

    record = {
        "meta": {**_metadata(args.seed, workload.name, args.trace),
                 "ops": attempted, "seconds": args.seconds},
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "quality": quality and {"name": quality[0], "unit": quality[1], "value": quality[2]},
        "failed_frac": failed / attempted,
        "failures": failures,
        **extra,
        "ops": client.ops,
    }
    path = os.path.join(RESULTS_DIR, f"{workload.name}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


def run_all(args):
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return 0


def _check_manifest():
    """Fail unless BENCHMARK.json names exactly the metrics this file reports."""
    from spans import LAYER_UNITS

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return False
    declared = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    return declared == END_TO_END and layers == LAYER_UNITS


def main(argv=None):
    args = _parse_args(argv)
    if not _check_manifest():
        print("BENCHMARK.json does not match the metrics perfbench reports", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "irsa_rl", "__init__.py")):
        print(f"irsa_rl sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
