"""The three benchmark workloads: what one op does and how its output is checked.

Every op calls the package only through its public functions. ``run`` is the
timed part; ``check`` runs after the clock stops and returns the list of
failed checks (empty when the op's outputs are correct). The checks test
invariants that hold for any RNG stream, plus pinned throughputs that are
compared within ``PIN_Z`` standard errors.
"""

import contextlib
import csv
import io
import math
import os

import numpy as np

from irsa_rl import cli
from irsa_rl.core import BASELINE_IRSA, PURE_ALOHA, uniform_distribution
from irsa_rl.env import TrainConfig, evaluate
from irsa_rl.harness import convergence_config, learning_curves

#: Seed-sequence spawn-key tag of the pins; workloads use tags 1, 2 and 3, so
#: no workload op ever draws a pin's stream.
PIN_TAG = 0
#: Entropy of the pin streams (python3 perfbench/pins.py recomputes the pins).
PIN_ENTROPY = 20180517
#: A shape fails its check when its throughput is further than this many
#: combined standard errors (op and pin) from the pin.
PIN_Z = 5.0


def op_seed(bench_seed: int, tag: int, index: int) -> int:
    """32-bit seed of op ``index`` (index -1 is the warm-up op)."""
    seq = np.random.SeedSequence(bench_seed % 2**64, spawn_key=(tag, index + 1))
    return int(seq.generate_state(1, np.uint32)[0])


def pin_rng(shape_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(PIN_ENTROPY, spawn_key=(PIN_TAG, shape_index))
    )


class SaturatedShape:
    """One saturated-frame evaluation: a shared policy at N slots and load G."""

    def __init__(self, label, policy, n_slots, load, frames, pin, pin_se, pin_frames):
        self.label = label
        self.policy = policy
        self.config = TrainConfig(n_slots=n_slots, load=load)
        self.frames = frames
        # Mean throughput and its standard error, measured by pins.py over
        # pin_frames frames from pin_rng(index of this shape in SHAPES).
        self.pin = pin
        self.pin_se = pin_se
        self.pin_frames = pin_frames


#: The saturated_eval mix. Frame counts are sized so each shape takes about
#: 0.12 s per op on a 2-core x86 host at the benchmark's first commit.
SHAPES = (
    SaturatedShape("irsa_N10_G1.0", BASELINE_IRSA, 10, 1.0, 4000,
                   pin=0.1193445, pin_se=0.0003674906486505939, pin_frames=200_000),
    SaturatedShape("uniform4_N10_G0.8", uniform_distribution(4), 10, 0.8, 3600,
                   pin=0.5312965, pin_se=0.0006028973485302571, pin_frames=200_000),
    SaturatedShape("irsa_N50_G0.8", BASELINE_IRSA, 50, 0.8, 640,
                   pin=0.5653216, pin_se=0.0011160682253493614, pin_frames=50_000),
    SaturatedShape("aloha_N1000_G1.0", PURE_ALOHA, 1000, 1.0, 2600,
                   pin=0.36808559999999996, pin_se=6.829872288052644e-05, pin_frames=50_000),
)

#: Reference IRSA at N=10, G=1.0: the value dec_rl must beat (paper ordering).
IRSA_PIN = SHAPES[0]


class Workload:
    """One closed-loop client: ``run`` op i, then ``check`` its output."""

    name = ""
    tag = 0
    #: Timed ops of an untraced run, at least; 11 ops leave ten beyond the
    #: tail percentile.
    min_ops = 11
    #: Ops of a traced run (each done once untraced and once traced).
    trace_ops = 1

    def __init__(self, bench_seed: int, scratch: str):
        self.bench_seed = bench_seed
        self.scratch = scratch

    def seed(self, index: int) -> int:
        return op_seed(self.bench_seed, self.tag, index)

    def frames(self, index: int) -> int:
        raise NotImplementedError

    def run(self, index: int, call):
        raise NotImplementedError

    def check(self, index: int, output) -> tuple[float, list[str]]:
        """(quality value of the op, failed checks)."""
        raise NotImplementedError

    def quality(self, values: dict[int, float]) -> tuple[str, str, float]:
        """(name, unit, value) of the workload's output metric over its ops."""
        raise NotImplementedError


class SweepCell(Workload):
    """One dec_rl sweep cell at G=1.0, N=10 through ``irsa-rl sweep``."""

    name = "sweep_cell"
    tag = 1
    trace_ops = 10
    load = 1.0
    trials = 250

    def __init__(self, bench_seed, scratch):
        super().__init__(bench_seed, scratch)
        # Repetitions, trials and the variant go in the config file: the
        # --reps/--trials/--variant flags of `irsa-rl sweep` raise NameError.
        self.config_path = os.path.join(scratch, "sweep_cell.cfg")
        with open(self.config_path, "w") as fh:
            fh.write(
                f"load = {self.load}\nloads = {self.load}\nn_slots = 10\n"
                f"variants = dec_rl\nrepetitions = 1\ntrials = {self.trials}\n"
            )
        self.out_dir = os.path.join(scratch, "sweep_cell_out")
        self.csv_path = os.path.join(self.out_dir, "sweep.csv")
        self.op_frames = TrainConfig(n_slots=10, load=self.load).total_iterations + self.trials

    def frames(self, index):
        return self.op_frames

    def run(self, index, call):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.csv_path)
        argv = ["sweep", "--config", self.config_path, "--seed", str(self.seed(index)),
                "--out", self.out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            return call("cli.main", cli.main, argv)

    def check(self, index, exit_code):
        if exit_code != 0:
            return math.nan, [f"irsa-rl sweep exited with {exit_code}"]
        with open(self.csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1:
            return math.nan, [f"sweep.csv has {len(rows)} rows, expected 1"]
        row = rows[0]
        value = float(row["mean"])
        failures = []
        if row["variant"] != "dec_rl":
            failures.append(f"sweep.csv variant is {row['variant']!r}")
        if not 0.0 <= value <= self.load:
            failures.append(f"throughput {value} outside [0, {self.load}]")
        if not value > IRSA_PIN.pin:
            failures.append(f"dec_rl throughput {value} does not beat IRSA pin {IRSA_PIN.pin}")
        return value, failures

    def quality(self, values):
        return "throughput", "packets/slot", float(np.mean(list(values.values())))


class VirtualTrain(Workload):
    """One convergence-preset learning curve with virtual experience."""

    name = "virtual_train"
    tag = 2
    trace_ops = 3
    load = 0.7

    def __init__(self, bench_seed, scratch):
        super().__init__(bench_seed, scratch)
        cfg = convergence_config(self.load, virtual=True)
        self.episodes = cfg.episodes
        self.buffer = cfg.params.B
        self.op_frames = cfg.total_iterations

    def frames(self, index):
        return self.op_frames

    def run(self, index, call):
        return call("harness.learning_curves", learning_curves, self.load,
                    repetitions=1, master_seed=self.seed(index), virtual=True)

    def check(self, index, curves):
        curves = np.asarray(curves, dtype=float)
        if curves.shape != (1, self.episodes):
            return math.nan, [f"trace shape {curves.shape}, expected (1, {self.episodes})"]
        failures = []
        if not np.all(np.isfinite(curves)):
            failures.append("trace has non-finite entries")
        elif curves.min() < -self.buffer or curves.max() > 0.0:
            failures.append(f"episode mean rewards leave [-{self.buffer}, 0]")
        return float(curves[0, -10:].mean()), failures

    def quality(self, values):
        return "final_reward", "reward", float(np.mean(list(values.values())))


class SaturatedEval(Workload):
    """Frozen-policy saturated evaluation, cycling through ``SHAPES``."""

    name = "saturated_eval"
    tag = 3
    trace_ops = 12

    def shape(self, index):
        return SHAPES[index % len(SHAPES)]

    def frames(self, index):
        return self.shape(index).frames

    def run(self, index, call):
        shape = self.shape(index)
        rng = np.random.default_rng(self.seed(index))
        return call("env.evaluate", evaluate, shape.policy, shape.config, shape.frames, rng)

    def check(self, index, summary):
        shape = self.shape(index)
        load = shape.config.load
        failures = []
        if summary.n != shape.frames:
            failures.append(f"{shape.label}: {summary.n} trials, expected {shape.frames}")
        if not 0.0 <= summary.mean <= load:
            failures.append(f"{shape.label}: throughput {summary.mean} outside [0, {load}]")
        tolerance = PIN_Z * math.hypot(summary.stderr, shape.pin_se)
        if not abs(summary.mean - shape.pin) <= tolerance:
            failures.append(
                f"{shape.label}: throughput {summary.mean} is more than {PIN_Z} "
                f"standard errors from its pin {shape.pin}"
            )
        return summary.mean, failures

    def quality(self, values):
        per_shape = {}
        for index, value in values.items():
            per_shape.setdefault(index % len(SHAPES), []).append(value)
        return "throughput", "packets/slot", float(np.mean([np.mean(v) for v in per_shape.values()]))


WORKLOADS = {w.name: w for w in (SweepCell, VirtualTrain, SaturatedEval)}


def check_deployment(trained, deployed) -> list[str]:
    """Checks on the tables and policies a traced op trained and deployed.

    ``trained`` holds (TrainConfig, nodes) pairs and ``deployed`` lists of
    degree distributions. Every Q value must lie in [-B/(1-gamma), 0]: rewards
    are -b with b in [0, B], tables start at 0, and each update is a convex
    combination with a learning rate of at most 1.
    """
    failures = []
    for config, nodes in trained:
        floor = -config.params.B / (1.0 - config.params.gamma)
        slack = 1e-9 * abs(floor)
        for node in nodes:
            values = [q for _h, _a, q, _visits in node.q.items()]
            if values and not (min(values) >= floor - slack and max(values) <= 0.0):
                failures.append(f"Q values leave [{floor}, 0]")
                break
    for policies in deployed:
        for policy in policies:
            if abs(sum(policy.coeffs) - 1.0) > 1e-9:
                failures.append(f"deployed policy sums to {sum(policy.coeffs)}")
                break
    return failures
