"""Experiment suite: protocol sweeps, convergence timing, ablations, reports.

Every experiment is deterministic under a master seed: each (experiment,
variant, load, frame size, repetition) cell derives its own seed from the
cell coordinates (``_cell_rng``), so results are byte-identical regardless of
execution order or worker count, and distinct cells never share a stream.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
import csv
import os

import numpy as np

from .agent import LearningParams
from .core import (
    BASELINE_IRSA,
    simulate_saturated,
    simulate_slotted_aloha,
    uniform_distribution,
)
from .env import ArrivalModel, ConfigurationError, TrainConfig, deployed_policies, train
from .stats import Summary, t_interval

__all__ = [
    "VARIANTS",
    "SweepSpec",
    "SweepRow",
    "LOW_LOAD_PARAMS",
    "HIGH_LOAD_PARAMS",
    "CONVERGENCE_PARAMS",
    "convergence_config",
    "run_sweep",
    "epsilon_convergence_time",
    "learning_curves",
    "convergence_report",
    "compare_virtual",
    "waterfall_suite",
    "emit_report",
]

VARIANTS = (
    "slotted_aloha",
    "vanilla_irsa",
    "dec_rl",
    "dec_rl_virtual",
    "random_strategy",
)

#: Learning preset tuned for light traffic (the base configuration).
LOW_LOAD_PARAMS = LearningParams()

#: Learning preset tuned for heavy traffic: shorter horizon, more exploration,
#: and a tighter replica cap, which keeps congested channels sparse.
HIGH_LOAD_PARAMS = LearningParams(epsilon=0.1, gamma=0.9, d=3)

#: Preset for convergence-time experiments: a two-frame window (so one real
#: transition generalizes across every buffer level), a wide action space,
#: and arrivals heavy enough that untrained play starts with a deep backlog
#: transient. Runs are stretched to 3000 iterations so both learners reach a
#: genuine plateau before the convergence scan.
CONVERGENCE_PARAMS = LearningParams(d=8, w=2)


def convergence_config(load: float, virtual: bool = False, seed: int = 0) -> TrainConfig:
    """Training configuration used by the convergence-time experiments."""
    return TrainConfig(
        load=load,
        params=CONVERGENCE_PARAMS,
        arrivals=ArrivalModel("bernoulli", 0.8),
        virtual_experience=virtual,
        episodes=100,
        seed=seed,
    )


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: loads x frame sizes x protocol variants."""

    loads: tuple[float, ...]
    frame_sizes: tuple[int, ...] = (10,)
    variants: tuple[str, ...] = ("slotted_aloha", "vanilla_irsa", "dec_rl")
    repetitions: int = 20
    trials: int = 250
    level: float = 0.975

    def __post_init__(self):
        # Materialise once: a generator would be exhausted by the checks below.
        for name in ("loads", "frame_sizes", "variants"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not all(0 < g < np.inf for g in self.loads):
            raise ConfigurationError("loads must be positive and finite")
        if not self.variants:
            raise ConfigurationError("need at least one protocol variant")
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigurationError(f"unknown variant {v!r}")
        if any(n < 1 for n in self.frame_sizes):
            raise ConfigurationError("frame sizes must be >= 1")
        if self.repetitions < 1 or self.trials < 1:
            raise ConfigurationError("repetitions and trials must be >= 1")
        if not 0.0 < self.level < 1.0:
            raise ConfigurationError("confidence level must lie in (0, 1)")


@dataclass(frozen=True)
class SweepRow:
    variant: str
    load: float
    n_slots: int
    repetitions: int
    trials: int
    mean: float
    stderr: float
    ci_low: float
    ci_high: float


#: Experiment tags, the first coordinate of every cell key: sweep
#: evaluation and training, learning curves, their bootstrap, the
#: training-length ablation's training and evaluation, and the waterfall
#: study's evaluation and training.
(_SWEEP, _SWEEP_TRAIN, _CURVE, _BOOTSTRAP, _ABLATION_TRAIN, _ABLATION_EVAL,
 _WATERFALL_EVAL, _WATERFALL_TRAIN) = range(8)


def _cell_rng(
    master_seed: int, tag: int, variant: int, load: float, n: int, rep: int
) -> np.random.Generator:
    """Generator of one cell, keyed by seven 32-bit words: the master seed,
    the experiment tag, the variant, the load's float64 bits as two words,
    n and the repetition. n is the frame size, except in the training-length
    ablation, where it is the training length (and 0 where an experiment
    has neither). Every key has this one layout, so distinct cells never
    share a stream. A master seed, n or rep outside [0, 2**32) would not fit
    its word, so it is a ``ConfigurationError``."""
    for name, word in (("master seed", master_seed), ("n", n), ("rep", rep)):
        if not 0 <= word < 2**32:
            raise ConfigurationError(f"{name} {word} lies outside [0, 2**32)")
    bits = int(np.float64(load).view(np.uint64))
    key = (master_seed, tag, variant, bits & 0xFFFFFFFF, bits >> 32, n, rep)
    return np.random.default_rng(np.random.SeedSequence([int(word) for word in key]))


def _cell_seed(*key) -> int:
    """A training seed drawn from the generator ``_cell_rng(*key)``."""
    return int(_cell_rng(*key).integers(2**63))


def _cell_throughput(
    config: TrainConfig,
    trials: int,
    rng: np.random.Generator,
    policies=None,
) -> float:
    """Mean per-slot throughput of one train -> deploy -> evaluate cell.

    Without ``policies`` the cell trains ``config`` and deploys every node's
    table; either way it then evaluates ``trials`` saturated frames on ``rng``.
    """
    if policies is None:
        nodes, _ = train(config)
        policies = deployed_policies([node.q for node in nodes], config.params.d)
    counts = simulate_saturated(policies, config.n_slots, trials, rng)
    return float(counts.mean() / config.n_slots)


def _rep_throughput(
    variant: str,
    load: float,
    n_slots: int,
    rep: int,
    base: TrainConfig,
    trials: int,
    master_seed: int,
) -> float:
    """Mean per-slot throughput of one repetition (trials saturated frames)."""
    coords = (VARIANTS.index(variant), load, n_slots, rep)
    rng = _cell_rng(master_seed, _SWEEP, *coords)
    config = base.with_load(load, n_slots)
    if variant == "slotted_aloha":
        # simulate_saturated would draw degrees first: ALOHA keeps its own stream.
        return float(simulate_slotted_aloha(config.m, n_slots, trials, rng).mean() / n_slots)
    if variant == "vanilla_irsa":
        return _cell_throughput(config, trials, rng, [BASELINE_IRSA] * config.m)
    if variant == "random_strategy":
        uniform = uniform_distribution(config.params.d)
        return _cell_throughput(config, trials, rng, [uniform] * config.m)
    # dec_rl and dec_rl_virtual: SweepSpec admits no other variant.
    config = replace(
        config,
        virtual_experience=(variant == "dec_rl_virtual"),
        seed=_cell_seed(master_seed, _SWEEP_TRAIN, *coords),
    )
    return _cell_throughput(config, trials, rng)


def _sweep_cell(args) -> tuple:
    variant, load, n_slots, rep, base, trials, master_seed = args
    return (
        (variant, load, n_slots, rep),
        _rep_throughput(variant, load, n_slots, rep, base, trials, master_seed),
    )


def run_sweep(
    spec: SweepSpec,
    base: TrainConfig,
    master_seed: int = 0,
    workers: int = 1,
) -> list[SweepRow]:
    """Per (variant, load, frame size): mean throughput with a Student-t CI
    over independent repetitions. Deterministic under the master seed and
    invariant to the worker count."""
    cells = [
        (variant, load, n, rep, base, spec.trials, master_seed)
        for variant in spec.variants
        for load in spec.loads
        for n in spec.frame_sizes
        for rep in range(spec.repetitions)
    ]
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_sweep_cell, cells, chunksize=4))
    else:
        results = dict(map(_sweep_cell, cells))

    rows = []
    for variant in spec.variants:
        for load in spec.loads:
            for n in spec.frame_sizes:
                reps = [
                    results[(variant, load, n, rep)] for rep in range(spec.repetitions)
                ]
                s = t_interval(reps, spec.level)
                rows.append(
                    SweepRow(
                        variant=variant,
                        load=load,
                        n_slots=n,
                        repetitions=spec.repetitions,
                        trials=spec.trials,
                        mean=s.mean,
                        stderr=s.stderr,
                        ci_low=s.ci_low,
                        ci_high=s.ci_high,
                    )
                )
    return rows


def epsilon_convergence_time(trace, epsilon: float):
    """Smallest index i such that every later point stays within epsilon of
    the trace's final value; None when the trace has not converged (only the
    last point qualifies and the last three deltas are strictly monotone).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    t = np.asarray(list(trace), dtype=float)
    if t.size == 0:
        raise ValueError("trace must be nonempty")
    within = np.abs(t - t[-1]) <= epsilon
    i = t.size - 1
    while i > 0 and within[i - 1]:
        i -= 1
    if i == t.size - 1 and t.size >= 4:
        deltas = np.diff(t[-4:])
        if np.all(deltas < 0) or np.all(deltas > 0):
            return None
    return int(i)


def learning_curves(
    load: float,
    repetitions: int,
    master_seed: int,
    virtual: bool,
    config_factory=convergence_config,
) -> np.ndarray:
    """Per-repetition per-episode mean-reward traces, stacked (reps x episodes)."""
    traces = []
    for rep in range(repetitions):
        cfg = config_factory(
            load,
            virtual=virtual,
            seed=_cell_seed(master_seed, _CURVE, int(virtual), load, 0, rep),
        )
        _, record = train(cfg)
        traces.append(record.episode_means())
    return np.asarray(traces)


def _smooth(x: np.ndarray, window: int = 3) -> np.ndarray:
    if window <= 1 or x.size < 2:
        return x
    kernel = np.ones(window) / window
    padded = np.concatenate([np.full(window - 1, x[0]), x])
    return np.convolve(padded, kernel, mode="valid")


def _curve_convergence_iters(curves: np.ndarray, epsilon: float, iters_per_episode: int):
    """Convergence time, in iterations, of the repetition-averaged curve.

    Rewards are averaged over agents within a frame, over repetitions, and
    over a short episode window before scanning; a non-converged curve
    counts as the full run length.
    """
    mean_curve = _smooth(curves.mean(axis=0))
    idx = epsilon_convergence_time(mean_curve, epsilon)
    episodes = mean_curve.size
    return (episodes - 1 if idx is None else idx) * iters_per_episode, idx is None


def convergence_report(
    loads,
    repetitions: int = 40,
    epsilon: float = 0.5,
    master_seed: int = 0,
    virtual: bool = False,
    bootstrap: int = 200,
    level: float = 0.95,
    config_factory=convergence_config,
) -> list[dict]:
    """Per-load convergence time of the averaged learning curve, with a
    bootstrap-over-repetitions confidence interval."""
    loads = tuple(loads)
    rows = []
    probe = config_factory(loads[0] if loads else 0.5, virtual=virtual, seed=0)
    per_ep = probe.iters_per_episode
    for load in loads:
        curves = learning_curves(
            load, repetitions, master_seed, virtual, config_factory=config_factory
        )
        time_iters, nonconv = _curve_convergence_iters(curves, epsilon, per_ep)
        boot_rng = _cell_rng(master_seed, _BOOTSTRAP, int(virtual), load, 0, 0)
        boots = []
        for _ in range(bootstrap):
            pick = boot_rng.integers(0, curves.shape[0], curves.shape[0])
            boots.append(_curve_convergence_iters(curves[pick], epsilon, per_ep)[0])
        lo, hi = np.percentile(boots, [50 * (1 - level), 100 - 50 * (1 - level)])
        rows.append(
            {
                "load": load,
                "virtual": int(virtual),
                "time_iters": time_iters,
                "ci_low": float(lo),
                "ci_high": float(hi),
                "epsilon": epsilon,
                "nonconverged": int(nonconv),
                "repetitions": repetitions,
            }
        )
    return rows


def compare_virtual(
    load: float,
    iteration_grid,
    repetitions: int = 10,
    trials: int = 400,
    master_seed: int = 0,
    config_factory=convergence_config,
) -> list[dict]:
    """Deployed throughput as a function of training length, for the plain
    and virtual-experience variants; flags each variant's best length.

    Requested lengths are rounded down to whole episodes.
    """
    iteration_grid = list(iteration_grid)
    if not iteration_grid:
        raise ConfigurationError("iteration grid must be nonempty")
    rows = []
    for virtual in (False, True):
        results = []
        per_ep = config_factory(load, virtual=virtual, seed=0).iters_per_episode
        for requested in iteration_grid:
            episodes = int(requested) // per_ep
            vals = []
            for rep in range(repetitions):
                coords = (int(virtual), load, int(requested), rep)
                seed = _cell_seed(master_seed, _ABLATION_TRAIN, *coords)
                cfg = replace(
                    config_factory(load, virtual=virtual, seed=seed), episodes=episodes
                )
                rng = _cell_rng(master_seed, _ABLATION_EVAL, *coords)
                vals.append(_cell_throughput(cfg, trials, rng))
            s = t_interval(vals)
            results.append((int(requested), episodes * per_ep, s))
        best = max(range(len(results)), key=lambda k: results[k][2].mean)
        for k, (requested, actual, s) in enumerate(results):
            rows.append(
                {
                    "variant": "dec_rl_virtual" if virtual else "dec_rl",
                    "requested_iters": requested,
                    "actual_iters": actual,
                    "mean": s.mean,
                    "stderr": s.stderr,
                    "ci_low": s.ci_low,
                    "ci_high": s.ci_high,
                    "is_best": int(k == best),
                }
            )
    return rows


def waterfall_suite(
    loads,
    base: TrainConfig,
    repetitions: int = 20,
    trials: int = 250,
    master_seed: int = 0,
    level: float = 0.975,
) -> list[dict]:
    """Random strategy vs low-load-tuned vs high-load-tuned learners per load,
    plus the per-load envelope (best scheme) and winner flags."""
    loads = tuple(loads)
    schemes = {
        "random_strategy": None,
        "dec_rl_low": LOW_LOAD_PARAMS,
        "dec_rl_high": HIGH_LOAD_PARAMS,
    }
    rows = []
    summaries: dict[tuple, Summary] = {}
    for si, (scheme, params) in enumerate(schemes.items()):
        for load in loads:
            vals = []
            for rep in range(repetitions):
                coords = (si, load, base.n_slots, rep)
                cfg = replace(base.with_load(load), params=params or base.params)
                policies = None
                if params is None:
                    policies = [uniform_distribution(cfg.params.d)] * cfg.m
                else:
                    cfg = replace(cfg, seed=_cell_seed(master_seed, _WATERFALL_TRAIN, *coords))
                rng = _cell_rng(master_seed, _WATERFALL_EVAL, *coords)
                vals.append(_cell_throughput(cfg, trials, rng, policies))
            summaries[(scheme, load)] = t_interval(vals, level)
    for load in loads:
        winner = max(schemes, key=lambda s: summaries[(s, load)].mean)
        for scheme in schemes:
            s = summaries[(scheme, load)]
            rows.append(
                {
                    "scheme": scheme,
                    "load": load,
                    "mean": s.mean,
                    "stderr": s.stderr,
                    "ci_low": s.ci_low,
                    "ci_high": s.ci_high,
                    "is_winner": int(scheme == winner),
                }
            )
        envelope = summaries[(winner, load)]
        rows.append(
            {
                "scheme": "envelope",
                "load": load,
                "mean": envelope.mean,
                "stderr": envelope.stderr,
                "ci_low": envelope.ci_low,
                "ci_high": envelope.ci_high,
                "is_winner": 0,
            }
        )
    return rows


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def emit_report(tables: dict, out_dir: str, checks=None) -> list[str]:
    """Write one CSV per table plus a plain-text summary.

    ``tables`` maps a table name to either a list of dicts (uniform keys) or
    a (columns, rows) pair. ``checks`` is an optional list of (name, passed)
    pairs echoed into the summary. Reruns with identical inputs produce
    byte-identical files.
    """
    if not tables:
        raise ValueError("no tables to report")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir!r}: {exc}") from exc

    written = []
    row_counts = {}
    for name, table in sorted(tables.items()):
        if isinstance(table, tuple):
            columns, rows = table
            rows = [dict(zip(columns, r)) for r in rows]
        else:
            rows = list(table)
            columns = list(rows[0].keys()) if rows else []
        path = os.path.join(out_dir, f"{name}.csv")
        try:
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(columns)
                for row in rows:
                    writer.writerow([_format_value(row[c]) for c in columns])
        except OSError as exc:
            raise OSError(f"cannot write report to {path!r}: {exc}") from exc
        written.append(path)
        row_counts[name] = len(rows)

    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w") as fh:
        for name, n in row_counts.items():
            fh.write(f"table {name}: {n} rows\n")
        for name, passed in checks or []:
            fh.write(f"check {name}: {'PASS' if passed else 'FAIL'}\n")
    written.append(summary_path)
    return written
