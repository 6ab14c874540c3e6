"""Experiment suite: protocol sweeps, convergence timing, ablations, reports.

Every grid experiment is ``experiment(spec, base)``: its loads, repetitions,
trials and confidence level come from the ``SweepSpec``, its run settings from
the base ``TrainConfig``, and its master seed is that run's ``seed``. Each
(experiment, variant, load, frame size, repetition) cell derives its own seed
from the master seed and the cell coordinates (``_cell_rng``), so results are
byte-identical regardless of execution order or worker count, and distinct
cells never share a stream.
Every experiment maps its repetitions through one runner (``_map``): sweeps,
the training-length ablation and the waterfall study map one train -> deploy
-> evaluate cell (``_cell``), learning curves one train-only cell
(``_curve``). ``fixed_policies`` gives the sweep, the waterfall study and
``irsa-rl eval`` the policies of every variant that does not train.
"""

from dataclasses import dataclass, replace
import csv
from itertools import product
import os

import numpy as np

from .agent import LearningParams
from .core import BASELINE_IRSA, PURE_ALOHA, simulate_saturated, uniform_distribution
from .env import ArrivalModel, ConfigurationError, TrainConfig, deployed_policies, train
from .stats import Summary, t_interval

__all__ = [
    "VARIANTS",
    "FIXED_POLICIES",
    "fixed_policies",
    "SweepSpec",
    "SweepRow",
    "HIGH_LOAD_TUNING",
    "CONVERGENCE",
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

#: Variants that play one fixed degree distribution, a function of the
#: replica cap d; every other variant trains.
FIXED_POLICIES = {
    "slotted_aloha": lambda d: PURE_ALOHA,
    "vanilla_irsa": lambda d: BASELINE_IRSA,
    "random_strategy": uniform_distribution,
}


def fixed_policies(variant: str, config: TrainConfig):
    """Every node's ``FIXED_POLICIES`` distribution; None for a trained variant."""
    policy = FIXED_POLICIES.get(variant)
    return None if policy is None else [policy(config.params.d)] * config.m

#: The waterfall study's heavy-traffic tuning of a learner: shorter horizon,
#: more exploration, and a tighter replica cap, which keeps congested
#: channels sparse. ``d`` is a cap: a learner with fewer actions keeps its d.
HIGH_LOAD_TUNING = {"epsilon": 0.1, "gamma": 0.9, "d": 3}

#: Preset run of the convergence-time experiments: a learner with a
#: two-frame window (so one real transition generalizes across every buffer
#: level) and a wide action space, and arrivals heavy enough that untrained
#: play starts with a deep backlog transient. Runs are stretched to 3000
#: iterations so both learners reach a genuine plateau before the
#: convergence scan.
CONVERGENCE = TrainConfig(
    params=LearningParams(d=8, w=2), arrivals=ArrivalModel("bernoulli", 0.8), episodes=100
)


def convergence_config(load: float, virtual: bool = False, seed: int = 0) -> TrainConfig:
    """``CONVERGENCE`` at one load, variant and seed."""
    return replace(CONVERGENCE, load=load, virtual_experience=virtual, seed=seed)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: loads x frame sizes x protocol variants."""

    loads: tuple[float, ...] = tuple(round(g * 0.1, 1) for g in range(1, 11))
    frame_sizes: tuple[int, ...] = (10,)
    variants: tuple[str, ...] = ("slotted_aloha", "vanilla_irsa", "dec_rl")
    repetitions: int = 20
    trials: int = 250
    level: float = 0.975

    def __post_init__(self):
        # Materialise once: a generator would be exhausted by the checks below.
        for name in ("loads", "frame_sizes", "variants"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ConfigurationError(f"{name} must not be empty")
        if not all(0 < g < np.inf for g in self.loads):
            raise ConfigurationError("loads must be positive and finite")
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


def _cell(master_seed, tags, coords, config, trials, policies) -> float:
    """Mean per-slot throughput of one train -> deploy -> evaluate cell.

    ``tags`` are the experiment's (evaluation, training) tags and ``coords``
    the rest of the cell key. With ``policies`` None the cell trains
    ``config`` under its own seed and deploys every node's table; either way
    it then evaluates ``trials`` saturated frames on its own generator.
    Slotted ALOHA is one such fixed policy, ``[PURE_ALOHA] * m``.
    """
    eval_tag, train_tag = tags
    rng = _cell_rng(master_seed, eval_tag, *coords)
    if policies is None:
        config = replace(config, seed=_cell_seed(master_seed, train_tag, *coords))
        nodes, _ = train(config)
        policies = deployed_policies([node.q for node in nodes])
    counts = simulate_saturated(policies, config.n_slots, trials, rng)
    return float(counts.mean() / config.n_slots)


def _curve(config: TrainConfig) -> np.ndarray:
    """Per-episode mean rewards of one training run: a learning-curve cell."""
    return train(config)[1].episode_means()


def _map(fn, cells, workers: int = 1) -> list:
    """``fn(*cell)`` per cell, in input order; in a process pool when ``workers > 1``."""
    if workers > 1 and len(cells) > 1:
        # Imported here: loading the process pool costs every command's start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*cells), chunksize=4))
    return [fn(*cell) for cell in cells]


def _check_counts(**counts) -> None:
    """Reject a count below one before any cell trains."""
    for name, count in counts.items():
        if count < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {count}")


def _summaries(spec: SweepSpec, seed: int, tags, groups, workers: int = 1) -> list[Summary]:
    """One Student-t interval at ``spec.level`` of ``_cell`` throughput per
    group: a group is (coordinates, config, policies), its cells repetitions
    0..spec.repetitions-1 keyed (seed, tag, *coordinates, rep), each
    evaluating ``spec.trials`` frames."""
    reps = spec.repetitions
    cells = [
        (seed, tags, (*coords, rep), config, spec.trials, policies)
        for coords, config, policies in groups
        for rep in range(reps)
    ]
    values = _map(_cell, cells, workers)
    return [t_interval(values[i : i + reps], spec.level) for i in range(0, len(values), reps)]


def _ci_columns(s: Summary) -> dict:
    return {"mean": s.mean, "stderr": s.stderr, "ci_low": s.ci_low, "ci_high": s.ci_high}


def run_sweep(spec: SweepSpec, base: TrainConfig, workers: int = 1) -> list[SweepRow]:
    """Per (variant, load, frame size): mean throughput with a Student-t CI
    over independent repetitions. Deterministic under ``base.seed`` and
    invariant to the worker count."""
    groups = []
    for variant, load, n in product(spec.variants, spec.loads, spec.frame_sizes):
        config = replace(
            base, load=load, n_slots=n, virtual_experience=(variant == "dec_rl_virtual")
        )
        groups.append(
            ((VARIANTS.index(variant), load, n), config, fixed_policies(variant, config))
        )
    summaries = _summaries(spec, base.seed, (_SWEEP, _SWEEP_TRAIN), groups, workers)
    return [
        SweepRow(VARIANTS[v], load, n, spec.repetitions, spec.trials, **_ci_columns(s))
        for ((v, load, n), _, _), s in zip(groups, summaries)
    ]


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
    base: TrainConfig = CONVERGENCE,
) -> np.ndarray:
    """Per-repetition per-episode mean-reward traces of ``base`` at ``load``."""
    _check_counts(repetitions=repetitions)
    config = replace(base, load=load, virtual_experience=virtual)
    key = (master_seed, _CURVE, int(virtual), load, 0)
    cells = [(replace(config, seed=_cell_seed(*key, rep)),) for rep in range(repetitions)]
    return np.asarray(_map(_curve, cells))


#: Episodes in the moving average taken before a convergence scan.
_SMOOTH_WINDOW = 3


def _smooth(x: np.ndarray) -> np.ndarray:
    if x.size < 2:
        return x
    kernel = np.ones(_SMOOTH_WINDOW) / _SMOOTH_WINDOW
    padded = np.concatenate([np.full(_SMOOTH_WINDOW - 1, x[0]), x])
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
    spec: SweepSpec, base: TrainConfig, epsilon: float = 0.5, bootstrap: int = 200
) -> list[dict]:
    """Per-load convergence time of the averaged learning curve of ``base``
    (plain or with virtual experience, as ``base`` says), with a
    bootstrap-over-repetitions confidence interval at ``spec.level``."""
    _check_counts(
        bootstrap=bootstrap, episodes=base.episodes, iters_per_episode=base.iters_per_episode
    )
    if not epsilon > 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    for load in spec.loads:
        replace(base, load=load)  # a bad load raises here, before any load trains
    virtual, per_ep, tail = base.virtual_experience, base.iters_per_episode, 50 * (1 - spec.level)
    rows = []
    for load in spec.loads:
        curves = learning_curves(load, spec.repetitions, base.seed, virtual, base)
        time_iters, nonconv = _curve_convergence_iters(curves, epsilon, per_ep)
        boot_rng = _cell_rng(base.seed, _BOOTSTRAP, int(virtual), load, 0, 0)
        boots = []
        for _ in range(bootstrap):
            pick = boot_rng.integers(0, curves.shape[0], curves.shape[0])
            boots.append(_curve_convergence_iters(curves[pick], epsilon, per_ep)[0])
        lo, hi = np.percentile(boots, [tail, 100 - tail])
        rows.append(
            {
                "load": load,
                "virtual": int(virtual),
                "time_iters": time_iters,
                "ci_low": float(lo),
                "ci_high": float(hi),
                "epsilon": epsilon,
                "nonconverged": int(nonconv),
                "repetitions": spec.repetitions,
            }
        )
    return rows


def compare_virtual(spec: SweepSpec, base: TrainConfig, iteration_grid) -> list[dict]:
    """Deployed throughput of ``base`` as a function of training length,
    plain and with virtual experience; flags each variant's best length.

    Requested lengths are rounded down to whole episodes.
    """
    iteration_grid = list(iteration_grid)
    if not iteration_grid:
        raise ConfigurationError("iteration grid must be nonempty")
    _check_counts(iters_per_episode=base.iters_per_episode)
    groups = []
    for virtual, requested in product((False, True), map(int, iteration_grid)):
        config = replace(
            base, virtual_experience=virtual, episodes=requested // base.iters_per_episode
        )
        groups.append(((int(virtual), base.load, requested), config, None))
    summaries = _summaries(spec, base.seed, (_ABLATION_EVAL, _ABLATION_TRAIN), groups)
    rows = [
        {
            "variant": "dec_rl_virtual" if virtual else "dec_rl",
            "requested_iters": requested,
            "actual_iters": config.total_iterations,
            **_ci_columns(s),
            "is_best": 0,
        }
        for ((virtual, _, requested), config, _), s in zip(groups, summaries)
    ]
    for variant in ("dec_rl", "dec_rl_virtual"):
        best = max((r for r in rows if r["variant"] == variant), key=lambda r: r["mean"])
        best["is_best"] = 1
    return rows


def waterfall_suite(spec: SweepSpec, base: TrainConfig) -> list[dict]:
    """Random strategy vs light- and heavy-traffic learners per load of
    ``spec``, plus the per-load envelope (best scheme) and winner flags. Every
    cell is ``base`` at its load: ``dec_rl_low`` trains ``base.params``,
    ``dec_rl_high`` the same with ``HIGH_LOAD_TUNING`` applied (d capped at
    3), and ``random_strategy`` plays the uniform distribution over 1..d."""
    schemes = {
        "random_strategy": base.params,
        "dec_rl_low": base.params,
        "dec_rl_high": replace(
            base.params, **{**HIGH_LOAD_TUNING, "d": min(HIGH_LOAD_TUNING["d"], base.params.d)}
        ),
    }
    groups = []
    for (si, (scheme, params)), load in product(enumerate(schemes.items()), spec.loads):
        config = replace(base, load=load, params=params)
        groups.append(((si, load, base.n_slots), config, fixed_policies(scheme, config)))
    summaries = _summaries(spec, base.seed, (_WATERFALL_EVAL, _WATERFALL_TRAIN), groups)
    by_cell = {
        (list(schemes)[si], load): s for ((si, load, _), _, _), s in zip(groups, summaries)
    }
    rows = []
    for load in spec.loads:
        winner = max(schemes, key=lambda s: by_cell[(s, load)].mean)
        for scheme in (*schemes, "envelope"):
            rows.append(
                {
                    "scheme": scheme,
                    "load": load,
                    **_ci_columns(by_cell[(winner if scheme == "envelope" else scheme, load)]),
                    "is_winner": int(scheme == winner),
                }
            )
    return rows


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def emit_report(tables: dict, out_dir: str, checks=None) -> list[str]:
    """Write one CSV per table plus a plain-text summary.

    ``tables`` maps a table name to its rows, dicts with uniform keys.
    ``checks`` is an optional list of (name, passed) pairs echoed into the
    summary. Reruns with identical inputs produce byte-identical files.
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
