"""Command-line front end for the simulator and experiment suite."""

import argparse
from dataclasses import replace
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import config as configmod
from .core import simulate_slotted_aloha, slotted_aloha_throughput
from .agent import QTable
from .env import (
    ConfigurationError,
    TRACE_COLUMNS,
    TrainConfig,
    deployed_policies,
    evaluate,
    train,
)
from .harness import (
    CONVERGENCE,
    FIXED_POLICIES,
    SweepSpec,
    compare_virtual,
    convergence_report,
    emit_report,
    fixed_policies,
    run_sweep,
    waterfall_suite,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Sends every argument error through the JSON error contract (exit 2)."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _load_config(args) -> tuple[TrainConfig, SweepSpec]:
    """The command's run and sweep settings, each from the first source that
    has it: a given flag that names its config key, the config file, then the
    command's base. Exclusive flags choose what eval runs and name no key."""
    command = _COMMANDS[args.command]
    values = configmod.parse_config_file(args.config) if args.config else {}
    for flag in command.flags:
        key, value = _FLAGS[flag][1], getattr(args, flag)
        if key and value is not None and flag not in command.exclusive:
            values[key] = str(value)
    run = configmod.build_train_config(values, command.base)
    return run, configmod.build_sweep_spec(values, command.spec)


def cmd_baseline(args) -> int:
    cfg, spec = _load_config(args)
    rows = []
    rng = np.random.default_rng(cfg.seed)
    for load in (0.2, 0.5, 1.0):
        n_slots = 1000
        m = round(load * n_slots)
        counts = simulate_slotted_aloha(m, n_slots, spec.trials, rng)
        simulated = counts.mean() / n_slots
        analytic = slotted_aloha_throughput(load)
        rows.append(
            {
                "load": load,
                "n_slots": n_slots,
                "frames": spec.trials,
                "simulated": float(simulated),
                "analytic": analytic,
                "rel_error": float(abs(simulated - analytic) / analytic),
            }
        )
    checks = [
        (f"slotted_aloha_G{row['load']}_within_2pct", row["rel_error"] <= 0.02)
        for row in rows
    ]
    emit_report({"baseline": rows}, args.out, checks)
    for row in rows:
        print(
            f"G={row['load']}: simulated {row['simulated']:.5f} "
            f"analytic {row['analytic']:.5f} rel_err {row['rel_error']:.4%}"
        )
    return 0 if all(ok for _, ok in checks) else 1


def cmd_train(args) -> int:
    cfg, _ = _load_config(args)
    nodes, record = train(cfg)
    os.makedirs(args.out, exist_ok=True)
    for i, node in enumerate(nodes):
        node.q.save(os.path.join(args.out, f"node_{i:03d}.qtable"))
    trace_rows = [dict(zip(TRACE_COLUMNS, row)) for row in record.rows()]
    emit_report({"trace": trace_rows}, args.out)
    print(
        f"trained {cfg.m} nodes for {cfg.total_iterations} iterations "
        f"(G={cfg.load}, N={cfg.n_slots}, virtual={cfg.virtual_experience}); "
        f"mean reward last episode "
        f"{record.episode_means()[-1] if len(record) else float('nan'):.3f}"
    )
    return 0


def _load_checkpoint(path: str, d: int) -> QTable:
    """One node's trained table; a malformed file, or one with an action
    outside 1..d (the config's ``max_replicas``), is a configuration error."""
    try:
        return QTable.load(path, d)
    except ValueError as exc:
        raise ConfigurationError(f"bad q-table checkpoint {path!r}: {exc}") from exc


def cmd_eval(args) -> int:
    cfg, spec = _load_config(args)
    d = cfg.params.d
    if args.qtables:
        tables = [
            _load_checkpoint(os.path.join(args.qtables, f"node_{i:03d}.qtable"), d)
            for i in range(cfg.m)
        ]
        policy = deployed_policies(tables)
    else:
        policy = fixed_policies(args.variant, cfg)
        if policy is None:
            raise ConfigurationError(
                f"eval --variant {args.variant!r} is not a fixed policy: choose one of "
                f"{', '.join(FIXED_POLICIES)}, or evaluate trained tables with --qtables"
            )
    rng = np.random.default_rng(cfg.seed)
    summary = evaluate(policy, cfg, spec.trials, rng, level=spec.level)
    print(
        f"throughput {summary.mean:.4f} +- {summary.stderr:.4f} "
        f"[{summary.ci_low:.4f}, {summary.ci_high:.4f}] at {summary.level:.1%} "
        f"({summary.n} trials)"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg, spec = _load_config(args)
    rows = run_sweep(spec, cfg, workers=args.workers)
    table = [row.__dict__ for row in rows]
    emit_report({"sweep": table}, args.out)
    print(f"sweep: {len(rows)} rows -> {args.out}/sweep.csv")
    return 0


def cmd_convergence(args) -> int:
    cfg, spec = _load_config(args)
    # Both runs are built, so checked, before either trains.
    runs = [replace(cfg, virtual_experience=v) for v in (False, True)]
    rows = [row for run in runs for row in convergence_report(spec, run)]
    emit_report({"convergence": rows}, args.out)
    print(f"convergence: {len(rows)} rows -> {args.out}/convergence.csv")
    return 0


def cmd_virtual_compare(args) -> int:
    cfg, spec = _load_config(args)
    rows = compare_virtual(spec, cfg, (0, 150, 300, 600, 900, 1200, 1500))
    best = {r["variant"]: r["actual_iters"] for r in rows if r["is_best"]}
    checks = [("virtual_best_length_not_later", best["dec_rl_virtual"] <= best["dec_rl"])]
    emit_report({"virtual_compare": rows}, args.out, checks)
    print(
        f"virtual-compare: best length vanilla {best['dec_rl']} vs "
        f"virtual {best['dec_rl_virtual']}"
    )
    return 0


def cmd_waterfall(args) -> int:
    cfg, spec = _load_config(args)
    rows = waterfall_suite(spec, cfg)
    emit_report({"waterfall": rows}, args.out)
    print(f"waterfall: {len(rows)} rows -> {args.out}/waterfall.csv")
    return 0


class _Command(NamedTuple):
    handler: Callable
    help: str
    flags: dict  # flag -> default; a flag that sets a config key has none
    base: TrainConfig = TrainConfig()  # run settings the config file overrides
    spec: SweepSpec = SweepSpec()  # sweep settings the config file overrides
    exclusive: tuple = ()  # flags that cannot be given together


# flag -> (add_argument keywords, the config key the flag overrides)
_FLAGS = {
    "config": ({"help": "key-value config file"}, None),
    "seed": ({"type": int, "help": "master seed"}, "seed"),
    "out": ({"help": "output directory"}, None),
    "trials": ({"type": _positive_int, "help": "frames per evaluation"}, "trials"),
    "reps": ({"type": _positive_int, "help": "repetitions per cell"}, "repetitions"),
    "workers": ({"type": _positive_int, "help": "worker processes"}, None),
    "variant": ({"help": "protocol variant (sweep: comma-separated list)"}, "variants"),
    "qtables": ({"help": "directory of node_*.qtable checkpoints"}, None),
}

_RUN = {"config": None, "seed": None, "out": "results"}
_COMMANDS = {
    "baseline": _Command(
        cmd_baseline, "slotted-ALOHA analytic vs simulated check",
        {**_RUN, "trials": None}, spec=SweepSpec(trials=100_000),
    ),
    "train": _Command(cmd_train, "train one configuration, save q-tables + trace", _RUN),
    "eval": _Command(
        cmd_eval, "evaluate a frozen policy",
        {"config": None, "seed": None, "trials": None, "variant": "vanilla_irsa",
         "qtables": None},
        spec=SweepSpec(trials=1000), exclusive=("variant", "qtables"),
    ),
    "sweep": _Command(
        cmd_sweep, "protocol comparison sweep",
        {**_RUN, "trials": None, "reps": None, "workers": 1, "variant": None},
    ),
    # The report covers the loads the learning dynamics distinguish. One
    # repetition of every (load, variant) trains in ~1.3 s on these four and
    # ~4 s on the ten-load default grid (2-core x86 host), so 40 repetitions
    # take ~50 s here and would take ~160 s.
    "convergence": _Command(
        cmd_convergence, "epsilon-convergence report per load", {**_RUN, "reps": None},
        CONVERGENCE, SweepSpec(loads=(0.2, 0.4, 0.6, 0.7), repetitions=40, level=0.95),
    ),
    "virtual-compare": _Command(
        cmd_virtual_compare, "throughput vs training length",
        {**_RUN, "reps": None, "trials": None},
        CONVERGENCE, SweepSpec(repetitions=10, trials=400),
    ),
    "waterfall": _Command(
        cmd_waterfall, "per-load best parameterization table",
        {**_RUN, "reps": None, "trials": None},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="irsa-rl",
        description="IRSA random-access simulation with decentralized Q-learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.set_defaults(func=command.handler)
        # argparse cannot format the usage of an empty group.
        group = p.add_mutually_exclusive_group() if command.exclusive else p
        for flag in command.flags:
            target = group if flag in command.exclusive else p
            target.add_argument(f"--{flag}", **_FLAGS[flag][0])
    return parser


def _parse_args(argv=None) -> argparse.Namespace:
    args = build_parser().parse_args(argv)
    # Defaults go in after parsing: argparse counts a flag given with a value
    # identical to its default as absent from a mutually exclusive group.
    for flag, default in _COMMANDS[args.command].flags.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(json.dumps({"error": str(exc), "kind": "configuration"}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": str(exc), "kind": "io"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
