"""Command-line front end for the simulator and experiment suite."""

import argparse
from dataclasses import replace
import json
import os
import sys

import numpy as np

from . import config as configmod
from .core import (
    BASELINE_IRSA,
    PURE_ALOHA,
    simulate_slotted_aloha,
    slotted_aloha_throughput,
    uniform_distribution,
)
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
    SweepSpec,
    compare_virtual,
    convergence_report,
    emit_report,
    run_sweep,
    waterfall_suite,
)

__all__ = ["main"]


def _load_config(args) -> tuple[dict, TrainConfig]:
    values = configmod.parse_config_file(args.config) if args.config else {}
    cfg = configmod.build_train_config(values, seed=args.seed)
    return values, cfg


def _add_common(parser):
    parser.add_argument("--config", help="key-value config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--variant", default=None)


def _master_seed(args, cfg) -> int:
    return args.seed if args.seed is not None else cfg.seed


def cmd_baseline(args) -> int:
    _, cfg = _load_config(args)
    seed = _master_seed(args, cfg)
    trials = args.trials or 100_000
    rows = []
    rng = np.random.default_rng(seed)
    for load in (0.2, 0.5, 1.0):
        n_slots = 1000
        m = round(load * n_slots)
        counts = simulate_slotted_aloha(m, n_slots, trials, rng)
        simulated = counts.mean() / n_slots
        analytic = slotted_aloha_throughput(load)
        rows.append(
            {
                "load": load,
                "n_slots": n_slots,
                "frames": trials,
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
    _, cfg = _load_config(args)
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


def _policy_from_variant(variant: str, cfg: TrainConfig):
    if variant == "vanilla_irsa":
        return BASELINE_IRSA
    if variant == "slotted_aloha":
        return PURE_ALOHA
    if variant == "random_strategy":
        return uniform_distribution(cfg.params.d)
    raise ConfigurationError(f"unknown policy variant {variant!r}")


def cmd_eval(args) -> int:
    _, cfg = _load_config(args)
    trials = args.trials or 1000
    if args.qtables:
        tables = []
        for i in range(cfg.m):
            path = os.path.join(args.qtables, f"node_{i:03d}.qtable")
            try:
                tables.append(QTable.load(path))
            except ValueError as exc:
                raise ConfigurationError(f"bad q-table checkpoint {path!r}: {exc}") from exc
        policy = deployed_policies(tables, cfg.params.d)
    else:
        policy = _policy_from_variant(args.variant or "vanilla_irsa", cfg)
    summary = evaluate(
        policy, cfg, trials, rng=np.random.default_rng(_master_seed(args, cfg))
    )
    print(
        f"throughput {summary.mean:.4f} +- {summary.stderr:.4f} "
        f"[{summary.ci_low:.4f}, {summary.ci_high:.4f}] at {summary.level:.1%} "
        f"({summary.n} trials)"
    )
    return 0


def cmd_sweep(args) -> int:
    values, cfg = _load_config(args)
    spec = configmod.build_sweep_spec(values)
    if args.reps:
        spec = replace(spec, repetitions=args.reps)
    if args.trials:
        spec = replace(spec, trials=args.trials)
    if args.variant:
        spec = replace(spec, variants=tuple(args.variant.split(",")))
    rows = run_sweep(spec, cfg, _master_seed(args, cfg), workers=args.workers)
    table = [row.__dict__ for row in rows]
    emit_report({"sweep": table}, args.out)
    print(f"sweep: {len(rows)} rows -> {args.out}/sweep.csv")
    return 0


def cmd_convergence(args) -> int:
    values, cfg = _load_config(args)
    # the full default load grid would mean hours of training runs here, so
    # without an explicit list the report covers the loads the learning
    # dynamics actually distinguish
    if "loads" in values:
        loads = configmod.build_sweep_spec(values).loads
    else:
        loads = (0.2, 0.4, 0.6, 0.7)
    reps = args.reps or 40
    rows = []
    for virtual in (False, True):
        rows.extend(
            convergence_report(
                loads,
                repetitions=reps,
                master_seed=_master_seed(args, cfg),
                virtual=virtual,
            )
        )
    emit_report({"convergence": rows}, args.out)
    print(f"convergence: {len(rows)} rows -> {args.out}/convergence.csv")
    return 0


def cmd_virtual_compare(args) -> int:
    _, cfg = _load_config(args)
    grid = (0, 150, 300, 600, 900, 1200, 1500)
    rows = compare_virtual(
        load=cfg.load,
        iteration_grid=grid,
        repetitions=args.reps or 10,
        trials=args.trials or 400,
        master_seed=_master_seed(args, cfg),
    )
    best = {
        r["variant"]: r["actual_iters"] for r in rows if r["is_best"]
    }
    checks = [
        (
            "virtual_best_length_not_later",
            best.get("dec_rl_virtual", 0) <= best.get("dec_rl", 0),
        )
    ]
    emit_report({"virtual_compare": rows}, args.out, checks)
    print(
        f"virtual-compare: best length vanilla {best.get('dec_rl')} vs "
        f"virtual {best.get('dec_rl_virtual')}"
    )
    return 0


def cmd_waterfall(args) -> int:
    values, cfg = _load_config(args)
    spec = configmod.build_sweep_spec(values)
    rows = waterfall_suite(
        spec.loads,
        cfg,
        repetitions=args.reps or spec.repetitions,
        trials=args.trials or spec.trials,
        master_seed=_master_seed(args, cfg),
    )
    by = {(r["scheme"], r["load"]): r for r in rows}
    checks = []
    for load in spec.loads:
        env_row = by[("envelope", load)]
        ok = all(
            env_row["mean"] >= by[(s, load)]["mean"] - 1e-12
            for s in ("random_strategy", "dec_rl_low", "dec_rl_high")
        )
        checks.append((f"envelope_is_max_G{load}", ok))
    emit_report({"waterfall": rows}, args.out, checks)
    print(f"waterfall: {len(rows)} rows -> {args.out}/waterfall.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsa-rl",
        description="IRSA random-access simulation with decentralized Q-learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("baseline", help="slotted-ALOHA analytic vs simulated check")
    _add_common(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("train", help="train one configuration, save q-tables + trace")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a frozen policy")
    _add_common(p)
    p.add_argument("--qtables", help="directory of node_*.qtable checkpoints")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="protocol comparison sweep")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("convergence", help="epsilon-convergence report per load")
    _add_common(p)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("virtual-compare", help="throughput vs training length")
    _add_common(p)
    p.set_defaults(func=cmd_virtual_compare)

    p = sub.add_parser("waterfall", help="per-load best parameterization table")
    _add_common(p)
    p.set_defaults(func=cmd_waterfall)
    return parser


def _check_workers(args) -> None:
    if args.workers < 1:
        raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")
    if args.workers != 1 and args.command != "sweep":
        raise ConfigurationError(
            f"--workers applies only to sweep; {args.command} runs in one process"
        )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_workers(args)
        return args.func(args)
    except ConfigurationError as exc:
        print(json.dumps({"error": str(exc), "kind": "configuration"}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": str(exc), "kind": "io"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
