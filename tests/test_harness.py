from collections import Counter
from dataclasses import replace
import hashlib
import inspect
import math
import os

import numpy as np
import pytest

from irsa_rl import harness
from irsa_rl.agent import LearningParams
from irsa_rl.core import slotted_aloha_throughput
from irsa_rl.env import ArrivalModel, ConfigurationError, TrainConfig
from irsa_rl.harness import (
    CONVERGENCE,
    VARIANTS,
    SweepSpec,
    compare_virtual,
    convergence_config,
    convergence_report,
    emit_report,
    epsilon_convergence_time,
    learning_curves,
    run_sweep,
    waterfall_suite,
)
from irsa_rl.stats import t_interval


BASE = TrainConfig()


# --- epsilon convergence ----------------------------------------------------


def test_epsilon_convergence_constant_trace():
    assert epsilon_convergence_time([2.0, 2.0, 2.0], 0.5) == 0


def test_epsilon_convergence_settling_trace():
    # direct scan: -1 is the first point from which everything stays within
    # 0.5 of the final -0.85
    trace = (-5, -3, -1, -0.8, -0.9, -0.85)
    assert epsilon_convergence_time(trace, 0.5) == 2


def test_epsilon_convergence_worsening_trace_never_converges():
    assert epsilon_convergence_time([-1, -2, -3, -4, -5], 0.5) is None


def test_epsilon_convergence_trailing_improvement_not_converged():
    assert epsilon_convergence_time([0, -4, -3, -2, -1], 0.5) is None


def test_epsilon_convergence_last_point_blip_without_trend():
    # only the last point qualifies, but the tail is not monotone
    trace = [10.0, -10.0, 10.0, -10.0, 0.0]
    assert epsilon_convergence_time(trace, 0.5) == len(trace) - 1


def test_epsilon_convergence_validation():
    with pytest.raises(ValueError):
        epsilon_convergence_time([], 0.5)
    with pytest.raises(ValueError):
        epsilon_convergence_time([1.0], 0.0)


# --- sweeps -------------------------------------------------------------------


def test_sweep_spec_validation():
    with pytest.raises(ConfigurationError):
        SweepSpec(loads=(0.5,), variants=())
    with pytest.raises(ConfigurationError):
        SweepSpec(loads=(0.5,), variants=("nonsense",))
    with pytest.raises(ConfigurationError):
        SweepSpec(loads=(-0.1,))


@pytest.mark.parametrize("field", ["loads", "frame_sizes", "variants"])
def test_sweep_spec_rejects_empty_lists(field):
    # An empty load list used to run no cell and write a CSV without a header.
    with pytest.raises(ConfigurationError, match=f"{field} must not be empty"):
        SweepSpec(**{field: ()})


def test_sweep_slotted_aloha_large_frame_matches_formula():
    spec = SweepSpec(
        loads=(1.0,),
        frame_sizes=(1000,),
        variants=("slotted_aloha",),
        repetitions=5,
        trials=200,
    )
    rows = run_sweep(spec, replace(BASE, seed=1))
    assert len(rows) == 1
    assert abs(rows[0].mean - slotted_aloha_throughput(1.0)) < 0.01


def test_sweep_vanilla_beats_aloha_below_threshold():
    spec = SweepSpec(
        loads=(0.4,),
        variants=("vanilla_irsa", "slotted_aloha"),
        repetitions=6,
        trials=300,
    )
    rows = {r.variant: r for r in run_sweep(spec, replace(BASE, seed=2))}
    assert rows["vanilla_irsa"].mean > rows["slotted_aloha"].mean


def test_sweep_deterministic_and_worker_invariant():
    # every variant, so the pool runs every kind of cell: slotted ALOHA,
    # fixed policies, plain training and virtual training
    spec = SweepSpec(loads=(0.5, 0.8), variants=VARIANTS, repetitions=3, trials=50)
    base = TrainConfig(episodes=2, seed=3)
    rows1 = run_sweep(spec, base, workers=1)
    rows2 = run_sweep(spec, base, workers=1)
    rows3 = run_sweep(spec, base, workers=3)
    assert rows1 == rows2 == rows3
    rows4 = run_sweep(spec, replace(base, seed=4))
    assert rows4 != rows1


def test_sweep_row_count_cardinality():
    spec = SweepSpec(
        loads=(0.2, 0.5, 0.8),
        variants=("slotted_aloha", "random_strategy"),
        repetitions=2,
        trials=20,
    )
    rows = run_sweep(spec, replace(BASE, seed=5))
    assert len(rows) == 6


def test_sweep_trains_learning_variants():
    spec = SweepSpec(
        loads=(0.5,), variants=("dec_rl",), repetitions=2, trials=50
    )
    fast = TrainConfig(episodes=5, seed=6)
    rows = run_sweep(spec, fast)
    assert 0.0 <= rows[0].mean <= 1.0


# --- CI machinery -------------------------------------------------------------


def test_ci_width_shrinks_with_repetitions():
    rng = np.random.default_rng(7)
    widths = []
    for n in (10, 40, 160):
        samples = rng.normal(0.0, 1.0, n)
        s = t_interval(samples, 0.975)
        widths.append(s.ci_high - s.ci_low)
    # width ~ 1/sqrt(n): quadrupling n halves the width (within noise)
    assert widths[1] < widths[0] * 0.75
    assert widths[2] < widths[1] * 0.75


def test_ci_level_monotonicity():
    rng = np.random.default_rng(8)
    x = rng.normal(size=30)
    narrow = t_interval(x, 0.9)
    wide = t_interval(x, 0.99)
    assert (wide.ci_high - wide.ci_low) > (narrow.ci_high - narrow.ci_low)


# --- convergence + virtual-experience experiments ------------------------------


def test_convergence_config_shape():
    cfg = convergence_config(0.7, virtual=True, seed=9)
    assert cfg.virtual_experience
    assert cfg.params.w == 2
    assert cfg.m == 7


def test_convergence_report_smoke():
    rows = convergence_report(
        SweepSpec(loads=(0.6,), repetitions=4, level=0.95), replace(CONVERGENCE, seed=10),
        bootstrap=20,
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["time_iters"] >= 0
    assert row["ci_low"] <= row["ci_high"]
    assert row["epsilon"] == 0.5


def test_convergence_report_trains_with_base():
    short_runs = replace(CONVERGENCE, episodes=4, iters_per_episode=10, seed=10)
    rows = convergence_report(SweepSpec(loads=(0.6,), repetitions=2), short_runs, bootstrap=5)
    # four 10-iteration episodes: convergence can be no later than episode 3
    assert 0 <= rows[0]["time_iters"] <= 3 * 10


_SHORT_CONVERGENCE = replace(CONVERGENCE, episodes=3, iters_per_episode=5)


def test_compare_virtual_zero_grid_matches_untrained():
    rows = compare_virtual(
        SweepSpec(repetitions=3, trials=200), replace(CONVERGENCE, load=0.7, seed=11), (0,)
    )
    means = [r["mean"] for r in rows]
    # both variants deploy the uniform policy: identical evaluation protocol,
    # means differ only by Monte Carlo noise
    assert abs(means[0] - means[1]) < 0.05
    assert all(r["actual_iters"] == 0 for r in rows)


def test_compare_virtual_rejects_empty_grid():
    with pytest.raises(ConfigurationError):
        compare_virtual(SweepSpec(repetitions=1, trials=10), replace(CONVERGENCE, load=0.7), ())


def test_compare_virtual_accepts_generator_grid():
    rows = compare_virtual(
        SweepSpec(repetitions=1, trials=20), replace(CONVERGENCE, load=0.7, seed=11),
        (n for n in (0,)),
    )
    assert [r["variant"] for r in rows] == ["dec_rl", "dec_rl_virtual"]


# --- waterfall suite ------------------------------------------------------------


def test_waterfall_suite_envelope_is_max():
    rows = waterfall_suite(
        SweepSpec(loads=(0.3, 0.9), repetitions=3, trials=100), replace(BASE, seed=12)
    )
    by = {(r["scheme"], r["load"]): r for r in rows}
    for load in (0.3, 0.9):
        env_mean = by[("envelope", load)]["mean"]
        for scheme in ("random_strategy", "dec_rl_low", "dec_rl_high"):
            assert env_mean >= by[(scheme, load)]["mean"] - 1e-12
        winners = [
            r
            for r in rows
            if r["load"] == load and r["is_winner"] and r["scheme"] != "envelope"
        ]
        assert len(winners) == 1


def test_sweep_spec_accepts_generators():
    # Every experiment reads its loads from the spec, which materialises them
    # in order.
    spec = SweepSpec(
        loads=(g for g in (0.6, 0.3)),
        frame_sizes=(n for n in (10,)),
        variants=(v for v in ("slotted_aloha",)),
        repetitions=2,
        trials=5,
    )
    same = SweepSpec(loads=(0.6, 0.3), variants=("slotted_aloha",), repetitions=2, trials=5)
    assert spec == same
    base = TrainConfig(episodes=1, iters_per_episode=5, seed=3)
    rows = run_sweep(spec, base)
    assert [r.load for r in rows] == [0.6, 0.3]
    assert rows == run_sweep(same, base)


def test_convergence_report_accepts_generator_loads():
    spec = SweepSpec(loads=(g for g in (0.6, 0.3)), repetitions=2)
    rows = convergence_report(spec, _SHORT_CONVERGENCE, bootstrap=5)
    assert rows == convergence_report(
        SweepSpec(loads=(0.6, 0.3), repetitions=2), _SHORT_CONVERGENCE, bootstrap=5
    )
    assert [r["load"] for r in rows] == [0.6, 0.3]


def test_waterfall_suite_accepts_generator_loads():
    base = TrainConfig(episodes=1, iters_per_episode=5, seed=12)
    spec = SweepSpec(loads=(g for g in (0.3,)), repetitions=2, trials=10)
    rows = waterfall_suite(spec, base)
    assert len(rows) == 4  # three schemes + envelope
    assert rows == waterfall_suite(SweepSpec(loads=(0.3,), repetitions=2, trials=10), base)


# --- one repetition runner -----------------------------------------------------


_ONE_REP = SweepSpec(loads=(0.6,), repetitions=1, trials=5)


def _no_training(monkeypatch):
    def fail(config):
        raise AssertionError("trained before the arguments were checked")

    monkeypatch.setattr(harness, "train", fail)


# An experiment takes its counts and level from a SweepSpec, and replace()
# runs SweepSpec's checks again, so no experiment is handed a bad count.
@pytest.mark.parametrize(
    "run,argument",
    [
        (lambda: waterfall_suite(replace(_ONE_REP, repetitions=0), BASE), "repetitions"),
        (lambda: waterfall_suite(replace(_ONE_REP, trials=0), BASE), "trials"),
        (lambda: compare_virtual(replace(_ONE_REP, repetitions=0), CONVERGENCE, (0,)),
         "repetitions"),
        (lambda: compare_virtual(replace(_ONE_REP, trials=0), CONVERGENCE, (150,)), "trials"),
        (lambda: compare_virtual(replace(_ONE_REP, repetitions=-1), CONVERGENCE, (150,)),
         "repetitions"),
        (lambda: learning_curves(0.7, 0, 0, False), "repetitions"),
        (lambda: convergence_report(replace(_ONE_REP, repetitions=0), CONVERGENCE),
         "repetitions"),
    ],
    ids=["waterfall-reps", "waterfall-trials", "compare-reps", "compare-trials",
         "compare-negative-reps", "curves-reps", "convergence-reps"],
)
def test_repetition_and_trial_counts_are_checked_before_training(monkeypatch, run, argument):
    # Zero repetitions used to raise range()'s ValueError or a TypeError, and
    # zero trials gave rows of nan means and inf stderr.
    _no_training(monkeypatch)
    with pytest.raises(ConfigurationError, match=argument):
        run()


@pytest.mark.parametrize(
    "run,field",
    [
        (lambda base: compare_virtual(_ONE_REP, base, (150,)), "iters_per_episode"),
        (lambda base: convergence_report(_ONE_REP, base, bootstrap=5), "iters_per_episode"),
        (lambda base: convergence_report(_ONE_REP, base, bootstrap=5), "episodes"),
    ],
    ids=["compare_virtual", "convergence_report", "convergence_report-episodes"],
)
def test_episodes_without_iterations_are_rejected_before_training(monkeypatch, run, field):
    # A base with iters_per_episode = 0 made compare_virtual divide by zero,
    # and one with episodes = 0 gave convergence_report an empty curve; a
    # config file can set either.
    _no_training(monkeypatch)
    with pytest.raises(ConfigurationError, match=f"{field} must be >= 1"):
        run(replace(CONVERGENCE, **{field: 0}))


@pytest.mark.parametrize(
    "kwargs,fields,argument",
    [
        (dict(bootstrap=0), {}, "bootstrap"),
        (dict(epsilon=0.0), {}, "epsilon"),
        (dict(epsilon=math.nan), {}, "epsilon"),
        ({}, dict(level=1.5), "level"),
        ({}, dict(level=0.0), "level"),
        ({}, dict(level=1.0), "level"),
    ],
    ids=["bootstrap-0", "epsilon-0", "epsilon-nan", "level-1.5", "level-0", "level-1"],
)
def test_convergence_report_checks_its_arguments_before_training(
    monkeypatch, kwargs, fields, argument
):
    # bootstrap=0 used to raise IndexError, level=0 gave a degenerate
    # interval, and epsilon=0 or level=1.5 failed only after a load trained.
    # The level is the spec's, checked by SweepSpec.
    _no_training(monkeypatch)
    spec = SweepSpec(loads=(0.6, 0.3), repetitions=2)
    with pytest.raises(ConfigurationError, match=argument):
        convergence_report(replace(spec, **fields), CONVERGENCE, **kwargs)


def test_convergence_report_checks_every_load_before_training(monkeypatch):
    # A bad late load (0.01 gives m = round(0.1) = 0 nodes) used to raise only
    # after every earlier load had trained.
    calls = Counter()
    real_train = harness.train

    def counting_train(config):
        calls["train"] += 1
        return real_train(config)

    monkeypatch.setattr(harness, "train", counting_train)
    with pytest.raises(ConfigurationError, match="zero nodes"):
        convergence_report(
            SweepSpec(loads=(0.3, 0.01), repetitions=2), _SHORT_CONVERGENCE, bootstrap=5
        )
    assert calls["train"] == 0


def test_every_experiment_trains_inside_the_one_runner(monkeypatch):
    # Every experiment runs its repetitions through harness._map: a training
    # run outside it would be a second repetition loop beside the runner.
    calls = Counter()
    real_map, real_train = harness._map, harness.train

    def counting_map(*args, **kwargs):
        calls["map"] += 1
        calls["depth"] += 1
        try:
            return real_map(*args, **kwargs)
        finally:
            calls["depth"] -= 1

    def counting_train(config):
        calls["train"] += 1
        calls["outside"] += calls["depth"] == 0
        return real_train(config)

    monkeypatch.setattr(harness, "_map", counting_map)
    monkeypatch.setattr(harness, "train", counting_train)
    short = TrainConfig(episodes=1, iters_per_episode=5)
    experiments = {
        "run_sweep": lambda: run_sweep(
            SweepSpec(loads=(0.5,), variants=("dec_rl",), repetitions=2, trials=5), short
        ),
        "learning_curves": lambda: learning_curves(
            0.6, 2, 10, True, base=_SHORT_CONVERGENCE
        ),
        "convergence_report": lambda: convergence_report(
            SweepSpec(loads=(0.6, 0.3), repetitions=2), _SHORT_CONVERGENCE, bootstrap=5
        ),
        "compare_virtual": lambda: compare_virtual(
            SweepSpec(repetitions=2, trials=5), replace(_SHORT_CONVERGENCE, load=0.7), (5, 10)
        ),
        "waterfall_suite": lambda: waterfall_suite(
            SweepSpec(loads=(0.3,), repetitions=2, trials=5), short
        ),
    }
    for experiment, run in experiments.items():
        calls.clear()
        run()
        assert calls["map"] > 0, experiment
        assert calls["train"] > 0, experiment
        assert calls["outside"] == 0, experiment


# --- every cell is the command's run ---------------------------------------------


def _recorded_trains(monkeypatch) -> list:
    """Every config that reaches ``harness.train``, in call order; each
    trains for one short episode."""
    configs, real_train = [], harness.train

    def short_train(config):
        configs.append(config)
        return real_train(replace(config, episodes=1, iters_per_episode=2))

    monkeypatch.setattr(harness, "train", short_train)
    return configs


@pytest.mark.parametrize("experiment", ["sweep", "waterfall"])
def test_an_evaluation_too_large_is_rejected_before_any_cell_trains(monkeypatch, experiment):
    configs = _recorded_trains(monkeypatch)
    spec = SweepSpec(loads=(0.5,), variants=("dec_rl",), repetitions=1, trials=2**40)
    with pytest.raises(ConfigurationError, match="trials \\* m"):
        if experiment == "sweep":
            run_sweep(spec, BASE)
        else:
            waterfall_suite(spec, BASE)
    assert configs == []


# One non-default value per run and learner field a cell could drop.
_RUN_FIELDS = {
    "n_slots": 12,
    "episodes": 7,
    "iters_per_episode": 6,
    "arrivals": ArrivalModel("poisson", 0.3),
}
_LEARNER_FIELDS = {
    "epsilon": 0.2,
    "gamma": 0.8,
    "alpha_base": 1.5,
    "alpha_decay": 0.8,
    "w": 3,
    "B": 6,
    "d": 5,
    "alpha_schedule": "polynomial",
    "phi": 0.7,
}

# experiment -> (a small run of it, the fields each of its trained cells sets
# itself, in training order); load, seed and virtual_experience are always
# the cell's own.
_CELL_COORDINATES = {
    "run_sweep": (
        lambda base: run_sweep(
            SweepSpec(loads=(0.5,), frame_sizes=(8,), variants=("dec_rl", "dec_rl_virtual"),
                      repetitions=1, trials=2),
            base,
        ),
        [{"n_slots"}] * 2,
    ),
    "convergence_report": (
        lambda base: convergence_report(SweepSpec(loads=(0.5,), repetitions=1), base, bootstrap=1),
        [set()],
    ),
    "compare_virtual": (
        lambda base: compare_virtual(SweepSpec(repetitions=1, trials=2), base, (12,)),
        [{"episodes"}] * 2,
    ),
    "waterfall_suite": (
        lambda base: waterfall_suite(SweepSpec(loads=(0.5,), repetitions=1, trials=2), base),
        [set(), {"epsilon", "gamma", "d"}],  # dec_rl_low, dec_rl_high
    ),
}


@pytest.mark.parametrize("experiment", _CELL_COORDINATES)
def test_every_trained_cell_carries_the_command_run(monkeypatch, experiment):
    # The waterfall study used to train fixed learner presets whatever the
    # run's learner keys said.
    run, coordinates = _CELL_COORDINATES[experiment]
    configs, dropped = _recorded_trains(monkeypatch), []
    for name, value in {**_RUN_FIELDS, **_LEARNER_FIELDS}.items():
        if name in _RUN_FIELDS:
            base = replace(BASE, **{name: value})
        else:
            base = replace(BASE, params=replace(BASE.params, **{name: value}))
        configs.clear()
        run(base)
        assert len(configs) == len(coordinates), name
        for i, (config, own) in enumerate(zip(configs, coordinates)):
            got = getattr(config if name in _RUN_FIELDS else config.params, name)
            if name not in own and got != value:
                dropped.append((name, i, got))
    assert dropped == []


def test_experiments_take_spec_and_base_and_nothing_they_hold():
    # The master seed used to come in beside base.seed, compare_virtual's
    # load beside base.load, convergence_report's variant beside
    # base.virtual_experience, and loads, counts and level beside the spec.
    copies = {"master_seed", "load", "loads", "virtual", "repetitions", "trials", "level"}
    for experiment in (run_sweep, convergence_report, compare_virtual, waterfall_suite):
        params = list(inspect.signature(experiment).parameters.values())
        first = [(p.name, p.default) for p in params[:2]]
        assert first == [("spec", inspect.Parameter.empty), ("base", inspect.Parameter.empty)], (
            experiment.__name__
        )
        assert not {p.name for p in params} & copies, experiment.__name__


def _first_draw(*key) -> int:
    return int(harness._cell_rng(0, *key).integers(2**63))


def test_cell_keys_are_collision_free():
    # Cells used to be keyed by round(load * 1000), so loads closer than
    # 0.001 shared every stream. Now they get distinct ones:
    for n, rep in ((10, 0), (20, 3)):
        assert _first_draw(harness._SWEEP, 1, 0.5, n, rep) != _first_draw(
            harness._SWEEP, 1, 0.5004, n, rep
        )
    rows = run_sweep(
        SweepSpec(loads=(0.5, 0.5004), variants=("vanilla_irsa",), repetitions=2, trials=50),
        replace(BASE, seed=3),
    )
    assert rows[0].mean != rows[1].mean
    # The sweep key had no tag, so a sweep cell whose load rounded to
    # 0.000 or 0.001 spelled the key of a learning curve (tag 2, dec_rl is
    # variant 2) or of a compare_virtual training run (tag 4,
    # random_strategy is variant 4) with virtual flag 0 or 1.
    dec_rl, random_strategy = VARIANTS.index("dec_rl"), VARIANTS.index("random_strategy")
    assert (dec_rl, random_strategy) == (2, 4)
    for virtual, load in ((0, 0.0004), (1, 0.001)):
        # old: (2, 0|1, 700, rep) for both
        assert _first_draw(harness._SWEEP, dec_rl, load, 700, 3) != _first_draw(
            harness._CURVE, virtual, 0.7, 0, 3
        )
        # old: (4, 0|1, 30, rep) for both
        assert _first_draw(harness._SWEEP, random_strategy, load, 30, 2) != _first_draw(
            harness._ABLATION_TRAIN, virtual, 0.7, 30, 2
        )


def test_cell_key_words_outside_32_bits_are_rejected():
    # Each key word is one 32-bit SeedSequence word: master seeds 0 and 2**32
    # used to give every cell the same stream.
    spec = SweepSpec(loads=(0.5,), variants=("vanilla_irsa",), repetitions=2, trials=20)
    # The master seed is the run's seed, which TrainConfig keeps nonnegative.
    for seed, message in ((2**32, "master seed"), (2**33 + 7, "master seed"), (-1, "seed")):
        with pytest.raises(ConfigurationError, match=message):
            run_sweep(spec, replace(BASE, seed=seed))
    for n, rep in ((2**32, 0), (-1, 0), (10, 2**32), (10, -1)):
        with pytest.raises(ConfigurationError):
            harness._cell_rng(0, harness._SWEEP, 1, 0.5, n, rep)
    top = run_sweep(spec, replace(BASE, seed=2**32 - 1))
    assert top != run_sweep(spec, BASE)


# Digests of three small experiments: every sweep variant, the training-length
# ablation and the waterfall study. Any change to a cell's seed key, an RNG
# draw or the train -> deploy -> evaluate arithmetic moves them; a refactor of
# the experiment plumbing must leave them alone.
_PINNED_EXPERIMENTS = {
    "sweep": "95bb152b635a896ab2488e363cecc1e61bd8505cfe1194ad3ff22d563b709829",
    "compare_virtual": "88674a3ab207bbbee7d57e9b7cdb36272b18d9ffc6b3664aa692a196b305af51",
    "waterfall": "b725a91ef7c50196340472f05106b5d97887c598b3c11a23c9da879b501d3b68",
}


def _rows_digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_experiment_streams_are_pinned():
    short = TrainConfig(episodes=2, iters_per_episode=10)
    sweep = run_sweep(
        SweepSpec(loads=(0.5, 1.0), frame_sizes=(10, 20), variants=VARIANTS,
                  repetitions=2, trials=20),
        replace(short, seed=5),
    )
    compare = compare_virtual(
        SweepSpec(repetitions=2, trials=20), replace(_SHORT_CONVERGENCE, load=0.7, seed=6),
        (0, 10, 25),
    )
    waterfall = waterfall_suite(
        SweepSpec(loads=(0.3, 0.9), repetitions=2, trials=20), replace(short, seed=7)
    )
    digests = {
        "sweep": _rows_digest(sweep),
        "compare_virtual": _rows_digest(compare),
        "waterfall": _rows_digest(waterfall),
    }
    assert digests == _PINNED_EXPERIMENTS


# Digests of the plain and virtual learning curves of three short repetitions:
# running the repetitions through the shared runner must leave them alone.
_PINNED_CURVES = {
    False: "4d3b1d9a3c0ba947b312e3e1ee123502e5ee22734a263a83008a122876bdce95",
    True: "b2efa7c5fc7b6b250653df7747133e0438cd27164fceef13f7cf10783a30bbad",
}


@pytest.mark.parametrize("virtual", [False, True], ids=["plain", "virtual"])
def test_learning_curve_streams_are_pinned(virtual):
    curves = learning_curves(0.7, 3, 8, virtual, base=_SHORT_CONVERGENCE)
    assert curves.shape == (3, 3) and curves.dtype == np.float64
    assert hashlib.sha256(curves.tobytes()).hexdigest() == _PINNED_CURVES[virtual]


def test_high_load_preset_caps_replicas(monkeypatch):
    # on the learner the waterfall study trains as dec_rl_high
    configs = _recorded_trains(monkeypatch)
    waterfall_suite(SweepSpec(loads=(0.5,), repetitions=1, trials=2), BASE)
    low, high = (config.params for config in configs)
    assert low == BASE.params
    assert high.d <= 4
    assert high.epsilon > 0.05
    assert high.gamma < 0.98


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_high_load_tuning_never_widens_the_action_space(monkeypatch, d):
    # The tuning used to set d = 3 outright, so a run with max_replicas below
    # 3 trained its heavy-traffic learner on a wider action space.
    configs = _recorded_trains(monkeypatch)
    base = replace(BASE, params=LearningParams(d=d))
    waterfall_suite(SweepSpec(loads=(0.5,), repetitions=1, trials=2), base)
    low, high = (config.params for config in configs)
    assert low.d == d
    assert high.d == min(3, d)


# --- reporting -------------------------------------------------------------------


def test_emit_report_csv_shape(tmp_path):
    rows = [{"a": 1, "b": 2.5}, {"a": 2, "b": 3.5}]
    paths = emit_report({"demo": rows}, str(tmp_path))
    csv_path = os.path.join(str(tmp_path), "demo.csv")
    assert csv_path in paths
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 3


def test_emit_report_byte_identical_reruns(tmp_path):
    rows = [{"x": 0.1234567890123, "y": "q"}]
    emit_report({"t": rows}, str(tmp_path / "one"))
    emit_report({"t": rows}, str(tmp_path / "two"))
    b1 = open(tmp_path / "one" / "t.csv", "rb").read()
    b2 = open(tmp_path / "two" / "t.csv", "rb").read()
    assert b1 == b2


def test_emit_report_summary_checks(tmp_path):
    emit_report(
        {"t": [{"a": 1}]}, str(tmp_path), checks=[("alpha", True), ("beta", False)]
    )
    text = open(tmp_path / "summary.txt").read()
    assert "check alpha: PASS" in text
    assert "check beta: FAIL" in text


def test_emit_report_counts_generator_rows(tmp_path):
    emit_report({"dicts": ({"a": i} for i in range(3))}, str(tmp_path))
    text = open(tmp_path / "summary.txt").read()
    assert "table dicts: 3 rows" in text
    assert len(open(tmp_path / "dicts.csv").read().splitlines()) == 1 + 3


def test_emit_report_requires_tables(tmp_path):
    with pytest.raises(ValueError):
        emit_report({}, str(tmp_path))


def test_emit_report_unwritable_path():
    target = "/proc/definitely/not/writable"
    with pytest.raises(OSError) as err:
        emit_report({"t": [{"a": 1}]}, target)
    assert "/proc" in str(err.value)
