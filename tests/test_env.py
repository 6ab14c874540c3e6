from collections import Counter
import hashlib
import math
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
from scipy import stats as sps

from irsa_rl import env
from irsa_rl.agent import LearningParams, QTable, initial_history
from irsa_rl.core import BASELINE_IRSA, PURE_ALOHA, simulate_frame, simulate_saturated
from irsa_rl.env import (
    ArrivalModel,
    ConfigurationError,
    FramePlan,
    NodeState,
    TrainConfig,
    deployed_policies,
    detect_bad_episode,
    evaluate,
    new_nodes,
    reset_episode,
    step_frame,
    train,
)
from irsa_rl.harness import convergence_config
from oracles import exact_step_law, reference_train


def make_nodes(buffers, params, lines=()):
    """Nodes at ``buffers``, each with its own table loaded from ``lines``."""
    return [
        NodeState(
            buffer=b,
            history=initial_history(b, params.w),
            q=QTable.from_lines(lines, params.d),
        )
        for b in buffers
    ]


# --- arrivals ----------------------------------------------------------------


def test_arrival_models_sample_shapes_and_ranges():
    rng = np.random.default_rng(0)
    bern = ArrivalModel("bernoulli", 0.3).sample(rng, 10_000)
    assert set(np.unique(bern)) <= {0, 1}
    assert abs(bern.mean() - 0.3) < 3 * math.sqrt(0.3 * 0.7 / 10_000)
    poi = ArrivalModel("poisson", 1.5).sample(rng, 10_000)
    assert poi.min() >= 0
    assert abs(poi.mean() - 1.5) < 3 * math.sqrt(1.5 / 10_000)
    det = ArrivalModel("deterministic", 2).sample(rng, 5)
    assert list(det) == [2] * 5


def test_arrival_model_validation():
    with pytest.raises(ConfigurationError):
        ArrivalModel("bernoulli", 1.5)
    with pytest.raises(ConfigurationError):
        ArrivalModel("uniform", 0.5)
    with pytest.raises(ConfigurationError):
        ArrivalModel("deterministic", 1.5)


@pytest.mark.parametrize(
    "kind,param", [("poisson", 1e19), ("deterministic", 1e19), ("deterministic", 2.0**63)]
)
def test_arrival_model_rejects_params_numpy_cannot_draw(kind, param):
    # The Poisson mean used to pass and then raise "lam value too large" at
    # the first draw; the counts raised OverflowError at construction.
    with pytest.raises(ConfigurationError, match=kind):
        ArrivalModel(kind, param)


def test_arrival_model_accepts_largest_int64_count():
    top = 2**63 - 1024  # the largest float64 below 2**63
    sample = ArrivalModel("deterministic", float(top)).sample(np.random.default_rng(0), 2)
    assert sample.tolist() == [top, top]


def _poisson_accepts(mean) -> bool:
    try:
        np.random.default_rng(0).poisson(mean)
    except ValueError:
        return False
    return True


def test_poisson_arrival_limit_matches_numpy():
    # Bisect numpy's largest accepted mean, then check both sides of it.
    lo, hi = 9.2e18, 9.3e18
    assert _poisson_accepts(lo) and not _poisson_accepts(hi)
    while np.nextafter(lo, np.inf) < hi:
        mid = lo + (hi - lo) / 2
        if mid in (lo, hi):
            mid = np.nextafter(lo, np.inf)
        lo, hi = (mid, hi) if _poisson_accepts(mid) else (lo, mid)
    assert ArrivalModel("poisson", float(lo)).param == lo
    with pytest.raises(ConfigurationError, match="poisson"):
        ArrivalModel("poisson", float(hi))


# --- config ------------------------------------------------------------------


def test_config_node_count_from_load():
    assert TrainConfig(load=0.7, n_slots=10).m == 7
    assert TrainConfig(load=1.0, n_slots=10).m == 10
    assert TrainConfig(load=0.5, n_slots=10, n_nodes=3).m == 3


def test_config_rejects_degenerate_dimensions():
    with pytest.raises(ConfigurationError):
        TrainConfig(load=0.01, n_slots=10)  # rounds to zero nodes
    with pytest.raises(ConfigurationError):
        TrainConfig(load=0.5, episodes=-1)


def test_config_total_iterations():
    cfg = TrainConfig(load=0.5, episodes=50, iters_per_episode=30)
    assert cfg.total_iterations == 1500


@pytest.mark.parametrize("n_slots", [0, -3])
def test_with_load_rejects_a_frame_without_slots(n_slots):
    # n_slots = 0 used to be read as "keep the old frame size".
    with pytest.raises(ConfigurationError, match="n_slots"):
        TrainConfig(n_slots=12, load=0.5).with_load(0.75, n_slots=n_slots)


# --- step_frame ---------------------------------------------------------------


def test_step_frame_all_empty_buffers():
    params = LearningParams()
    cfg = TrainConfig(
        load=0.5, params=params, arrivals=ArrivalModel("deterministic", 0)
    )
    nodes = make_nodes([0] * cfg.m, params)
    res = step_frame(nodes, cfg, np.random.default_rng(1))
    assert res.throughput == 0.0
    assert res.mean_reward == 0.0
    assert all(len(n.q) == 0 for n in nodes)  # no updates happened


def test_step_frame_single_node_drains():
    params = LearningParams()
    cfg = TrainConfig(load=0.1, params=params, arrivals=ArrivalModel("bernoulli", 0.5))
    rng = np.random.default_rng(2)
    for _ in range(50):
        nodes = make_nodes([1], params)
        res = step_frame(nodes, cfg, rng)
        # a lone transmitter always decodes; buffer becomes the fresh arrival
        assert res.decoded == 1
        f = nodes[0].buffer
        assert res.mean_reward == -float(f)
        assert nodes[0].history[-1] == f


def test_step_frame_histories_track_buffers():
    params = LearningParams()
    cfg = TrainConfig(load=0.8, params=params)
    nodes = make_nodes([2] * cfg.m, params)
    rng = np.random.default_rng(3)
    for _ in range(40):
        step_frame(nodes, cfg, rng)
        for n in nodes:
            assert n.history[-1] == n.buffer
            assert 0 <= n.buffer <= params.B


def test_step_frame_buffer_conservation():
    # b' - b = arrivals - service before clamping; drops are accounted.
    params = LearningParams(B=2)
    cfg = TrainConfig(
        load=1.0,
        params=params,
        arrivals=ArrivalModel("deterministic", 1),
    )
    nodes = make_nodes([2] * cfg.m, params)
    rng = np.random.default_rng(4)
    for _ in range(30):
        before = [n.buffer for n in nodes]
        res = step_frame(nodes, cfg, rng)
        after = [n.buffer for n in nodes]
        served = res.decoded
        gained = sum(a - b for a, b in zip(after, before))
        # arrivals = m, so conservation: gained = m - served - dropped
        assert gained == cfg.m - served - res.dropped


def test_step_frame_throughput_accounting():
    params = LearningParams()
    cfg = TrainConfig(load=1.0, params=params)
    nodes = make_nodes([5] * cfg.m, params)
    rng = np.random.default_rng(5)
    for _ in range(30):
        res = step_frame(nodes, cfg, rng)
        assert res.throughput == res.decoded / cfg.n_slots
        assert 0 <= res.decoded <= res.transmitting


def test_frame_mean_reward_is_numpy_mean_bit_for_bit():
    # From m = 8 on, numpy sums the rewards pairwise in blocks, not left to
    # right; with exact integer partial sums the order cannot matter. A node
    # that held packets before the frame transmitted and is rewarded with
    # minus its new level; a silent node gets 0.
    rng = np.random.default_rng(31)
    for m in range(1, 41):
        for B in (1, 7, 2**47):  # 40 * 2**47 < 2**53
            params = LearningParams(B=B)
            cfg = TrainConfig(n_nodes=m, params=params)
            nodes = make_nodes([int(b) for b in rng.integers(0, B + 1, m)], params)
            for _ in range(3):
                sent = [n.buffer > 0 for n in nodes]
                res = step_frame(nodes, cfg, rng)
                rewards = [-float(n.buffer) if s else 0.0 for n, s in zip(nodes, sent)]
                assert res.mean_reward.hex() == float(np.mean(rewards)).hex(), (m, B)


@pytest.mark.parametrize(
    "arrivals", [ArrivalModel("bernoulli", 0.5), ArrivalModel("poisson", 1.5)],
    ids=["bernoulli", "poisson"],
)
def test_step_frame_draw_count_is_fixed(arrivals):
    # Whatever the nodes hold, a frame draws the same block from the run's
    # generator: its stream depends only on the seed and the frame index.
    trained = train(TrainConfig(load=1.0, episodes=4, seed=8))[0]
    states = []
    for epsilon in (0.0, 1.0):
        params = LearningParams(epsilon=epsilon)
        cfg = TrainConfig(load=1.0, params=params, arrivals=arrivals)
        for buffers in ([0] * cfg.m, [params.B] * cfg.m, [0, params.B] * (cfg.m // 2)):
            for tables in ("empty", "trained"):
                nodes = make_nodes(buffers, params)
                if tables == "trained":
                    for node, source in zip(nodes, trained):
                        node.q = QTable.from_lines(source.q.to_lines(), params.d)
                rng = np.random.default_rng(12)
                seen = []
                for _ in range(3):
                    step_frame(nodes, cfg, rng)
                    seen.append(rng.bit_generator.state)
                states.append(seen)
    assert len(states) == 12
    assert all(seen == states[0] for seen in states)


@pytest.mark.parametrize(
    "arrivals",
    [
        ArrivalModel("bernoulli", 0.5),
        ArrivalModel("poisson", 1.5),
        ArrivalModel("deterministic", 2),
    ],
    ids=["bernoulli", "poisson", "deterministic"],
)
@pytest.mark.parametrize("stretch_rows", [None, 3])
@pytest.mark.parametrize("used", [0, 1, 7, 8, 9, 20])
def test_frame_plan_matches_per_frame_draws_and_rewinds(monkeypatch, arrivals, stretch_rows, used):
    cfg = TrainConfig(n_slots=6, n_nodes=5, params=LearningParams(d=4), arrivals=arrivals)
    plan_rng, frame_rng = np.random.default_rng(3), np.random.default_rng(3)
    for rng in (plan_rng, frame_rng):
        rng.integers(0, 6, size=3)  # leaves a spare 32-bit half in the generator
    if stretch_rows:
        monkeypatch.setattr(env, "_STRETCH_DOUBLES", stretch_rows * 5 * 9)
    plan = FramePlan(cfg, plan_rng, cfg.m, frames=20)
    for _ in range(used):
        explore, pick, ranks, arrived = plan.next_frame()
        block = frame_rng.random((cfg.m, cfg.n_slots + 2))
        assert explore == block[:, 0].tolist() and pick == block[:, 1].tolist()
        assert ranks == block[:, 2:].argsort(axis=1)[:, :4].tolist()
        assert arrived == cfg.arrivals.sample(frame_rng, cfg.m).tolist()
    plan.rewind()
    assert plan_rng.bit_generator.state == frame_rng.bit_generator.state
    assert plan_rng.integers(0, 6, size=5).tolist() == frame_rng.integers(0, 6, size=5).tolist()


def test_frame_plan_hands_out_only_the_frames_it_was_given():
    cfg = TrainConfig(load=0.5)
    plan = FramePlan(cfg, np.random.default_rng(0), cfg.m, frames=2)
    plan.next_frame()
    plan.next_frame()
    with pytest.raises(ValueError, match="no frames left"):
        plan.next_frame()
    plan.start(1)
    plan.next_frame()


def test_step_frame_places_replicas_uniformly_over_subsets(monkeypatch):
    # Every explored action a places its replicas on the first a argsort
    # ranks of the node's row; for each a, those slots must be a uniform
    # a-subset. Deterministic arrivals keep every node transmitting.
    n_slots, frames = 5, 3000
    seen = {}

    def recording_simulate_frame(bursts):
        for slots in bursts.values():
            key = frozenset(slots)
            assert len(key) == len(slots)
            per_size = seen.setdefault(len(key), {})
            per_size[key] = per_size.get(key, 0) + 1
        return simulate_frame(bursts)

    monkeypatch.setattr(env, "simulate_frame", recording_simulate_frame)
    params = LearningParams(epsilon=1.0, d=n_slots - 1)
    cfg = TrainConfig(
        n_slots=n_slots, load=0.6, params=params, arrivals=ArrivalModel("deterministic", 1)
    )
    nodes = make_nodes([params.B] * cfg.m, params)
    rng = np.random.default_rng(2018)
    for _ in range(frames):
        result = step_frame(nodes, cfg, rng)
        assert result.transmitting == cfg.m
    # counts stay plain ints, not numpy scalars
    assert {type(result.decoded), type(result.transmitting), type(result.dropped)} == {int}
    assert sorted(seen) == list(range(1, n_slots))
    for size, counts in seen.items():
        assert len(counts) == math.comb(n_slots, size)
        assert sps.chisquare(list(counts.values())).pvalue > 1e-3


# --- bad-episode detection -------------------------------------------------------


@pytest.mark.parametrize(
    "rewards,expected",
    [
        ((-1, -2, -3, -4), True),
        ((-1, -1, -1, -1), False),
        ((-1, -2, -1, -2), False),
        ((-1, -2, -3), False),  # needs three deltas
        ((0, -1, -2, -3, -4), True),
    ],
)
def test_detect_bad_episode(rewards, expected):
    assert detect_bad_episode(rewards) is expected


def _three_deltas(rewards) -> bool:
    """The bad-episode test as first written: three strictly negative deltas."""
    r = list(rewards)
    if len(r) < 4:
        return False
    return all(r[-k] < r[-k - 1] for k in (1, 2, 3))


_REWARDS = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, -1.0, -2.0, -3.0, math.nan, -math.inf]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-5, 5),
    ),
    max_size=8,
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(rewards=_REWARDS, container=st.sampled_from(["list", "tuple", "iterator"]))
@example(rewards=[0.0, -1.0, -0.0, -2.0], container="list")
@example(rewards=[-1.0, -2.0, math.nan, -4.0], container="iterator")
@example(rewards=[-1.0, -2.0, -3.0, -3.0], container="tuple")
def test_detect_bad_episode_matches_three_deltas(rewards, container):
    make = {"list": list, "tuple": tuple, "iterator": iter}[container]
    assert detect_bad_episode(make(rewards)) is _three_deltas(make(rewards))


# --- reset --------------------------------------------------------------------


def test_reset_episode_uniform_initial_distribution():
    params = LearningParams(B=5)
    nodes = make_nodes([0] * 2000, params)
    rng = np.random.default_rng(6)
    levels = []
    for _ in range(50):
        reset_episode(nodes, params, rng)
        levels.extend(n.buffer for n in nodes)
    levels = np.array(levels)
    n = len(levels)
    p = 1 / 6
    se = math.sqrt(p * (1 - p) / n)
    for level in range(6):
        assert abs(np.mean(levels == level) - p) < 3 * se


def test_reset_episode_preserves_experience_and_fills_history():
    params = LearningParams()
    nodes = make_nodes([3, 4], params)
    nodes[0].q.record((1, 1, 1, 1), 2, -1.5)
    snapshot = sorted(nodes[0].q.items())
    rng = np.random.default_rng(7)
    reset_episode(nodes, params, rng)
    assert sorted(nodes[0].q.items()) == snapshot
    for n in nodes:
        assert n.history == (n.buffer,) * params.w


# --- train ----------------------------------------------------------------------


def test_train_zero_iterations_leaves_agents_untouched():
    cfg = TrainConfig(load=0.5, episodes=1, iters_per_episode=0, seed=0)
    nodes, record = train(cfg)
    assert len(record) == 0
    assert all(len(n.q) == 0 for n in nodes)


def test_train_deterministic_under_seed():
    cfg = TrainConfig(load=0.7, episodes=10, seed=42)
    _, rec1 = train(cfg)
    _, rec2 = train(cfg)
    assert rec1.mean_reward == rec2.mean_reward
    assert rec1.throughput == rec2.throughput
    assert rec1.resets == rec2.resets


def test_train_different_seeds_differ():
    cfg1 = TrainConfig(load=0.7, episodes=10, seed=1)
    cfg2 = TrainConfig(load=0.7, episodes=10, seed=2)
    assert train(cfg1)[1].mean_reward != train(cfg2)[1].mean_reward


def test_train_qvalues_within_theoretical_bounds():
    cfg = TrainConfig(load=0.8, episodes=20, seed=3)
    nodes, _ = train(cfg)
    bound = cfg.params.B / (1 - cfg.params.gamma)
    assert any(len(n.q) for n in nodes)
    for n in nodes:
        for _, _, value, visits in n.q.items():
            assert -bound <= value <= 0.0
            assert visits >= 1


def test_train_trace_shape_and_episode_means():
    cfg = TrainConfig(load=0.5, episodes=4, iters_per_episode=10, seed=4)
    _, rec = train(cfg)
    assert len(rec) == 40
    assert len(rec.episode_means()) == 4
    assert len(rec.episode_trace(2)) == 10
    rows = list(rec.rows(trial=7))
    assert rows[0][0] == 7 and len(rows[0]) == 6


def _run_state(nodes, record):
    return (
        record.mean_reward,
        record.throughput,
        record.resets,
        record.dropped,
        [node.q.to_lines() for node in nodes],
    )


def _train_digest(cfg):
    return hashlib.sha256(repr(_run_state(*train(cfg))).encode()).hexdigest()


# Digests of the training stream: trace, drop total and every node's table.
# Any change to an RNG draw, the update order or the floating-point arithmetic
# of the trainer moves them; a pure speed-up must leave them alone.
_PINNED_STREAMS = [
    (
        TrainConfig(load=1.0, episodes=6, seed=11),
        "fe702a70f0010fba8b0c1b0179e1e391d29865c92456044d24c6e098578f91c5",
    ),
    (
        replace(convergence_config(0.7, virtual=True, seed=12), episodes=8),
        "7ca3d4ed7ebd8b3f203dbb3d829b61e064abd5a5d399a6b54287ad522b149cb0",
    ),
    (
        TrainConfig(
            load=0.6,
            params=LearningParams(alpha_schedule="polynomial", phi=0.7),
            virtual_experience=True,
            episodes=6,
            seed=13,
        ),
        "5788acfa52faf21a841f75579bbc62e27a8a783fb5980ef5131546f330f4980d",
    ),
    (
        TrainConfig(load=0.8, arrivals=ArrivalModel("poisson", 0.4), episodes=6, seed=14),
        "2048b7d74e70948e3d2ec35caeb456e87d327162c072867c05c6b20979aa7e94",
    ),
    (
        TrainConfig(
            load=0.5,
            arrivals=ArrivalModel("deterministic", 1),
            virtual_experience=True,
            episodes=6,
            seed=15,
        ),
        "15cdb09fb89c504839571071d98fc4ec8d18ce9a231b56fff7845fefa204e2d2",
    ),
]


@pytest.mark.parametrize(
    "cfg,digest", _PINNED_STREAMS, ids=["plain", "virtual", "poly", "poisson", "deterministic"]
)
def test_train_stream_is_pinned(cfg, digest):
    assert _train_digest(cfg) == digest


# train draws frames a stretch ahead and rewinds at each reset; the reference
# steps frame by frame on the bare generator. Together the configs cover the
# three arrival kinds, episodes of 0, 1 and 30 frames, epsilon 0 and 1,
# B = 1, several resets per episode, and stretches cut at the draw limit.
_REFERENCE_CONFIGS = {
    "resets": TrainConfig(load=1.0, episodes=2, iters_per_episode=200, seed=21),
    "short-stretches": TrainConfig(n_slots=60, load=1.0, episodes=2, iters_per_episode=60, seed=22),
    "no-frames": TrainConfig(load=0.5, episodes=3, iters_per_episode=0, seed=23),
    "one-frame": TrainConfig(load=0.9, episodes=12, iters_per_episode=1, seed=24),
    "greedy": TrainConfig(load=0.9, params=LearningParams(epsilon=0.0), episodes=5, seed=25),
    "exploring-B1": TrainConfig(
        load=0.8, params=LearningParams(epsilon=1.0, B=1), episodes=5, seed=26
    ),
    "virtual": replace(convergence_config(0.7, virtual=True, seed=27), episodes=4),
    "poisson": TrainConfig(
        load=0.8, arrivals=ArrivalModel("poisson", 0.6), episodes=3, iters_per_episode=60, seed=28
    ),
    "deterministic": TrainConfig(
        load=1.0,
        params=LearningParams(B=8),
        arrivals=ArrivalModel("deterministic", 1),
        episodes=3,
        iters_per_episode=60,
        seed=29,
    ),
}


@pytest.mark.parametrize("cfg", _REFERENCE_CONFIGS.values(), ids=_REFERENCE_CONFIGS)
def test_train_equals_frame_by_frame_reference(cfg):
    nodes, record = train(cfg)
    assert _run_state(nodes, record) == _run_state(*reference_train(cfg))


def test_reference_configs_reset_in_mid_stretch():
    per = {}
    for name in ("resets", "short-stretches", "poisson", "deterministic"):
        cfg = _REFERENCE_CONFIGS[name]
        resets = train(cfg)[1].resets
        per[name] = max(
            sum(resets[k : k + cfg.iters_per_episode])
            for k in range(0, len(resets), cfg.iters_per_episode)
        )
    assert per["resets"] >= 5 and per["deterministic"] >= 5
    assert per["short-stretches"] >= 1 and per["poisson"] >= 1
    # A stretch holds a whole 30-frame episode at m = N = 10, but only a
    # few frames of a 60-frame episode at m = N = 60.
    assert env._STRETCH_DOUBLES // (10 * 13) > 30
    assert env._STRETCH_DOUBLES // (60 * 63) < 60


def test_step_frame_meets_the_exact_one_frame_law():
    # m = N = d = 3, B = 2, buffers 0, 1 and B. Node 1's history holds a
    # two-way greedy tie (actions 2 and 3); node 2's history is unvisited.
    params = LearningParams(epsilon=0.3, B=2, d=3)
    cfg = TrainConfig(
        n_slots=3, n_nodes=3, params=params, arrivals=ArrivalModel("bernoulli", 0.4)
    )
    table = QTable(params.d)
    ones = initial_history(1, params.w)
    for a, value in ((1, -0.5), (2, -0.2), (3, -0.2)):
        table.record(ones, a, value)
    lines = table.to_lines()
    buffers = (0, 1, params.B)

    law = exact_step_law(make_nodes(buffers, params, lines), cfg)
    assert math.isclose(sum(law.values()), 1.0)

    calls = 20_000
    plan = FramePlan(cfg, np.random.default_rng(4242), cfg.m, frames=calls)
    seen = Counter()
    totals = np.zeros((calls, 3))
    for k in range(calls):
        nodes = make_nodes(buffers, params, lines)
        result = step_frame(nodes, cfg, plan)
        seen[tuple(node.buffer for node in nodes)] += 1
        totals[k] = result.decoded, result.dropped, result.mean_reward

    # Joint next buffers: chi-square with cells of expected count < 5 merged.
    expected = Counter()
    for (after, *_), p in law.items():
        expected[after] += calls * p
    assert set(seen) <= set(expected)
    pool = [cell for cell in expected if expected[cell] < 5]
    rest = sorted((cell for cell in expected if expected[cell] >= 5), key=expected.get)
    while pool and sum(expected[cell] for cell in pool) < 5:
        pool.append(rest.pop(0))
    groups = [[cell] for cell in rest] + ([pool] if pool else [])
    observed = [sum(seen[cell] for cell in group) for group in groups]
    predicted = [sum(expected[cell] for cell in group) for group in groups]
    assert len(observed) >= 8
    assert sps.chisquare(observed, predicted).pvalue > 1e-3

    # Means of decoded, dropped and mean_reward within 4 standard errors.
    outcomes = np.array([key[1:] for key in law], dtype=float)
    probs = np.array(list(law.values()))
    mean = probs @ outcomes
    sd = np.sqrt(probs @ (outcomes - mean) ** 2)
    assert np.all(sd > 0)
    assert np.all(np.abs(totals.mean(axis=0) - mean) <= 4 * sd / math.sqrt(calls))


def test_train_fast_convergence_at_light_load():
    # At G=0.2 the mean-reward trace settles within a few in-episode steps.
    traces = []
    for seed in range(8):
        cfg = TrainConfig(load=0.2, seed=seed)
        _, rec = train(cfg)
        traces.append(rec.episode_trace(24))
    avg = np.mean(traces, axis=0)
    final = avg[-1]
    settled = np.flatnonzero(np.abs(avg - final) <= 0.5)
    first_stable = next(
        i for i in settled if np.all(np.abs(avg[i:] - final) <= 0.5)
    )
    assert first_stable <= 10


# --- evaluate ----------------------------------------------------------------------


def test_evaluate_single_node_low_load():
    # M=1: a lone backlogged node delivers one packet per frame -> T = 1/N.
    cfg = TrainConfig(load=0.1, n_slots=10)
    s = evaluate(BASELINE_IRSA, cfg, trials=2000, rng=np.random.default_rng(8))
    assert s.mean == pytest.approx(0.1, abs=1e-12)
    assert s.stderr < 1e-12


def test_evaluate_pure_aloha_matches_poisson_limit():
    cfg = TrainConfig(load=0.5, n_slots=200)
    s = evaluate(PURE_ALOHA, cfg, trials=3000, rng=np.random.default_rng(9))
    assert abs(s.mean - 0.30327) < 0.01


def test_evaluate_waterfall_onset_vanilla():
    cfg8 = TrainConfig(load=0.8, n_slots=10)
    cfg10 = TrainConfig(load=1.0, n_slots=10)
    t8 = evaluate(BASELINE_IRSA, cfg8, trials=4000, rng=np.random.default_rng(10))
    t10 = evaluate(BASELINE_IRSA, cfg10, trials=4000, rng=np.random.default_rng(11))
    assert t10.mean < t8.mean


def test_evaluate_throughput_bounded_by_load():
    for g in (0.2, 0.4, 0.5):
        cfg = TrainConfig(load=g, n_slots=10)
        s = evaluate(BASELINE_IRSA, cfg, trials=1500, rng=np.random.default_rng(12))
        assert s.mean <= g + 1e-12


def test_evaluate_per_node_policies():
    cfg = TrainConfig(load=0.5, episodes=10, seed=13)
    nodes, _ = train(cfg)
    pols = deployed_policies([n.q for n in nodes])
    assert len(pols) == cfg.m
    s1 = evaluate(pols, cfg, trials=500, rng=np.random.default_rng(14))
    assert 0 <= s1.mean <= 1


def test_evaluate_rejects_bad_policy_shapes():
    cfg = TrainConfig(load=0.5)
    rng = np.random.default_rng(15)
    with pytest.raises(ConfigurationError):
        evaluate([BASELINE_IRSA] * 2, cfg, trials=10, rng=rng)
    with pytest.raises(ConfigurationError):
        evaluate(BASELINE_IRSA, cfg, trials=0, rng=rng)
    with pytest.raises(ConfigurationError):  # trained nodes, not distributions
        evaluate(make_nodes([1] * cfg.m, cfg.params), cfg, trials=10, rng=rng)


def test_untrained_agents_deploy_uniform_policy():
    cfg = TrainConfig(load=0.5)
    pols = deployed_policies([n.q for n in new_nodes(cfg)])
    for p in pols:
        assert np.allclose(p.coeffs, 1 / cfg.params.d)


# --- driver vs standalone equivalence ------------------------------------------------


def test_saturated_driver_matches_core_simulation():
    # Buffers pinned by deterministic arrivals and a single action: learning
    # cannot change what nodes play, so the in-driver throughput distribution
    # must match the standalone saturated runner.
    params = LearningParams(d=1, B=5)  # action space {1}: fixed-degree play
    cfg = TrainConfig(
        load=1.0,
        n_slots=10,
        params=params,
        arrivals=ArrivalModel("deterministic", 1),
    )
    nodes = make_nodes([5] * cfg.m, params)
    rng = np.random.default_rng(16)
    driver = np.array(
        [step_frame(nodes, cfg, rng).decoded for _ in range(4000)]
    )
    core = simulate_saturated(
        [PURE_ALOHA] * cfg.m, cfg.n_slots, 4000, np.random.default_rng(17)
    )
    _, pvalue = sps.ttest_ind(driver, core, equal_var=False)
    assert pvalue > 0.01
    assert abs(driver.mean() - core.mean()) < 0.15
