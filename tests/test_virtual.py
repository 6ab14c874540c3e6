import itertools

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from irsa_rl import virtual
from irsa_rl.agent import LearningParams, QTable, learning_rate, q_update
from irsa_rl.virtual import (
    batch_update,
    enumerate_class,
    transform,
)

from oracles import class_size_bound


# --- transform ----------------------------------------------------------------


def test_transform_basic():
    assert transform((3, 2, 2)) == (1, 0)
    assert transform((5, 5)) == (0,)
    assert transform((0, 5)) == (-5,)


def test_transform_rejects_short_windows():
    with pytest.raises(ValueError):
        transform((3,))


# --- class enumeration ----------------------------------------------------------


def test_enumerate_class_known_members():
    members = enumerate_class((1, 0), B=5, w=3)
    assert members == tuple((b, b - 1, b - 1) for b in range(1, 6))
    assert len(members) == 5


def test_enumerate_class_infeasible_key_is_empty():
    assert enumerate_class((6,), B=5, w=2) == ()
    assert enumerate_class((3, 3), B=5, w=3) == ()


def test_enumerate_class_tiny_buffer():
    assert enumerate_class((0,), B=1, w=2) == ((0, 0), (1, 1))


def test_enumerate_class_members_map_back():
    rng = np.random.default_rng(0)
    for _ in range(300):
        B = int(rng.integers(1, 6))
        w = int(rng.integers(2, 5))
        h = tuple(int(x) for x in rng.integers(0, B + 1, w))
        key = transform(h)
        members = enumerate_class(key, B, w)
        assert h in members
        for m in members:
            assert transform(m) == key
            assert all(0 <= level <= B for level in m)
        assert len(members) <= class_size_bound(key, B)


def test_classes_partition_history_space():
    # Sum of class sizes over distinct keys equals (B+1)^w exactly.
    for B, w in ((1, 2), (2, 2), (2, 3), (3, 3)):
        keys = {
            transform(h)
            for h in itertools.product(range(B + 1), repeat=w)
        }
        total = sum(len(enumerate_class(k, B, w)) for k in keys)
        assert total == (B + 1) ** w


def test_class_size_never_exceeds_bound_fuzz():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        B = int(rng.integers(1, 7))
        w = int(rng.integers(2, 6))
        key = tuple(int(x) for x in rng.integers(-B, B + 1, w - 1))
        assert len(enumerate_class(key, B, w)) <= class_size_bound(key, B)


# --- batch update ----------------------------------------------------------------


def _params(B=5, w=3, d=4):
    return LearningParams(B=B, w=w, d=d)


from oracles import sequential_batch_oracle as sequential_oracle


def test_batch_update_degenerate_class_equals_plain_update():
    params = _params(B=5, w=2)
    # Key (5,): only (5, 0) fits in [0,5] at w=2 -> class of size 1.
    h = (5, 0)
    assert enumerate_class(transform(h), 5, 2) == (h,)
    h_next = (0, 1)

    q_batch, q_plain = QTable(params.d), QTable(params.d)
    batch_update(q_batch, h, 2, -1.0, h_next, params)
    q_update(q_plain, h, 2, -1.0, h_next, params)
    assert sorted(q_batch.items()) == sorted(q_plain.items())


def test_batch_update_known_class_rewards():
    # Visited (3,2,2), observed next diff c=0: all five class members update,
    # each with reward = -(its own successor level).
    params = _params(B=5, w=3)
    h, h_next = (3, 2, 2), (2, 2, 2)
    q = QTable(params.d)
    n = batch_update(q, h, 2, -2.0, h_next, params)
    assert n == 5
    for b in range(1, 6):
        member = (b, b - 1, b - 1)
        succ = b - 1
        # first visit, alpha clamps to 1: Q = r + gamma * max_a' Q(next) = -succ
        assert q.q(member, 2) == -float(succ)
        assert q.visits(member, 2) == 1


def test_batch_update_drain_skips_boundary_member():
    # Observed next diff c=1 pushes the lowest member (1,0,0) to successor
    # level -1, which is infeasible; the other four update normally.
    params = _params(B=5, w=3)
    h, h_next = (3, 2, 2), (2, 2, 1)
    q = QTable(params.d)
    n = batch_update(q, h, 2, -1.0, h_next, params)
    assert n == 4
    assert q.visits((1, 0, 0), 2) == 0
    for b in range(2, 6):
        assert q.q((b, b - 1, b - 1), 2) == -float(b - 2)


def test_batch_update_skips_infeasible_successors():
    # Zero-diff key at w=2; observed arrival (c = -1) pushes the b=B member
    # to level B+1, which is infeasible and must be skipped.
    params = _params(B=5, w=2)
    h, h_next = (3, 3), (3, 4)
    q = QTable(params.d)
    n = batch_update(q, h, 1, -4.0, h_next, params)
    assert n == 5  # members b=0..4 update; b=5 would need successor 6
    assert q.visits((5, 5), 1) == 0
    assert q.visits((3, 3), 1) == 1


def test_batch_update_matches_sequential_oracle_exhaustively():
    # Every (history, action, next-diff) combination for small spaces.
    for B, w in ((1, 2), (2, 2), (3, 2), (2, 3), (3, 3)):
        params = _params(B=B, w=w, d=2)
        for h in itertools.product(range(B + 1), repeat=w):
            for a in (1, 2):
                for c_next in range(-B, B + 1):
                    succ = h[-1] - c_next
                    if not 0 <= succ <= B:
                        continue
                    h_next = h[1:] + (succ,)
                    q1, q2 = QTable(params.d), QTable(params.d)
                    # seed both tables with identical prior content
                    q1.record(h, a, -1.0)
                    q2.record(h, a, -1.0)
                    batch_update(q1, h, a, float(-succ), h_next, params)
                    sequential_oracle(q2, h, a, h_next, params)
                    assert sorted(q1.items()) == sorted(q2.items())


def test_batch_update_matches_sequential_oracle_fuzz():
    rng = np.random.default_rng(2)
    params = _params(B=5, w=3, d=4)
    q1, q2 = QTable(params.d), QTable(params.d)
    for step in range(10_000):
        h = tuple(int(x) for x in rng.integers(0, 6, 3))
        a = int(rng.integers(1, 5))
        c_next = int(rng.integers(-5, 6))
        succ = h[-1] - c_next
        if not 0 <= succ <= 5:
            continue
        h_next = h[1:] + (succ,)
        batch_update(q1, h, a, float(-succ), h_next, params)
        sequential_oracle(q2, h, a, h_next, params)
    items1, items2 = sorted(q1.items()), sorted(q2.items())
    assert len(items1) == len(items2)
    for (h1, a1, v1, n1), (h2, a2, v2, n2) in zip(items1, items2):
        assert (h1, a1, n1) == (h2, a2, n2)
        assert abs(v1 - v2) < 1e-12


@pytest.mark.parametrize("action", [0, 5])
def test_batch_update_rejects_bad_action_before_any_write(action):
    # (1, 1, 1) has members (0,0,0)..(5,5,5), none of them in the table yet.
    params = _params(B=5, w=3, d=4)
    q = QTable(params.d)
    batch_update(q, (3, 2, 2), 2, -2.0, (2, 2, 2), params)
    before = (q.to_lines(), q.history_visits())
    with pytest.raises(ValueError, match="action"):
        batch_update(q, (1, 1, 1), action, -1.0, (1, 1, 1), params)
    assert (q.to_lines(), q.history_visits()) == before


def test_batch_update_visit_counts_are_per_member():
    params = _params(B=3, w=2)
    q = QTable(params.d)
    h, h_next = (2, 2), (2, 2)
    batch_update(q, h, 1, -2.0, h_next, params)
    # all four members of the zero-diff key visited once each
    for b in range(4):
        assert q.visits((b, b), 1) == 1
    batch_update(q, h, 1, -2.0, h_next, params)
    for b in range(4):
        assert q.visits((b, b), 1) == 2
    # alpha for the next update of (2,2) reflects two prior visits
    assert learning_rate(q.visits(h, 1), params) == pytest.approx(1.111 * 0.81)


def test_class_members_share_one_move_tuple():
    # Every member of a class holds the same moves for a successor difference;
    # one copy per visited member grew the cache with B.
    B, w, c_next = 200, 2, 1
    members = enumerate_class((1,), B, w)
    first = virtual._moves(members[0], c_next, B, w)
    assert len(first) == B - 1  # member (1, 0) would drain below 0
    for member in (members[1], members[-1]):
        assert virtual._moves(member, c_next, B, w) is first


def test_move_cache_hit_does_not_transform(monkeypatch):
    params = _params(B=9, w=3)
    h, h_next = (7, 5, 6), (5, 6, 4)
    batch_update(QTable(params.d), h, 1, -4.0, h_next, params)
    calls = []
    monkeypatch.setattr(virtual, "transform", lambda h: calls.append(h) or transform(h))
    batch_update(QTable(params.d), h, 1, -4.0, h_next, params)
    assert calls == []


@settings(max_examples=150)
@given(st.data())
def test_batch_update_matches_sequential_oracle_property(data):
    # Two transitions on a table pre-filled with q values and visit counts,
    # mostly on the classes' members and their successors, so alpha and the
    # successor maxima vary: one from a random history, and one from a ramp
    # of constant step whose successor continues the ramp where it can. On a
    # ramp, members update each other's successors within one batch, so their
    # order matters; it shows in a row's max once every action of the row has
    # a negative value, as at d = 1. B is drawn largest first and the step
    # nonzero and at most (B - 2) / (w - 1), so that the ramp's class has at
    # least two moves whenever B allows it.
    B = data.draw(st.sampled_from(range(8, 0, -1)))
    w = data.draw(st.integers(2, 4))
    params = _params(B=B, w=w, d=data.draw(st.sampled_from((1, 3))))
    level = st.integers(0, B)
    steepest = max(B - 2, 0) // (w - 1)
    steps = [c for c in range(-steepest, steepest + 1) if c] or [0]
    step = data.draw(st.sampled_from(steps))
    ramps = [tuple(b - k * step for k in range(w)) for b in range(B + 1)]
    ramp = data.draw(st.sampled_from([r for r in ramps if min(r) >= 0 and max(r) <= B]))
    trend = ramp[-1] - step
    transitions = [
        (data.draw(st.tuples(*[level] * w)), data.draw(level)),
        (ramp, trend if 0 <= trend <= B else data.draw(level)),
    ]
    near = [
        history
        for h, succ in transitions
        for member in enumerate_class(transform(h), B, w)
        for history in (member, member[1:] + (member[-1] - h[-1] + succ,))
        if 0 <= history[-1] <= B
    ]
    entries = data.draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(near), st.tuples(*[level] * w)),
        st.integers(1, params.d),
        st.floats(-B / (1 - params.gamma), 0.0),
        st.integers(1, 5),
    ), max_size=12))
    tables = QTable(params.d), QTable(params.d)
    for q in tables:
        for entry_h, entry_a, value, visits in entries:
            for _ in range(visits):
                q.record(entry_h, entry_a, value)
    for h, succ in transitions:
        a, h_next = data.draw(st.integers(1, params.d)), h[1:] + (succ,)
        batch_update(tables[0], h, a, float(-succ), h_next, params)
        sequential_oracle(tables[1], h, a, h_next, params)
    exact = [[(e_h, e_a, v.hex(), n) for e_h, e_a, v, n in sorted(q.items())] for q in tables]
    assert exact[0] == exact[1]

# --- statistical validation of the coverage-speedup predictions --------------------


def _iid_cover_times(universe, probs, classes, rng, runs, use_classes):
    """Coverage times when pairs are drawn iid; classes batch-cover members."""
    times = []
    idx = np.arange(len(universe))
    for _ in range(runs):
        seen = set()
        t = 0
        order = rng.choice(idx, size=len(universe) * 40, p=probs)
        for k in order:
            t += 1
            if use_classes:
                seen.update(classes[k])
            else:
                seen.add(universe[k])
            if len(seen) == len(universe):
                break
        times.append(t)
    return np.array(times)


@pytest.fixture(scope="module")
def visit_model():
    """Empirical history-visit distribution from an actual training run.

    Coverage is modeled over histories (the action dimension only rescales
    both processes by the same constant, so the ratio is unaffected).
    """
    from irsa_rl.env import TrainConfig, new_nodes, reset_episode, step_frame

    params = LearningParams(B=5, w=3, d=2)
    cfg = TrainConfig(
        load=0.7,
        params=params,
        episodes=200,
        iters_per_episode=30,
        seed=123,
    )
    rng = np.random.default_rng(cfg.seed)
    nodes = new_nodes(cfg)
    counts: dict = {}
    for _ in range(cfg.episodes):
        reset_episode(nodes, params, rng)
        for _ in range(cfg.iters_per_episode):
            before = [n.history for n in nodes]
            active = [i for i, n in enumerate(nodes) if n.buffer > 0]
            step_frame(nodes, cfg, rng)
            for i in active:
                counts[before[i]] = counts.get(before[i], 0) + 1
    return params, counts


def test_lemma_style_coverage_speedup(visit_model):
    """Coverage-time ratio (batching on vs off) within a factor of two of
    log2(1-P) / log2(1-|class| P).

    The bound is derived for states sampled with replacement from an i.i.d.
    distribution, so the check samples i.i.d. over the support actually
    visited by the training run, with the class structure taken from the
    transform. P is the per-interval cover probability estimated by Monte
    Carlo from the batching-off process.
    """
    params, counts = visit_model
    universe = sorted(counts)
    probs = np.full(len(universe), 1.0 / len(universe))
    support = set(universe)
    classes = [
        [
            m
            for m in enumerate_class(transform(h), params.B, params.w)
            if m in support
        ]
        for h in universe
    ]
    mean_class = np.mean([len(c) for c in classes])
    assert mean_class > 1.5  # batching must actually batch here

    rng = np.random.default_rng(7)
    plain = _iid_cover_times(universe, probs, classes, rng, 80, use_classes=False)
    batched = _iid_cover_times(universe, probs, classes, rng, 80, use_classes=True)
    measured_ratio = batched.mean() / plain.mean()

    # pick an interval where the plain cover probability is small enough for
    # the corollary's logs to stay defined
    interval = int(np.percentile(plain, 10))
    p_hat = float(np.clip(np.mean(plain <= interval), 0.02, 0.9 / mean_class))
    predicted = np.log2(1 - p_hat) / np.log2(1 - mean_class * p_hat)
    assert predicted / 2 <= measured_ratio <= predicted * 2

    # the lemma's claim: batching scales the per-interval cover probability
    # by roughly the class size, so the batched process covers far earlier
    pv_hat = np.mean(batched <= interval)
    assert pv_hat > p_hat
