import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from irsa_rl.agent import (
    LearningParams,
    NoExperienceError,
    QTable,
    extract_policy,
    initial_history,
    learning_rate,
    q_update,
    reward,
    select_action,
    shift_history,
    td_updates,
)

from oracles import as_terms


PARAMS = LearningParams()


# --- learning-rate schedule -------------------------------------------------


def test_learning_rate_clamped_at_first_visit():
    assert learning_rate(0, PARAMS) == 1.0


def test_learning_rate_schedule_values():
    assert abs(learning_rate(1, PARAMS) - 1.111 * 0.9) < 1e-9
    assert abs(learning_rate(10, PARAMS) - 0.3874) < 1e-4


def test_learning_rate_decreasing_and_positive():
    rates = [learning_rate(v, PARAMS) for v in range(60)]
    assert all(0 < r <= 1 for r in rates)
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_polynomial_schedule_satisfies_robbins_monro_shape():
    p = LearningParams(alpha_schedule="polynomial", phi=0.8)
    rates = np.array([learning_rate(v, p) for v in range(2000)])
    assert rates[0] == 1.0
    # partial sums of alpha grow without bound while alpha^2 sums converge
    assert rates.sum() > 10
    assert (rates**2).sum() < (np.arange(1, 2001.0) ** -1.6).sum() + 1


def test_geometric_schedule_violates_divergence_condition():
    # sum over visits of 1.111 * 0.9^v is finite, so the classic convergence
    # guarantee does not apply; the polynomial mode exists for that purpose.
    total = sum(learning_rate(v, PARAMS) for v in range(10_000))
    assert total < 1.111 / (1 - 0.9) + 1


def test_learning_rate_rejects_negative_visits():
    with pytest.raises(ValueError):
        learning_rate(-1, PARAMS)


# --- action selection -------------------------------------------------------


def test_select_action_greedy_picks_strict_max():
    q = QTable(4)
    h = (0, 0, 0, 1)
    q.record(h, 2, 1.5)
    q.record(h, 1, 0.5)
    p = LearningParams(epsilon=0.0)
    rng = np.random.default_rng(0)
    assert all(select_action(q, h, p, *rng.random(2)) == 2 for _ in range(50))


def test_select_action_pure_exploration_uniform():
    q = QTable(4)
    h = (1, 1, 1, 1)
    p = LearningParams(epsilon=1.0)
    rng = np.random.default_rng(1)
    n = 100_000
    draws = np.array([select_action(q, h, p, *rng.random(2)) for _ in range(n)])
    se = math.sqrt(0.25 * 0.75 / n)
    for a in range(1, 5):
        assert abs(np.mean(draws == a) - 0.25) < 3 * se


def test_select_action_tie_break_uniform_on_empty_table():
    q = QTable(4)
    h = (1, 1, 1, 1)
    p = LearningParams(epsilon=0.0)
    rng = np.random.default_rng(2)
    n = 100_000
    draws = np.array([select_action(q, h, p, *rng.random(2)) for _ in range(n)])
    se = math.sqrt(0.25 * 0.75 / n)
    for a in range(1, 5):
        assert abs(np.mean(draws == a) - 0.25) < 3 * se


def test_select_action_range_fuzz():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5, 8):
        q = QTable(d)
        p = LearningParams(epsilon=0.3, d=d)
        for _ in range(500):
            h = tuple(int(x) for x in rng.integers(0, 6, size=4))
            assert 1 <= select_action(q, h, p, *rng.random(2)) <= d


# --- reward -----------------------------------------------------------------


def test_reward_finite_buffer():
    assert reward(4) == -4.0
    assert reward(0) == 0.0


@pytest.mark.parametrize("field", ["w", "B", "d"])
@pytest.mark.parametrize("value", [math.inf, 2.5], ids=["inf", "fraction"])
def test_learning_params_reject_non_integer_sizes(field, value):
    # an unbounded or fractional buffer used to pass here and fail later,
    # inside training, with an OverflowError or float buffer levels
    with pytest.raises(ValueError, match="integers"):
        LearningParams(**{field: value})


# --- q-update ---------------------------------------------------------------


def test_q_update_first_visit_overwrites():
    q = QTable(4)
    h, h2 = (0, 0, 0, 1), (0, 0, 1, 0)
    q_update(q, h, 2, -3.0, h2, PARAMS)
    assert q.q(h, 2) == -3.0
    assert q.visits(h, 2) == 1


def test_q_update_hand_computed_blend():
    # alpha forced to 0.5 via a custom schedule-free check: set visits so the
    # geometric schedule lands near 0.5 is awkward, so verify the blend
    # arithmetic directly with alpha = learning_rate(8, params).
    p = LearningParams(gamma=0.98)
    alpha = learning_rate(8, p)
    q = QTable(4)
    h, h2 = (1, 1, 1, 1), (1, 1, 1, 2)
    for _ in range(8):
        q.record(h, 1, 1.0)  # drive visits to 8, q to 1.0
    q.record(h2, 3, 1.0)
    q_update(q, h, 1, 0.0, h2, p)
    expected = (1 - alpha) * 1.0 + alpha * (0.0 + 0.98 * 1.0)
    assert abs(q.q(h, 1) - expected) < 1e-12


def test_q_update_zero_reward_myopic_fixed_point():
    p = LearningParams(gamma=0.0)
    q = QTable(4)
    h, h2 = (0, 0, 0, 1), (0, 0, 1, 1)
    q.record(h, 1, -5.0)
    for _ in range(200):
        q_update(q, h, 1, 0.0, h2, p)
    assert abs(q.q(h, 1)) < 1e-6


def test_q_update_uses_max_over_next_actions():
    p = LearningParams(gamma=0.5)
    q = QTable(4)
    h, h2 = (0, 0, 0, 1), (0, 0, 1, 2)
    q.record(h2, 1, -4.0)
    q.record(h2, 2, -1.0)
    q.record(h2, 3, -9.0)
    q_update(q, h, 1, -1.0, h2, p)
    # all four actions of h2: {-4, -1, -9, 0 (unvisited)} -> max is 0
    assert q.q(h, 1) == -1.0 + 0.5 * 0.0
    q.record(h2, 4, -2.0)
    q_update(q, (1, 0, 0, 1), 1, -1.0, h2, p)
    assert q.q((1, 0, 0, 1), 1) == -1.0 + 0.5 * (-1.0)


def test_td_updates_applies_moves_in_order():
    # One call, three moves for action 2: the third sees the first's visit
    # count and the second's write.
    p = LearningParams(gamma=0.5)
    q = QTable(4)
    h, g = (0, 0, 0, 1), (0, 0, 1, 1)
    q.record(g, 1, 4.0)
    td_updates(q, 2, ((h, g, -2.0), (g, h, 6.0), (h, g, -5.0)), p)
    # move 2, first visit (alpha 1): Q(g,2) = 6 + 0.5 * max Q(h, .) = 6 + 0.5 * 0.0
    assert q.q(g, 2) == 6.0
    # move 1 left Q(h,2) = -2 + 0.5 * 4 = 0; move 3 blends in -5 + 0.5 * 6
    alpha = learning_rate(1, p)
    assert q.q(h, 2) == (1 - alpha) * 0.0 + alpha * (-5.0 + 0.5 * 6.0)
    assert (q.visits(h, 2), q.visits(g, 2), q.visits(g, 1)) == (2, 1, 1)


@pytest.mark.parametrize("action", [0, 5])
def test_q_update_rejects_bad_action_before_any_write(action):
    q = QTable(4)
    h, fresh = (0, 0, 0, 1), (3, 3, 3, 3)
    q_update(q, h, 2, -1.0, fresh, PARAMS)
    before = (q.to_lines(), q.history_visits())
    for visited in (h, fresh):
        with pytest.raises(ValueError, match="action"):
            q_update(q, visited, action, -1.0, h, PARAMS)
    with pytest.raises(ValueError, match="action"):
        td_updates(q, action, (), PARAMS)
    assert (q.to_lines(), q.history_visits()) == before


def test_q_values_bounded_under_bounded_rewards():
    # With rewards in [-B, 0], every Q-value stays in [-B/(1-gamma), 0].
    p = LearningParams()
    bound = p.B / (1 - p.gamma)
    rng = np.random.default_rng(4)
    q = QTable(4)
    histories = [tuple(int(x) for x in rng.integers(0, p.B + 1, p.w)) for _ in range(20)]
    for _ in range(5000):
        h = histories[int(rng.integers(len(histories)))]
        h2 = histories[int(rng.integers(len(histories)))]
        a = int(rng.integers(1, p.d + 1))
        r = -float(rng.integers(0, p.B + 1))
        q_update(q, h, a, r, h2, p)
    for _, _, value, _ in q.items():
        assert -bound <= value <= 0.0


# --- policy extraction -------------------------------------------------------


def test_extract_policy_single_greedy_action():
    q = QTable(4)
    for k, h in enumerate([(0, 0, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1)]):
        for a in range(1, 5):
            for _ in range(k + 1):
                q.record(h, a, -1.0 if a != 3 else -0.5)
    pol = extract_policy(q)
    assert as_terms(pol) == {3: 1.0}


def test_extract_policy_symmetric_split():
    q = QTable(4)
    h1, h2 = (0, 0, 0, 1), (0, 0, 0, 2)
    for a in range(1, 5):
        q.record(h1, a, -1.0 if a != 2 else -0.1)
        q.record(h2, a, -1.0 if a != 4 else -0.1)
    pol = extract_policy(q)
    assert as_terms(pol) == {2: 0.5, 4: 0.5}


def test_extract_policy_visit_weighting_with_optimistic_ties():
    q = QTable(4)
    h1, h2 = (0, 0, 0, 1), (0, 0, 0, 2)
    for _ in range(3):
        q.record(h1, 1, -0.5)
    q.record(h2, 2, -0.5)
    pol = extract_policy(q)
    # h1 (3 visits): unvisited actions {2,3,4} read 0 > -0.5, tie three ways.
    # h2 (1 visit): ties {1,3,4}.
    expected = np.array([1 / 3, 1.0, 1 + 1 / 3, 1 + 1 / 3]) / 4.0
    assert np.allclose(pol.coeffs, expected)


def test_extract_policy_scaling_invariance():
    rng = np.random.default_rng(5)
    q = QTable(4)
    for _ in range(200):
        h = tuple(int(x) for x in rng.integers(0, 3, 4))
        a = int(rng.integers(1, 5))
        q.record(h, a, float(-rng.random()))
    base = extract_policy(q)
    scaled_lines = []
    for line in q.to_lines():
        *key, value, visits = line.split(",")
        scaled_lines.append(",".join(key + [repr(float(value) * 7.5), visits]))
    scaled = QTable.from_lines(scaled_lines, 4)
    assert np.allclose(base.coeffs, extract_policy(scaled).coeffs)
    assert abs(sum(base.coeffs) - 1.0) < 1e-9


def test_extract_policy_empty_table_raises():
    with pytest.raises(NoExperienceError):
        extract_policy(QTable(4))


# --- table mechanics ---------------------------------------------------------


def test_qtable_defaults_and_visit_monotonicity():
    q = QTable(4)
    h = (0, 0, 0, 0)
    assert q.q(h, 1) == 0.0
    assert q.visits(h, 1) == 0
    q.record(h, 1, -2.0)
    q.record(h, 1, -1.0)
    assert q.visits(h, 1) == 2


def test_qtable_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    q = QTable(8)
    for _ in range(100):
        h = tuple(int(x) for x in rng.integers(0, 6, 4))
        a = int(rng.integers(1, 9))
        q.record(h, a, float(rng.normal()))
    path = tmp_path / "table.qtable"
    q.save(path)
    loaded = QTable.load(path, 8)
    assert sorted(q.items()) == sorted(loaded.items())
    # format: w levels, action, q, visits per line
    line = path.read_text().splitlines()[0]
    parts = line.split(",")
    assert len(parts) == 4 + 3


def test_qtable_rejects_malformed_lines():
    with pytest.raises(ValueError):
        QTable.from_lines(["1,2"], 4)


@pytest.mark.parametrize(
    "line",
    [
        "0,0,0,0,x,-1.0,1",  # non-integer action
        "0,0,0,0,1,-1.0,0",  # zero visits: to_lines never writes one
        "0,0,0,0,1,-1.0,-3",
        "0,0,0,0,0,-1.0,1",  # actions start at 1
        "0,0,0,0,-1,-1.0,1",
    ],
)
def test_qtable_rejects_invalid_entries(line):
    with pytest.raises(ValueError):
        QTable.from_lines([line], 4)


_WRITES = {
    "record": lambda a: QTable(4).record((0, 0, 0, 0), a, -1.0),
    "q_update": lambda a: q_update(QTable(4), (0, 0, 0, 0), a, -1.0, (0, 0, 0, 0), PARAMS),
    "from_lines": lambda a: QTable.from_lines([f"0,0,0,0,{a},-1.0,1"], 4),
}


@pytest.mark.parametrize("action", [0, 5])
@pytest.mark.parametrize("write", list(_WRITES))
def test_qtable_writes_reject_actions_outside_1_to_d(write, action):
    with pytest.raises(ValueError, match="action"):
        _WRITES[write](action)


@pytest.mark.parametrize("action", [0, 5])
def test_qtable_reads_reject_actions_outside_1_to_d(action):
    # action 0 would otherwise read row[-1], the entry of action d
    q = QTable(4)
    h = (0, 0, 0, 0)
    q.record(h, 4, -1.0)
    with pytest.raises(ValueError, match="action"):
        q.q(h, action)
    with pytest.raises(ValueError, match="action"):
        q.visits(h, action)


def test_qtable_len_counts_visited_entries_only():
    q = QTable(4)
    assert len(q) == 0
    q.record((0, 0, 0, 0), 4, -1.0)  # row of width 4, one visited entry
    assert len(q) == 1
    q.record((0, 0, 0, 0), 4, -1.5)  # revisit: still one entry
    q.record((0, 0, 0, 1), 1, -1.0)
    assert len(q) == 2
    assert len(QTable.from_lines(q.to_lines(), 4)) == 2


# Negative and positive subnormals and -0.0 besides arbitrary non-NaN floats:
# the checkpoint writes repr, which must read back to the same bits.
_Q_VALUES = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, -2.5e-310]), st.floats(allow_nan=False)
)
_ENTRY = st.tuples(_Q_VALUES, st.integers(1, 10**20))


@st.composite
def _tables(draw):
    d = draw(st.integers(1, 8))
    history = st.tuples(*[st.integers(0, 10**12)] * draw(st.integers(1, 4)))
    entries = draw(
        st.dictionaries(st.tuples(history, st.integers(1, d)), _ENTRY, max_size=12)
    )
    if draw(st.booleans()):  # one history with every action 1..d
        h = draw(history)
        entries.update({(h, a): draw(_ENTRY) for a in range(1, d + 1)})
    table = QTable(d)
    for (h, a), (q_value, visits) in entries.items():
        q_row, n_row = table._rows(h, a)
        q_row[a - 1], n_row[a - 1] = q_value, visits
    return table


@settings(max_examples=200)
@given(table=_tables())
@example(table=QTable(3))
def test_qtable_checkpoint_round_trip(tmp_path_factory, table):
    lines = table.to_lines()
    path = tmp_path_factory.getbasetemp() / "roundtrip.qtable"
    table.save(path)
    if not lines:
        assert path.read_text() == "\n"  # read back through the blank-line skip
    for back in (QTable.from_lines(lines, table.d), QTable.load(path, table.d)):
        assert back.to_lines() == lines
        assert sorted(back.items()) == sorted(table.items())
        assert back.history_visits() == table.history_visits()


def test_history_helpers():
    assert initial_history(3, 4) == (3, 3, 3, 3)
    assert shift_history((1, 2, 3, 4), 0) == (2, 3, 4, 0)
