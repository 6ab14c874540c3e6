import math

import numpy as np
import pytest

from irsa_rl.core import (
    BASELINE_IRSA,
    PURE_ALOHA,
    DegreeDistribution,
    place_replicas,
    sample_degree,
    sample_degrees,
    simulate_frame,
    simulate_saturated,
    simulate_slotted_aloha,
    slotted_aloha_throughput,
    uniform_distribution,
    _peel_frames,
)

from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    all_orders_decode,
    enumerate_frames,
    exact_mean_decoded,
    stopping_set_decode,
    stopping_set_decode_fast,
    subset_masks,
)

#: 0.2 x + 0.5 x^2 + 0.3 x^3
LAMBDA_3 = DegreeDistribution((0.2, 0.5, 0.3))


# --- degree distributions -------------------------------------------------


def test_distribution_invariants():
    d = DegreeDistribution.from_terms({2: 0.25, 3: 0.60, 8: 0.15})
    assert d.d == 8
    assert d.coeffs[0] == 0.0
    assert math.isclose(sum(d.coeffs), 1.0, abs_tol=1e-9)


@pytest.mark.parametrize(
    "terms",
    [
        {1: 0.5, 2: 0.4},  # does not sum to 1
        {1: -0.1, 2: 1.1},  # negative coefficient
    ],
)
def test_distribution_rejects_bad_coeffs(terms):
    with pytest.raises(ValueError):
        DegreeDistribution.from_terms(terms)


def test_sample_degree_degenerate():
    rng = np.random.default_rng(0)
    one = DegreeDistribution.from_terms({1: 1.0})
    assert all(sample_degree(one, rng) == 1 for _ in range(100))


def test_sample_degree_matches_baseline_frequencies():
    # 1e6 draws against the reference mixture, three standard errors.
    rng = np.random.default_rng(42)
    n = 1_000_000
    draws = sample_degrees(BASELINE_IRSA, n, rng)
    for degree, p in (2, 0.25), (3, 0.60), (8, 0.15):
        freq = np.mean(draws == degree)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 3 * se
    assert set(np.unique(draws)) == {2, 3, 8}


def test_sample_degree_reproducible():
    dist = DegreeDistribution.from_terms({1: 0.5, 2: 0.5})
    a = [sample_degree(dist, np.random.default_rng(7)) for _ in range(50)]
    b = [sample_degree(dist, np.random.default_rng(7)) for _ in range(50)]
    assert a == b


# --- replica placement ----------------------------------------------------


def test_place_replicas_full_frame():
    rng = np.random.default_rng(0)
    assert place_replicas(10, 10, rng) == frozenset(range(10))


def test_place_replicas_cardinality():
    rng = np.random.default_rng(1)
    for _ in range(200):
        chosen = place_replicas(3, 10, rng)
        assert len(chosen) == 3
        assert all(0 <= s < 10 for s in chosen)


def test_place_replicas_single_slot_uniform():
    rng = np.random.default_rng(2)
    n = 100_000
    slots = [next(iter(place_replicas(1, 10, rng))) for _ in range(n)]
    counts = np.bincount(slots, minlength=10)
    se = math.sqrt(0.1 * 0.9 / n)
    assert np.all(np.abs(counts / n - 0.1) < 3 * se)


def test_place_replicas_rejects_overflow():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        place_replicas(11, 10, rng)
    with pytest.raises(ValueError):
        place_replicas(0, 10, rng)


# --- SIC decoding ---------------------------------------------------------


def test_sic_lone_singleton():
    out = simulate_frame({"A": {1}})
    assert out.decoded == {"A"}
    assert out.iterations <= 2


def test_sic_stopping_set():
    out = simulate_frame({"A": {1, 2}, "B": {1, 2}})
    assert out.decoded == frozenset()


def test_sic_cancellation_chain():
    out = simulate_frame({"A": {1, 2}, "B": {2}})
    assert out.decoded == {"A", "B"}
    assert out.iterations == 2


def test_sic_chain_matches_all_orders_oracle():
    got = simulate_frame({"A": {1, 2}, "B": {2}}).decoded
    assert got == all_orders_decode({"A": {1, 2}, "B": {2}}, 3)


def test_sic_iterations_bounded():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n_users = int(rng.integers(1, 6))
        n_slots = int(rng.integers(1, 7))
        bursts = {
            u: place_replicas(int(rng.integers(1, n_slots + 1)), n_slots, rng)
            for u in range(n_users)
        }
        out = simulate_frame(bursts)
        assert out.iterations <= n_users + 1
        assert out.decoded <= set(bursts)


def test_sic_order_invariance_under_relabeling():
    # Permuting user ids and slot labels must permute the decoded set.
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_users = int(rng.integers(2, 6))
        n_slots = int(rng.integers(2, 7))
        bursts = {
            u: place_replicas(int(rng.integers(1, min(3, n_slots) + 1)), n_slots, rng)
            for u in range(n_users)
        }
        base = simulate_frame(bursts).decoded

        user_perm = rng.permutation(n_users)
        slot_perm = rng.permutation(n_slots)
        relabeled = {
            int(user_perm[u]): frozenset(int(slot_perm[s]) for s in slots)
            for u, slots in bursts.items()
        }
        got = simulate_frame(relabeled).decoded
        assert got == {int(user_perm[u]) for u in base}


def test_sic_monotone_under_user_removal():
    # Removing a user never shrinks the decoded set among the others.
    rng = np.random.default_rng(6)
    for _ in range(200):
        n_users = int(rng.integers(2, 6))
        n_slots = int(rng.integers(2, 7))
        bursts = {
            u: place_replicas(int(rng.integers(1, n_slots + 1)), n_slots, rng)
            for u in range(n_users)
        }
        full = simulate_frame(bursts).decoded
        assert full == stopping_set_decode(bursts, n_slots)
        drop = int(rng.integers(n_users))
        reduced = {u: s for u, s in bursts.items() if u != drop}
        if not reduced:
            continue
        smaller = simulate_frame(reduced).decoded
        assert (full - {drop}) <= smaller


def test_sic_matches_all_orders_on_random_frames():
    rng = np.random.default_rng(7)
    for _ in range(150):
        n_users = int(rng.integers(1, 6))
        n_slots = int(rng.integers(1, 7))
        bursts = {
            u: place_replicas(int(rng.integers(1, n_slots + 1)), n_slots, rng)
            for u in range(n_users)
        }
        got = simulate_frame(bursts).decoded
        assert got == all_orders_decode(bursts, n_slots)


#: User labels of the differential frames: integers and strings, mixed.
_USER_LABELS = st.one_of(st.integers(-3, 20), st.text(alphabet="abxyz", min_size=1, max_size=3))


@st.composite
def _labelled_frames(draw):
    """(n_slots, bursts): up to 8 users in up to 10 slots, each user's
    distinct slots held as a list, a set or a frozenset."""
    n_slots = draw(st.integers(1, 10))
    users = draw(st.lists(_USER_LABELS, max_size=8, unique=True))
    slots = st.lists(st.integers(0, n_slots - 1), min_size=1, max_size=n_slots, unique=True)
    kinds = st.sampled_from((list, set, frozenset))
    return n_slots, {user: draw(kinds)(draw(slots)) for user in users}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_labelled_frames())
def test_simulate_frame_matches_oracle_and_batch_kernel(frame):
    n_slots, bursts = frame
    out = simulate_frame(bursts)
    assert out.decoded == stopping_set_decode(bursts, n_slots)

    users = list(bursts)
    incidence = np.zeros((1, len(users), n_slots), dtype=bool)
    for k, user in enumerate(users):
        incidence[0, k, list(bursts[user])] = True
    decoded, passes = _peel_frames(incidence)
    assert {user for k, user in enumerate(users) if decoded[0, k]} == out.decoded
    assert passes[0] == out.iterations


# --- frame simulation -----------------------------------------------------


def test_simulate_frame_single_user_always_succeeds():
    rng = np.random.default_rng(8)
    for l in (1, 3, 8):
        out = simulate_frame({"u": place_replicas(l, 10, rng)})
        assert out.decoded == {"u"}


def test_simulate_frame_total_collision():
    rng = np.random.default_rng(9)
    out = simulate_frame({0: place_replicas(10, 10, rng), 1: place_replicas(10, 10, rng)})
    assert out.decoded == frozenset()


def test_pure_aloha_matches_finite_formula():
    # (M/N) (1 - 1/N)^(M-1) within three standard errors over 1e5 frames.
    rng = np.random.default_rng(11)
    m, n, frames = 5, 10, 100_000
    counts = simulate_slotted_aloha(m, n, frames, rng)
    throughput = counts / n
    exact = (m / n) * (1 - 1 / n) ** (m - 1)
    se = throughput.std(ddof=1) / math.sqrt(frames)
    assert abs(throughput.mean() - exact) < 3 * se


def test_pure_aloha_approaches_poisson_limit():
    rng = np.random.default_rng(12)
    g = 0.5
    for n, tol in ((20, 0.02), (500, 0.003)):
        m = round(g * n)
        counts = simulate_slotted_aloha(m, n, 40_000, rng)
        assert abs(counts.mean() / n - slotted_aloha_throughput(g)) < tol + 3 * (
            counts.std(ddof=1) / n / math.sqrt(40_000)
        )


def test_simulate_saturated_matches_per_frame_simulation():
    # The batched saturated runner and simulate_frame agree statistically.
    rng = np.random.default_rng(13)
    m, n, frames = 6, 10, 20_000
    batched = simulate_saturated([BASELINE_IRSA] * m, n, frames, rng).mean() / n

    rng2 = np.random.default_rng(14)
    total = 0
    for _ in range(frames):
        users = [(u, min(sample_degree(BASELINE_IRSA, rng2), n)) for u in range(m)]
        out = simulate_frame({u: place_replicas(l, n, rng2) for u, l in users})
        total += len(out.decoded)
    looped = total / frames / n
    assert abs(batched - looped) < 0.01


@pytest.mark.parametrize("n_users,n_slots", [(3, 4), (4, 3)])
def test_peel_frames_matches_sic_decode_on_every_frame(n_users, n_slots):
    frames = list(enumerate_frames(n_users, n_slots))
    incidence = np.zeros((len(frames), n_users, n_slots), dtype=bool)
    for i, bursts in enumerate(frames):
        for u, slots in bursts.items():
            incidence[i, u, list(slots)] = True
    before = incidence.copy()
    decoded, passes = _peel_frames(incidence)
    assert np.array_equal(incidence, before)
    for i, bursts in enumerate(frames):
        out = simulate_frame(bursts)
        assert set(np.flatnonzero(decoded[i])) == set(out.decoded)
        assert passes[i] == out.iterations


def _replay_saturated(policies, n_slots, n_frames, seed):
    """simulate_saturated's draws, redrawn in the same order, with every frame
    decoded by simulate_frame. Chunking does not change the uniform stream, so
    the slot orders are drawn in one call."""
    rng = np.random.default_rng(seed)
    n_users = len(policies)
    degrees = np.empty((n_frames, n_users), dtype=np.int64)
    for u, dist in enumerate(policies):
        degrees[:, u] = sample_degrees(dist, n_frames, rng)
    np.minimum(degrees, n_slots, out=degrees)
    order = np.argsort(rng.random((n_frames, n_users, n_slots)), axis=2)
    counts = np.empty(n_frames, dtype=np.int64)
    for i in range(n_frames):
        bursts = {u: order[i, u, : degrees[i, u]].tolist() for u in range(n_users)}
        counts[i] = len(simulate_frame(bursts).decoded)
    return counts


#: Per-node degrees 1, 3, 3 and 8 in 4 slots: a d = 1 user, whose degree
#: needs no search, and a d > N user, whose degree is capped.
_MIXED = [PURE_ALOHA, uniform_distribution(3), LAMBDA_3, BASELINE_IRSA]

#: d = 2, but every drawn degree is 1: these frames are peeled, not sent to
#: the Slotted ALOHA runner.
_ONES_D2 = DegreeDistribution((1.0, 0.0))


@pytest.mark.parametrize(
    "n_slots,policies,n_frames",
    [(10, [BASELINE_IRSA] * 10, 2500), (50, [BASELINE_IRSA] * 40, 250), (4, _MIXED, 13000),
     (6, [_ONES_D2] * 8, 5000)],
    ids=["10-10-2500", "50-40-250", "mixed-4-13000", "ones-d2-6-5000"],
)
def test_simulate_saturated_replays_sic_decode_exactly(n_slots, policies, n_frames):
    # every size spans more than one 2e5-element chunk
    batched = simulate_saturated(policies, n_slots, n_frames, np.random.default_rng(21))
    assert np.array_equal(batched, _replay_saturated(policies, n_slots, n_frames, 21))


@pytest.mark.parametrize(
    "policy,m,n_slots,n_frames",
    [(PURE_ALOHA, 7, 5, 300), (PURE_ALOHA, 1000, 1000, 20), (BASELINE_IRSA, 3, 1, 50),
     (BASELINE_IRSA, 1, 1, 50)],
    ids=["7-5-300", "1000-1000-20", "irsa-3-1-50", "irsa-1-1-50"],
)
def test_simulate_saturated_all_aloha_stream(policy, m, n_slots, n_frames):
    # Every capped maximum degree min(d, N) is 1 (d = 1, or one slot): no
    # degree draws, only the Slotted ALOHA runner on the untouched generator.
    rng = np.random.default_rng(22)
    got = simulate_saturated([policy] * m, n_slots, n_frames, rng)
    ref_rng = np.random.default_rng(22)
    ref = simulate_slotted_aloha(m, n_slots, n_frames, ref_rng)
    assert np.array_equal(got, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if n_slots == 1:
        assert np.all(got == (m == 1))


@pytest.mark.parametrize("m,n_slots", [(3, 4), (4, 4), (3, 5), (3, 2)])
def test_simulate_saturated_mean_matches_exact_expectation(m, n_slots):
    # The whole saturated pipeline (degree draws and cap, placement, peeling)
    # against the exact mean over every degree vector and slot subset. At
    # N = 2 the degree-3 term is capped.
    frames = 200_000
    counts = simulate_saturated([LAMBDA_3] * m, n_slots, frames, np.random.default_rng(23))
    exact = exact_mean_decoded(LAMBDA_3, m, n_slots)
    z = (counts.mean() - exact) / (counts.std(ddof=1) / math.sqrt(frames))
    assert abs(z) < 4, (counts.mean(), exact, z)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    hnp.arrays(
        bool,
        st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 7)),
    )
)
def test_peel_frames_matches_stopping_set_oracle(incidence):
    before = incidence.copy()
    decoded, passes = _peel_frames(incidence)
    assert np.array_equal(incidence, before)
    masks = subset_masks(incidence.shape[1])
    for i, frame in enumerate(incidence.astype(np.int64)):
        assert np.array_equal(decoded[i], stopping_set_decode_fast(frame, masks))
    assert np.all(passes <= decoded.sum(axis=1))


def test_slotted_aloha_throughput_values():
    assert slotted_aloha_throughput(0.0) == 0.0
    assert abs(slotted_aloha_throughput(1.0) - 0.36788) < 1e-5
    assert abs(slotted_aloha_throughput(0.5) - 0.30327) < 1e-5
    with pytest.raises(ValueError):
        slotted_aloha_throughput(-0.1)


def test_uniform_distribution():
    u = uniform_distribution(4)
    assert u.coeffs == (0.25, 0.25, 0.25, 0.25)
    assert PURE_ALOHA.d == 1
