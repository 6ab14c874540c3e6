import math

import numpy as np
import pytest
from scipy import stats as sps

from irsa_rl.core import (
    BASELINE_IRSA,
    PURE_ALOHA,
    DegreeDistribution,
    place_replicas,
    sample_degrees,
    simulate_frame,
    simulate_saturated,
    simulate_slotted_aloha,
    slotted_aloha_throughput,
    uniform_distribution,
    _CHUNK_ELEMENTS,
    _floyd_sampler,
    _peel_words,
)

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    _peel_frames,
    all_orders_decode,
    enumerate_frames,
    exact_mean_decoded,
    floyd_placement,
    pack_users,
    slot_list_peel,
    stable_argsort_placement,
    stopping_set_decode,
    stopping_set_decode_fast,
    subset_masks,
    unpack_users,
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
    assert all(sample_degrees(one, 1, rng)[0] == 1 for _ in range(100))


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
    a = [sample_degrees(dist, 1, np.random.default_rng(7))[0] for _ in range(50)]
    b = [sample_degrees(dist, 1, np.random.default_rng(7))[0] for _ in range(50)]
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


@settings(max_examples=200)
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


@st.composite
def _wide_frames(draw):
    """Up to 40 users in N = 1..200 slots, N = 63, 64 and 65 drawn often.
    Each user's distinct slots come from a window of up to 12 slots at a
    drawn offset, so frames collide and peel in several passes, also in the
    top bits of wide frames."""
    n_slots = draw(st.one_of(st.sampled_from((1, 63, 64, 65, 200)), st.integers(1, 200)))
    lo = draw(st.integers(0, n_slots - 1))
    hi = min(n_slots - 1, lo + 11)
    users = draw(st.lists(_USER_LABELS, max_size=40, unique=True))
    slots = st.lists(st.integers(lo, hi), min_size=1, max_size=min(8, hi - lo + 1), unique=True)
    kinds = st.sampled_from((list, tuple, set, frozenset))
    return {user: draw(kinds)(draw(slots)) for user in users}


@settings(max_examples=400)
@given(_wide_frames())
@example({"a": [63], 7: [63, 64], "b": [0, 64]})
@example({u: [60 + u % 4, 64 + u % 3] for u in range(12)})
@example({0: [199], "x": [198, 199], 2: [0, 198]})
def test_simulate_frame_matches_slot_list_oracle(bursts):
    out = simulate_frame(bursts)
    assert (out.decoded, out.iterations) == slot_list_peel(bursts)


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
        degrees = np.minimum(sample_degrees(BASELINE_IRSA, m, rng2), n)
        out = simulate_frame({u: place_replicas(int(l), n, rng2) for u, l in enumerate(degrees)})
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
    """simulate_saturated's draws, redrawn in the same order, with every row
    placed by the scalar Floyd oracle and every frame decoded by
    simulate_frame. Each row takes min(l, N - l) uniforms and chunking does
    not change the uniform stream, so they are drawn in one call. Returns the
    counts and the generator after the draws."""
    rng = np.random.default_rng(seed)
    n_users = len(policies)
    degrees = np.empty((n_frames, n_users), dtype=np.int64)
    for u, dist in enumerate(policies):
        degrees[:, u] = sample_degrees(dist, n_frames, rng)
    np.minimum(degrees, n_slots, out=degrees)
    draws = iter(rng.random(int(np.minimum(degrees, n_slots - degrees).sum())).tolist())
    counts = np.empty(n_frames, dtype=np.int64)
    for i in range(n_frames):
        bursts = {u: floyd_placement(int(degrees[i, u]), n_slots, draws) for u in range(n_users)}
        counts[i] = len(simulate_frame(bursts).decoded)
    assert next(draws, None) is None
    return counts, rng


#: Per-node degrees 1, 3, 3 and 8 in 4 slots: a d = 1 user, whose degree
#: needs no search, and a d > N user, whose degree is capped.
_MIXED = [PURE_ALOHA, uniform_distribution(3), LAMBDA_3, BASELINE_IRSA]

#: d = 2, but every drawn degree is 1: these frames are peeled, not sent to
#: the Slotted ALOHA runner.
_ONES_D2 = DegreeDistribution((1.0, 0.0))


#: (n_slots, policies, n_frames) of the replays. 70 and 130 users fill two
#: and three occupancy words; 12 users in 12 slots over 11500 frames hold
#: more than _CHUNK_ELEMENTS words, so that call peels in two batches.
_REPLAYS = {
    "10-10-2500": (10, [BASELINE_IRSA] * 10, 2500),
    "50-40-250": (50, [BASELINE_IRSA] * 40, 250),
    "mixed-4-13000": (4, _MIXED, 13000),
    "ones-d2-6-5000": (6, [_ONES_D2] * 8, 5000),
    "80-70-30": (80, [BASELINE_IRSA] * 70, 30),
    "140-130-24": (140, [BASELINE_IRSA] * 130, 24),
    "12-12-11500": (12, [BASELINE_IRSA] * 12, 11500),
}


def test_replays_span_words_and_peel_batches():
    words = {-(-len(policies) // 64) for _, policies, _ in _REPLAYS.values()}
    assert {1, 2, 3} <= words
    n_slots, policies, n_frames = _REPLAYS["12-12-11500"]
    assert n_frames * n_slots * -(-len(policies) // 64) > _CHUNK_ELEMENTS


@pytest.mark.parametrize("n_slots,policies,n_frames", list(_REPLAYS.values()), ids=list(_REPLAYS))
def test_simulate_saturated_replays_sic_decode_exactly(n_slots, policies, n_frames):
    assert n_frames * len(policies) * n_slots > _CHUNK_ELEMENTS
    rng = np.random.default_rng(21)
    batched = simulate_saturated(policies, n_slots, n_frames, rng)
    counts, ref_rng = _replay_saturated(policies, n_slots, n_frames, 21)
    assert np.array_equal(batched, counts)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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


def test_simulate_saturated_rejects_empty_frame():
    with pytest.raises(ValueError, match="at least one slot"):
        simulate_saturated([BASELINE_IRSA] * 2, 0, 10, np.random.default_rng(0))


@pytest.mark.parametrize(
    "m,n_slots,n_frames",
    [(7, 5, 60_001), (9, 5, 40_000), (1001, 1000, 400)],
    ids=["7-5-60001", "9-5-40000", "1001-1000-400"],
)
def test_simulate_slotted_aloha_replays_one_draw(m, n_slots, n_frames):
    # Odd user counts: a chunk of 32-bit draws (odd at 9 users) or the whole
    # call (odd at 7 users) can end on half of a 64-bit generator output.
    assert n_frames * m > 2 * _CHUNK_ELEMENTS
    rng = np.random.default_rng(24)
    got = simulate_slotted_aloha(m, n_slots, n_frames, rng)
    ref_rng = np.random.default_rng(24)
    slots = ref_rng.integers(0, n_slots, size=(n_frames, m))
    ref = [np.count_nonzero(np.bincount(row, minlength=n_slots) == 1) for row in slots]
    assert np.array_equal(got, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _slot_sets(masks, n_slots):
    """The slot set of each row of (rows, words) slot masks, and every set
    bit at or above n_slots as one count."""
    bits = np.unpackbits(masks.view(np.uint8), axis=1, bitorder="little")
    rows = [frozenset(np.flatnonzero(row[:n_slots]).tolist()) for row in bits]
    return rows, int(bits[:, n_slots:].sum())


@pytest.mark.parametrize(
    "n_slots,l",
    [(6, 1), (6, 2), (6, 3), (6, 4), (6, 5), (6, 6), (5, 2), (5, 3)],
    ids=["l1", "l2", "half", "l4-complement", "l5-complement", "full", "odd-l2",
         "odd-l3-complement"],
)
def test_floyd_sampler_is_uniform_over_subsets(n_slots, l):
    # Every row's mask is an l-subset of the slots, and each of the C(N, l)
    # subsets turns up about equally often. l > N / 2 draws the complement.
    rows = 6000
    sample = _floyd_sampler(rows, n_slots)
    rng = np.random.default_rng(31)
    seen = {}
    for _ in range(3):
        sets, above = _slot_sets(sample(np.full(rows, l, dtype=np.int64), rng), n_slots)
        assert above == 0
        for key in sets:
            assert len(key) == l
            seen[key] = seen.get(key, 0) + 1
    assert len(seen) == math.comb(n_slots, l)
    if len(seen) > 1:
        assert sps.chisquare(list(seen.values())).pvalue > 1e-3


def test_floyd_sampler_mixed_degrees_match_the_scalar_oracle():
    # One call over rows of every degree 1..N, shuffled, so that rows join
    # the right-aligned steps at different points: each row is the scalar
    # oracle's subset from the same uniforms, and the call draws exactly those.
    n_slots = 9
    degrees = np.random.default_rng(32).permutation(np.repeat(np.arange(1, n_slots + 1), 40))
    rng, ref_rng = np.random.default_rng(33), np.random.default_rng(33)
    sets, above = _slot_sets(_floyd_sampler(degrees.size, n_slots)(degrees, rng), n_slots)
    draws = iter(ref_rng.random(int(np.minimum(degrees, n_slots - degrees).sum())).tolist())
    assert above == 0
    assert sets == [floyd_placement(int(l), n_slots, draws) for l in degrees]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n_slots", [65, 130, 200])
def test_floyd_sampler_wide_frames_place_distinct_slots_below_n(n_slots):
    # Frames wider than 64 slots take several mask words: every row holds
    # exactly l distinct slots below N, and every slot turns up about equally
    # often, across word boundaries too (chi-square on the slot counts).
    rows = 4000
    rng = np.random.default_rng(34)
    degrees = rng.choice([1, 2, 3, 8, n_slots // 2, n_slots - 3, n_slots], size=rows)
    sets, above = _slot_sets(_floyd_sampler(rows, n_slots)(degrees, rng), n_slots)
    assert above == 0
    assert [len(key) for key in sets] == degrees.tolist()
    hits = np.zeros(n_slots)
    for key in sets:
        hits[list(key)] += 1
    assert sps.chisquare(hits).pvalue > 1e-3


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


@settings(max_examples=300)
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


@st.composite
def _random_frames(draw):
    """(frames, users, slots) incidence of 0-130 users (0 to 3 words) in 1-60
    slots, each user on 1 to 3 distinct slots, from a drawn seed."""
    n_users = draw(st.integers(0, 130))
    n_slots = draw(st.integers(1, 60))
    n_frames = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degrees = rng.integers(1, min(3, n_slots) + 1, size=(n_frames, n_users))
    return stable_argsort_placement(rng.random((n_frames, n_users, n_slots)), degrees)


def _chain_frame(chain, n_users):
    """One frame where user chain[k] sits on slots k and k + 1: the two ends
    are alone in a slot and peeling works inwards, one link per pass."""
    incidence = np.zeros((1, n_users, len(chain) + 1), dtype=bool)
    for k, user in enumerate(chain):
        incidence[0, user, [k, k + 1]] = True
    return incidence


@settings(max_examples=150)
@given(_random_frames())
@example(np.zeros((1, 0, 5), dtype=bool))
@example(np.ones((2, 1, 1), dtype=bool))
@example(np.eye(64, dtype=bool)[None].repeat(2, axis=0))
@example(np.eye(65, 60, dtype=bool)[None])
@example(_chain_frame((129, 0, 64, 128, 1, 65), n_users=130))
def test_peel_words_matches_float32_oracle_and_simulate_frame(incidence):
    n_frames, n_users, _ = incidence.shape
    words = pack_users(incidence)
    before = words.copy()
    decoded, passes = _peel_words(words)
    assert np.array_equal(words, before)
    assert decoded.shape == (-(-n_users // 64), n_frames)
    flags = unpack_users(decoded, n_users)
    oracle_flags, oracle_passes = _peel_frames(incidence)
    assert np.array_equal(flags, oracle_flags)
    assert np.array_equal(passes, oracle_passes)
    for i, frame in enumerate(incidence):
        out = simulate_frame({u: np.flatnonzero(slots).tolist() for u, slots in enumerate(frame)})
        assert set(np.flatnonzero(flags[i])) == out.decoded
        assert passes[i] == out.iterations


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
