"""Independent reference implementations used to cross-check the package.

Deliberately brute-force: apart from ``exact_mean_decoded`` and
``exact_step_law``, which decode with the package's ``simulate_frame``
(itself checked against the stopping-set and all-orders oracles here), and
``reference_train``, which replays ``step_frame`` one frame at a time, these
share no code with the package internals.
"""

from itertools import accumulate, combinations, product
from math import comb

import numpy as np


def stopping_set_decode(bursts: dict, n_slots: int) -> set:
    """Decode by enumerating every subset of users.

    A set of users is a stopping set when none of its members occupies a slot
    alone within the set. Stopping sets are closed under union (a slot with
    exactly one member of the union would expose a singleton in one of the
    parts), so the maximal stopping set is the union of all of them, and
    peeling decodes exactly its complement.
    """
    users = list(bursts)
    maximal: set = set()
    for r in range(1, len(users) + 1):
        for subset in combinations(users, r):
            counts = {}
            for u in subset:
                for s in bursts[u]:
                    counts[s] = counts.get(s, 0) + 1
            if all(c != 1 for c in counts.values()):
                maximal.update(subset)
    return set(users) - maximal


def stopping_set_decode_fast(incidence: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Vectorized stopping-set oracle.

    ``incidence`` is a (users x slots) 0/1 matrix, ``masks`` the (2^users x
    users) subset indicator table. Returns a boolean decoded flag per user.
    """
    counts = masks @ incidence
    stopping = ~np.any(counts == 1, axis=1)
    blocked = masks[stopping].any(axis=0)
    return ~blocked


def subset_masks(n_users: int) -> np.ndarray:
    bits = np.arange(2**n_users, dtype=np.uint32)
    return ((bits[:, None] >> np.arange(n_users)) & 1).astype(np.int64)


def stable_argsort_placement(uniforms: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Replica incidence by rank: each row of ``uniforms`` (last axis = slots)
    sets the first l entries of its stable argsort, l from ``degrees``, so a
    tie goes to the lower slot index."""
    order = np.argsort(uniforms, axis=-1, kind="stable")
    incidence = np.zeros(uniforms.shape, dtype=bool)
    for row in np.ndindex(degrees.shape):
        incidence[row][order[row][: degrees[row]]] = True
    return incidence


def all_orders_decode(bursts: dict, n_slots: int) -> set:
    """Explore every possible peeling order and check they all agree.

    Returns the common fixed point; raises AssertionError if any two peeling
    orders disagree (they never should).
    """
    outcomes = set()

    def recurse(remaining: dict, decoded: frozenset):
        singleton_users = set()
        slot_counts = {}
        for u, slots in remaining.items():
            for s in slots:
                slot_counts.setdefault(s, []).append(u)
        for s, members in slot_counts.items():
            if len(members) == 1:
                singleton_users.add(members[0])
        if not singleton_users:
            outcomes.add(decoded)
            return
        for u in singleton_users:
            nxt = {v: slots for v, slots in remaining.items() if v != u}
            recurse(nxt, decoded | {u})

    recurse(dict(bursts), frozenset())
    assert len(outcomes) == 1, f"peeling order changed the outcome: {outcomes}"
    return set(next(iter(outcomes)))


def enumerate_frames(max_users: int, n_slots: int):
    """Every labeled frame with exactly max_users users over n_slots slots."""
    slot_subsets = []
    for r in range(1, n_slots + 1):
        slot_subsets.extend(frozenset(c) for c in combinations(range(n_slots), r))
    for assignment in product(slot_subsets, repeat=max_users):
        yield {u: assignment[u] for u in range(max_users)}


def as_terms(dist) -> dict[int, float]:
    """A degree distribution's nonzero coefficients as {degree: probability}."""
    return {i + 1: c for i, c in enumerate(dist.coeffs) if c > 0}


def class_size_bound(key, B: int) -> int:
    """Upper bound on the size of the class of histories over [0, B] with the
    difference tuple ``key``: min(B + 1 - b_lo, b_hi + 1), where b_lo / b_hi
    are the smallest / largest feasible first levels."""
    sums = list(accumulate(key, initial=0))
    return max(0, min(B + 1 - max(sums), B + min(sums) + 1))


def exact_mean_decoded(dist, m: int, n_slots: int) -> float:
    """Exact expected decoded users per saturated frame of m users.

    Every user draws a degree from ``dist``, capped at n_slots, and a uniform
    subset of that many slots. Sums over every degree vector and every
    choice of subsets, each frame decoded by ``simulate_frame``.
    """
    from irsa_rl.core import simulate_frame

    capped = [0.0] * (n_slots + 1)
    for degree, p in as_terms(dist).items():
        capped[min(degree, n_slots)] += p
    choices = [
        (frozenset(subset), capped[l] / comb(n_slots, l))
        for l in range(1, n_slots + 1)
        if capped[l] > 0
        for subset in combinations(range(n_slots), l)
    ]
    total = 0.0
    for frame in product(choices, repeat=m):
        weight = 1.0
        for _, p in frame:
            weight *= p
        out = simulate_frame({u: slots for u, (slots, _) in enumerate(frame)})
        total += weight * len(out.decoded)
    return total


def sequential_batch_oracle(q, h_visited, a, h_next, params):
    """Reference for the virtual-experience batch: plain q_update applied to
    every feasible class member in canonical order, each with the reward
    derived from its own successor level."""
    from irsa_rl.agent import q_update
    from irsa_rl.virtual import enumerate_class, transform

    c_next = h_next[-2] - h_next[-1]
    updated = []
    for member in enumerate_class(transform(h_visited), params.B, params.w):
        succ = member[-1] - c_next
        if not 0 <= succ <= params.B:
            continue
        member_next = member[1:] + (succ,)
        q_update(q, member, a, float(-succ), member_next, params)
        updated.append(member)
    return updated


def reference_train(config):
    """``env.train`` one frame at a time: every frame calls ``step_frame``
    with the bare generator, and a bad-episode reset follows its frame. The
    bad-episode test is the three-delta definition, written out here."""
    from irsa_rl.env import RunRecord, new_nodes, reset_episode, step_frame

    rng = np.random.default_rng(config.seed)
    nodes = new_nodes(config)
    record = RunRecord(config=config)
    for _ in range(config.episodes):
        reset_episode(nodes, config.params, rng)
        recent = []
        for _ in range(config.iters_per_episode):
            result = step_frame(nodes, config, rng)
            recent.append(result.mean_reward)
            bad = len(recent) >= 4 and all(recent[-k] < recent[-k - 1] for k in (1, 2, 3))
            if bad:
                reset_episode(nodes, config.params, rng)
                recent = []
            record.mean_reward.append(result.mean_reward)
            record.throughput.append(result.throughput)
            record.resets.append(int(bad))
            record.dropped += result.dropped
    return nodes, record


def exact_step_law(nodes, config) -> dict:
    """Exact law of one ``step_frame`` from ``nodes`` with Bernoulli arrivals.

    Returns {(next buffers, decoded, dropped, mean reward): probability}. A
    node with a nonempty buffer plays action a with probability epsilon / d,
    plus (1 - epsilon) / |ties| when a is one of the greedy ties of its
    history (an unvisited action reads 0.0). It puts its replicas on a
    uniform min(a, N)-subset of the slots; the frame is decoded by
    ``simulate_frame``. Every node then gains a packet with the arrival
    probability, and b' = min(b - decoded + arrival, B) with the excess
    dropped. The mean reward is minus the summed b' of the transmitting
    nodes over m.
    """
    from irsa_rl.core import simulate_frame

    params, n_slots = config.params, config.n_slots
    d, cap, eps = params.d, params.B, params.epsilon
    assert config.arrivals.kind == "bernoulli"
    p = config.arrivals.param
    m = len(nodes)

    def placements(node):
        """[(slots, probability)] of one transmitting node."""
        visited = {(h, a): q for h, a, q, _ in node.q.items()}
        values = [visited.get((node.history, a), 0.0) for a in range(1, d + 1)]
        ties = [a for a, v in enumerate(values, start=1) if v == max(values)]
        out = []
        for a in range(1, d + 1):
            p_action = eps / d + ((1 - eps) / len(ties) if a in ties else 0.0)
            subsets = list(combinations(range(n_slots), min(a, n_slots)))
            out.extend((frozenset(s), p_action / len(subsets)) for s in subsets)
        return out

    senders = [i for i, node in enumerate(nodes) if node.buffer > 0]
    law: dict = {}
    for frame in product(*(placements(nodes[i]) for i in senders)):
        p_frame = 1.0
        for _, p_slots in frame:
            p_frame *= p_slots
        decoded = simulate_frame({i: slots for i, (slots, _) in zip(senders, frame)}).decoded
        for arrivals in product((0, 1), repeat=m):
            p_arrivals = 1.0
            for x in arrivals:
                p_arrivals *= p if x else 1 - p
            raw = [n.buffer - (i in decoded) + x for i, (n, x) in enumerate(zip(nodes, arrivals))]
            after = tuple(min(b, cap) for b in raw)
            dropped = sum(raw) - sum(after)
            mean_reward = -sum(after[i] for i in senders) / m
            key = (after, len(decoded), dropped, mean_reward)
            law[key] = law.get(key, 0.0) + p_frame * p_arrivals
    return law
