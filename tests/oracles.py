"""Independent reference implementations used to cross-check the package.

Deliberately brute-force: apart from ``exact_decoded_law`` and
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


def slot_list_peel(bursts: dict) -> tuple[set, int]:
    """(decoded users, productive passes) of one frame, peeled over slot ->
    users lists.

    The package's single-frame decoder once ran this way: the lists are
    built once, each pass decodes the users of the slots left with one user,
    and cancelling a user removes it from its slots' lists, queueing any
    slot left with one user for the next pass. It is kept as a differential
    oracle for the bit-mask kernel.
    """
    members: dict = {}
    for user, slots in bursts.items():
        for s in slots:
            members.setdefault(s, []).append(user)
    decoded = set()
    passes = 0
    newly = {users[0] for users in members.values() if len(users) == 1}
    while newly:
        passes += 1
        decoded |= newly
        singles = []
        for user in newly:
            for s in bursts[user]:
                users = members[s]
                users.remove(user)
                if len(users) == 1:
                    singles.append(users)
        # A queued slot may lose its last user later in the same pass.
        newly = {users[0] for users in singles if users}
    return decoded, passes


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


def floyd_placement(l: int, n_slots: int, draws) -> frozenset:
    """The slots of one replica row by Floyd's algorithm, one uniform from
    the iterator ``draws`` per step: for j = N - k ... N - 1, k = min(l, N - l),
    t = floor(u * (j + 1)), and j joins the subset when t is already in it.
    A k-subset stands for its complement when l > N - l."""
    k = min(l, n_slots - l)
    chosen = set()
    for j in range(n_slots - k, n_slots):
        t = int(next(draws) * (j + 1))
        chosen.add(j if t in chosen else t)
    return frozenset(range(n_slots)) - chosen if l > k else frozenset(chosen)


def _peel_frames(incidence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Peeling fixed point over a (frames, users, slots) bool incidence tensor.

    Every round computes the slot loads, decodes the users of singleton slots
    (load 1) and clears their rows, exactly one ``simulate_frame`` pass per
    frame. Returns the (frames, users) decoded flags and the (frames,) count
    of productive passes; rounds continue only on frames that made progress.
    The package's batch kernel once ran this way, on float32 matrix products;
    it is kept as a differential oracle for the slot-mask kernel.
    """
    n_frames, n_users, _ = incidence.shape
    decoded = np.zeros((n_frames, n_users), dtype=bool)
    passes = np.zeros(n_frames, dtype=np.int64)
    live = np.arange(n_frames)
    # As 0/1 float32 both reductions of a round run as batched matrix
    # products; every sum is a small integer, so they are exact.
    work = incidence.astype(np.float32)
    ones = np.ones((1, n_users), dtype=np.float32)
    while live.size:
        singles = (ones @ work == 1).astype(np.float32)  # (live, 1, slots)
        newly = (work @ singles.transpose(0, 2, 1))[:, :, 0] > 0
        progress = newly.any(axis=1)
        if not progress.all():
            live, work, newly = live[progress], work[progress], newly[progress]
        passes[live] += 1
        decoded[live] |= newly
        work[newly] = 0
    return decoded, passes


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


def exact_decoded_law(dist, m: int, n_slots: int) -> np.ndarray:
    """Exact law of the decoded users of a saturated frame of m users: entry
    k is the probability that k users decode.

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
    law = np.zeros(m + 1)
    for frame in product(choices, repeat=m):
        weight = 1.0
        for _, p in frame:
            weight *= p
        out = simulate_frame({u: slots for u, (slots, _) in enumerate(frame)})
        law[len(out.decoded)] += weight
    return law


def exact_mean_decoded(dist, m: int, n_slots: int) -> float:
    """Exact expected decoded users per saturated frame of m users, the mean
    of ``exact_decoded_law``."""
    return float(exact_decoded_law(dist, m, n_slots) @ np.arange(m + 1))


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
