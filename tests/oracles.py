"""Independent reference implementations used to cross-check the decoder.

Deliberately brute-force: apart from ``exact_mean_decoded``, which decodes
with the package's ``simulate_frame`` (itself checked against the
stopping-set and all-orders oracles here), these share no code with the
package internals.
"""

from itertools import combinations, product
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


def exact_mean_decoded(dist, m: int, n_slots: int) -> float:
    """Exact expected decoded users per saturated frame of m users.

    Every user draws a degree from ``dist``, capped at n_slots, and a uniform
    subset of that many slots. Sums over every degree vector and every
    choice of subsets, each frame decoded by ``simulate_frame``.
    """
    from irsa_rl.core import simulate_frame

    capped = [0.0] * (n_slots + 1)
    for degree, p in dist.as_terms().items():
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
