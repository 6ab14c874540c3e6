"""Frame-level IRSA / Slotted ALOHA transmission physics.

A frame is N slots. Each transmitting user places l replicas of one packet
into l distinct slots, l drawn from a degree distribution Lambda(x). The
receiver decodes by peeling: a slot holding exactly one undecoded burst
reveals that user, whose replicas are then cancelled everywhere (perfect
interference cancellation, zero noise, and ideal side information about
where a decoded user's replicas sit). Peeling repeats to a fixed point.

There are two peeling kernels, one per call shape. ``simulate_frame`` peels
one frame held as a user -> slot-list mapping: it builds the slot -> users
lists once, and each pass visits only the slots that the previous pass's
cancellations left with one user. It is the one single-frame decoder, called
once per training frame by ``env.step_frame`` and by the tests that check
decoding against brute-force oracles. ``_peel_frames`` peels a whole
(frames, users, slots) incidence tensor at once; ``simulate_saturated`` uses
it. Both keep the same fixed point and pass count. The kernel does not take
the single-frame path, because it loses at one frame: for one frame of 10
users in 10 slots with ``BASELINE_IRSA`` degrees, ``simulate_frame`` takes
about 6 us (best of 40 interleaved runs of 500 frames) and building the
incidence tensor + ``_peel_frames`` about 40 us (median of 50 frames), both
on a 2-core x86 host. On a batch it wins: ``simulate_saturated`` spends
about 2.5 us per frame of 10 users in 10 slots and 35 us per frame of 40
users in 50 slots. All-degree-1 frames of 1000 users in 1000 slots take
8.7 us through ``simulate_slotted_aloha``. These are whole-call figures,
degree draws and placement included (per-shape median op latency, in the
benchmark's reference seconds, over ten 20 s ``saturated_eval`` runs on a
2-core x86 host).

Every degree is drawn by ``sample_degrees``. ``simulate_saturated`` picks
its route before it draws: when every policy's maximum degree, capped at N,
is 1 (``PURE_ALOHA``, or a one-slot frame), it returns
``simulate_slotted_aloha`` and draws no degrees. Otherwise it draws each
user's n_frames degrees with one ``sample_degrees`` call, in user order, and
caps them at N.

The two hot paths place replicas from rows of N iid uniforms. The argsort
of such a row is a uniform random permutation of the slots, and its first
l entries are a uniform l-subset: ``env.step_frame`` ranks one row per node
of its per-frame draw block and hands the prefixes to ``simulate_frame``.
``simulate_saturated`` needs the subset but not its order, so
``_place_rows`` sorts each row, takes its l-th smallest uniform as a
threshold and keeps the slots at or below it: the same l slots, with a tie
across the threshold going to the lower slot. Both saturated runners work
in chunks of ``_CHUNK_ELEMENTS`` draws. ``place_replicas`` places one test
user's replicas at a time.

All randomness flows through an explicit numpy Generator, so every function
here is pure given its rng argument.
"""

from dataclasses import dataclass
from functools import cached_property
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "DegreeDistribution",
    "DecodeOutcome",
    "BASELINE_IRSA",
    "PURE_ALOHA",
    "sample_degrees",
    "place_replicas",
    "simulate_frame",
    "slotted_aloha_throughput",
    "uniform_distribution",
    "simulate_slotted_aloha",
    "simulate_saturated",
]

_PROB_TOL = 1e-9

#: Elements per chunk of the saturated runners: (frame, user, slot) uniforms
#: in ``simulate_saturated``, (frame, user) slot draws in
#: ``simulate_slotted_aloha``. At 8 bytes each a chunk's draws fill 1 MiB,
#: half of a 2 MiB per-core L2 cache; on the benchmark's shapes it ran
#: faster than chunks of 2e5 or 4e6 elements.
_CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class DegreeDistribution:
    """Replica-count distribution: coeffs[i] is the probability of degree i+1."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) < 1:
            raise ValueError("degree distribution needs at least one coefficient")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("degree probabilities must be nonnegative")
        if abs(sum(self.coeffs) - 1.0) > _PROB_TOL:
            raise ValueError(f"degree probabilities sum to {sum(self.coeffs)}, not 1")

    @property
    def d(self) -> int:
        """Maximum replica count."""
        return len(self.coeffs)

    @cached_property
    def _cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.coeffs)
        cdf[-1] = 1.0  # guard against float drift at the top
        return cdf

    @property
    def mean_degree(self) -> float:
        return sum((i + 1) * c for i, c in enumerate(self.coeffs))

    @classmethod
    def from_terms(cls, terms: dict[int, float]) -> "DegreeDistribution":
        """Build from a sparse {degree: probability} mapping, e.g. {2: 0.25, 3: 0.6, 8: 0.15}."""
        if not terms or min(terms) < 1:
            raise ValueError("degrees must be integers >= 1")
        coeffs = [0.0] * max(terms)
        for degree, p in terms.items():
            coeffs[degree - 1] = p
        return cls(tuple(coeffs))


#: Reference IRSA distribution 0.25 x^2 + 0.60 x^3 + 0.15 x^8.
BASELINE_IRSA = DegreeDistribution.from_terms({2: 0.25, 3: 0.60, 8: 0.15})

#: Degenerate single-replica distribution (plain Slotted ALOHA behaviour).
PURE_ALOHA = DegreeDistribution.from_terms({1: 1.0})


def uniform_distribution(d: int) -> DegreeDistribution:
    """Uniform replica-count distribution over {1..d}."""
    return DegreeDistribution((1.0 / d,) * d)


class DecodeOutcome(NamedTuple):
    """Result of SIC peeling: decoded users and the number of peeling passes."""

    decoded: set
    iterations: int


def sample_degrees(dist: DegreeDistribution, size, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` replica counts in [1, d] from the distribution, one
    uniform each, in order."""
    return np.searchsorted(dist._cdf, rng.random(size), side="right").astype(np.int64) + 1


def place_replicas(l: int, n_slots: int, rng: np.random.Generator) -> frozenset[int]:
    """Choose l distinct slots uniformly at random out of n_slots."""
    if l < 1:
        raise ValueError("replica count must be >= 1")
    if l > n_slots:
        raise ValueError(f"cannot place {l} distinct replicas in {n_slots} slots")
    if l == n_slots:
        return frozenset(range(n_slots))
    if l == 1:
        return frozenset((int(rng.integers(n_slots)),))
    return frozenset(int(s) for s in rng.choice(n_slots, size=l, replace=False))


def _place_rows(uniforms: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Bool incidence that keeps, in each row of ``uniforms`` (last axis =
    slots), the l smallest entries, l from the matching entry of ``degrees``.

    These are the slots of the first l entries of the row's argsort, a
    uniform l-subset when the row is iid uniform. A row keeps every entry at
    or below its l-th smallest value; equal values across that threshold
    (about N**2 * 2**-54 per row for 53-bit uniforms) would keep more than
    l, so those rows are redone by stable rank, the lower slot first.
    """
    threshold = np.take_along_axis(np.sort(uniforms, axis=-1), degrees[..., None] - 1, axis=-1)
    incidence = uniforms <= threshold
    if np.count_nonzero(incidence) != degrees.sum():
        tied = incidence.sum(axis=-1) > degrees
        ranks = np.argsort(np.argsort(uniforms[tied], axis=-1, kind="stable"), axis=-1)
        incidence[tied] = ranks < degrees[tied][:, None]
    return incidence


def _peel_frames(incidence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Peeling fixed point over a (frames, users, slots) bool incidence tensor.

    Every round computes the slot loads, decodes the users of singleton slots
    (load 1) and clears their rows, exactly one ``simulate_frame`` pass per
    frame. Returns the (frames, users) decoded flags and the (frames,) count
    of productive passes; rounds continue only on frames that made progress.
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


def simulate_frame(bursts: dict) -> DecodeOutcome:
    """Decode one frame: ``bursts`` maps each user to the distinct slots of
    its replicas. The result is independent of peeling order.

    Each pass decodes every currently-singleton slot's user, then cancels all
    replicas of the newly decoded users. Only productive passes are counted,
    so iterations <= number of users. The slot -> users lists are built once;
    cancelling a user removes it from its slots' lists, and a list left with
    one user queues that slot for the next pass, so no pass rescans the frame.

    One frame carries at most one packet per user, so a user's goodput is 1
    if it is in ``decoded`` and 0 otherwise.
    """
    members: dict = {}
    for user, slots in bursts.items():
        for s in slots:
            if s in members:
                members[s].append(user)
            else:
                members[s] = [user]

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
    return DecodeOutcome(decoded, passes)


#: A second name for ``simulate_frame``: the benchmark's span tracer still
#: wraps ``core.sic_decode``, and a missing wrap point fails its traced run.
sic_decode = simulate_frame


def slotted_aloha_throughput(load: float) -> float:
    """Asymptotic Slotted ALOHA throughput G * exp(-G)."""
    if load < 0:
        raise ValueError("channel load must be nonnegative")
    return load * math.exp(-load)


def simulate_slotted_aloha(
    n_users: int,
    n_slots: int,
    n_frames: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-frame decoded counts for saturated single-replica traffic.

    With every user at degree 1, peeling decodes exactly the singleton slots
    and cancellation can never create new singletons, so the whole Monte
    Carlo runs as chunked bincounts. Used for large-N throughput curves.
    """
    counts = np.empty(n_frames, dtype=np.int64)
    # Draws below 2**32 take 32-bit outputs, and the generator keeps the
    # spare half of a 64-bit output between calls, so chunking leaves the
    # stream as one (n_frames, n_users) draw would have it.
    chunk = max(1, _CHUNK_ELEMENTS // max(n_users, 1))
    done = 0
    while done < n_frames:
        f = min(chunk, n_frames - done)
        slots = rng.integers(0, n_slots, size=(f, n_users))
        slots += np.arange(0, f * n_slots, n_slots)[:, None]
        occupancy = np.bincount(slots.ravel(), minlength=f * n_slots).reshape(f, n_slots)
        del slots
        counts[done : done + f] = (occupancy == 1).sum(axis=1)
        done += f
    return counts


def simulate_saturated(
    policies,
    n_slots: int,
    n_frames: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-frame decoded counts with every node backlogged (one packet per frame).

    ``policies`` holds one DegreeDistribution per node. Degrees above n_slots
    are capped (distinct placement is impossible otherwise). When every
    capped maximum degree is 1, the frames go undrawn to
    ``simulate_slotted_aloha``; frames whose drawn degrees are all 1 are peeled.
    """
    if isinstance(policies, DegreeDistribution):
        raise TypeError("pass an explicit per-node sequence or use [dist] * n_nodes")
    if n_slots < 1:
        raise ValueError("a frame needs at least one slot")
    n_users = len(policies)
    if n_users == 0:
        return np.zeros(n_frames, dtype=np.int64)
    if min(max(dist.d for dist in policies), n_slots) == 1:
        return simulate_slotted_aloha(n_users, n_slots, n_frames, rng)

    degrees = np.stack([sample_degrees(dist, n_frames, rng) for dist in policies], axis=1)
    np.minimum(degrees, n_slots, out=degrees)

    counts = np.empty(n_frames, dtype=np.int64)
    chunk = min(n_frames, max(1, _CHUNK_ELEMENTS // (n_users * n_slots)))
    # Every chunk draws into one buffer: a fresh 1 MiB array per chunk had the
    # allocator hand its heap back and page-fault it in again on most chunks.
    uniforms = np.empty((chunk, n_users, n_slots))
    done = 0
    while done < n_frames:
        f = min(chunk, n_frames - done)
        incidence = _place_rows(rng.random(out=uniforms[:f]), degrees[done : done + f])
        decoded, _ = _peel_frames(incidence)
        counts[done : done + f] = decoded.sum(axis=1)
        done += f
    return counts
