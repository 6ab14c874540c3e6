"""Frame-level IRSA / Slotted ALOHA transmission physics.

A frame is N slots. Each transmitting user places l replicas of one packet
into l distinct slots, l drawn from a degree distribution Lambda(x). The
receiver decodes by peeling: a slot holding exactly one undecoded burst
reveals that user, whose replicas are then cancelled everywhere (perfect
interference cancellation, zero noise, and ideal side information about
where a decoded user's replicas sit). Peeling repeats to a fixed point.

There is one peeling formulation, over bit sets of slots. A user's
replicas are one slot mask, bit s for slot s. A pass ORs the users' masks
into ``once`` (slots with at least one user) and ``twice`` (slots with at
least two), takes the singleton slots as ``once & ~twice``, decodes every
user whose mask hits one and drops that user's mask; passes repeat while a
singleton slot is left. ``simulate_frame`` runs it in Python ints on one
frame of any width: ``env.step_frame`` calls it once per training frame, and
the tests check it against brute-force oracles. A pass revisits every
surviving user, so a frame that peels in many passes costs more than in the
slot -> users list kernel it replaced (kept in ``tests/oracles.py``): on
training frames of 50 nodes in 50 slots at G = 1.0, about 6 passes each, it
took 36 us per frame against 26 us, while at 10 nodes in 10 slots it took
5.4 us against 5.9 us. ``_peel_masks`` runs the same pass in uint64 arrays
on a batch of frames held as (users, W, frames) masks, W = ceil(N / 64)
words per mask: ``once`` and ``twice`` come from a pairwise OR tree over
the users, and each round works only on the frames that still have a
singleton slot. Both count the same decoded users and productive passes.

Every degree is drawn by ``sample_degrees``. ``simulate_saturated`` picks
its route before it draws: when every policy's maximum degree, capped at N,
is 1 (``PURE_ALOHA``, or a one-slot frame), it returns
``simulate_slotted_aloha`` and draws no degrees. Otherwise it draws each
user's n_frames degrees with one ``sample_degrees`` call, in user order, and
caps them at N. Both runners work in chunks of frames. When a Slotted ALOHA
call takes more than one chunk, one helper thread draws the next chunk's
slots while the calling thread counts the current chunk: each stage is one
large numpy call that releases the GIL, so on two cores they overlap, and
the draws keep their order, sizes and dtype, so counts and generator state
match a serial loop. The IRSA route has no helper: its sampler and peeling
are many small numpy calls that hold the GIL between them, and a prototype
that ran the sampler one chunk ahead made every IRSA shape 20-30% slower.

The two hot paths place replicas in different ways. ``env.step_frame``
ranks one row of N iid uniforms per node of its per-frame draw block: the
argsort of such a row is a uniform random permutation of the slots, and its
first l entries, handed to ``simulate_frame``, are a uniform l-subset.
``simulate_saturated`` needs the subset but not its order, so it draws
with Floyd's algorithm instead (``_floyd_sampler``): min(l, N - l)
uniforms per (frame, user) row, in row order, each turned into a bounded
draw t = floor(u * (j + 1)) on 0..j. A row with l > N / 2 draws the N - l
slots it leaves out, so a degree-8 user in 10 slots takes 2 uniforms, not
10. The 53-bit uniforms make each value of a bounded draw off its exact
probability 1 / (j + 1) by at most 2**-53. A chunk's (frame, user) rows of
slot masks go to ``_peel_masks`` as they are, viewed as (users, W, frames).
``place_replicas`` places one test user's replicas at a time.

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

#: Elements per chunk of the saturated runners: (frame, user) slot draws in
#: ``simulate_slotted_aloha``, uint64 slot-mask words in
#: ``simulate_saturated``. Besides its mask words, a (frame, user) row of
#: ``simulate_saturated`` takes about a dozen 8-byte entries of sampler and
#: peeling buffers, so its chunk also holds at most ``_CHUNK_ELEMENTS // 4``
#: rows: 2**16 rows per chunk read about 2 MB more peak RSS on the benchmark's
#: ``saturated_eval`` than 2**14, for a gain in frames per second that its
#: runs could not resolve.
_CHUNK_ELEMENTS = 1 << 16


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


def _floyd_sampler(rows: int, n_slots: int, max_degree: int):
    """A placement function for up to ``rows`` (frame, user) rows at a time,
    of degrees up to ``max_degree``, with its per-step arrays in buffers
    made once here.

    ``sample(degrees, rng)`` returns a view of one row of little-endian
    uint64 slot masks per degree, ceil(n_slots / 64) words each, bit s % 64
    of word s // 64 for slot s: for each degree l, a uniform l-subset of the
    slots, by Floyd's algorithm (Bentley and Floyd, "Programming pearls: a
    sample of brilliance", CACM 1987). A row takes k = min(l, N - l)
    uniforms, in row order: for j = N - k ... N - 1 it draws
    t = floor(u * (j + 1)) from the next uniform u and takes j if t is
    already taken, t otherwise. When l > N - l the k-subset is the
    complement of the row's subset, so its mask is flipped.

    The steps run over every row of a chunk at once, right-aligned: with K
    the chunk's largest k, step i has j = N - K + i for every row, and a row
    joins at step K - k. Before that its bit is shifted out and the uniform
    it reads is never used. A shift by 64 or more gives 0 in numpy, so a
    frame wider than 64 slots takes the same steps, one word at a time.
    """
    n_words = -(-n_slots // 64)
    full = np.full(n_words, ~np.uint64(0), dtype="<u8")
    full[-1] >>= np.uint64(64 * n_words - n_slots)
    # A row takes at most max_steps uniforms. A chunk's uniforms follow a
    # zero pad of max_steps entries, so a row that has not joined yet reads
    # the pad or another row's uniforms, never an unset value.
    max_steps = min(max_degree, n_slots // 2)
    uniforms = np.zeros(max_steps + rows * max_steps)
    masks = np.empty((rows, n_words), dtype="<u8")
    steps, ends = np.empty(rows, dtype=np.intp), np.empty(rows, dtype=np.intp)
    scaled = np.empty(rows)
    picks, hits, bits, joined = (np.empty(rows, dtype=np.uint64) for _ in range(4))

    def sample(degrees: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = degrees.size
        mask, k, end, u = masks[:n], steps[:n], ends[:n], scaled[:n]
        t, hit, bit, live = picks[:n], hits[:n], bits[:n], joined[:n]
        np.subtract(n_slots, degrees, out=k)
        np.minimum(k, degrees, out=k)
        n_steps = int(k.max())
        np.cumsum(k, out=end)
        rng.random(out=uniforms[max_steps : max_steps + int(end[-1])])
        mask.fill(0)
        for i in range(n_steps):
            j = n_slots - n_steps + i
            # Row r's uniform at step i >= K - k is its (i - K + k)-th one.
            # Every index is in range; "clip" is numpy's fastest take.
            np.take(uniforms[max_steps - n_steps + i :], end, out=u, mode="clip")
            u *= j + 1
            np.copyto(t.view(np.int64), u, casting="unsafe")
            np.right_shift(mask[:, 0], t, out=hit)
            for w in range(1, n_words):
                np.subtract(t, np.uint64(64 * w), out=bit)
                np.right_shift(mask[:, w], bit, out=bit)
                hit |= bit
            hit &= np.uint64(1)
            # On a hit take j instead of t: t += (j - t) * hit.
            np.subtract(np.uint64(j), t, out=bit)
            bit *= hit
            t += bit
            np.greater_equal(k, n_steps - i, out=live)
            for w in range(n_words):
                if w:
                    t -= np.uint64(64)
                np.left_shift(live, t, out=bit)
                mask[:, w] |= bit
        np.less(k, degrees, out=live)
        for w in range(n_words):
            np.multiply(live, full[w], out=bit)
            mask[:, w] ^= bit
        return mask

    return sample


def _once_twice(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slots that at least one and at least two of the (users, W, frames)
    masks hold, as (W, frames) words, from a pairwise OR tree over users."""
    once, twice = masks, None
    while len(once) > 1:
        half = len(once) // 2
        low, high = once[:half], once[half : 2 * half]
        both = low & high
        if twice is not None:
            both |= twice[:half]
            both |= twice[half : 2 * half]
        merged = low | high
        if len(once) % 2:  # the odd last row joins the first pair
            both[0] |= merged[0] & once[-1]
            merged[0] |= once[-1]
            if twice is not None:
                both[0] |= twice[-1]
        once, twice = merged, both
    return once[0], np.zeros_like(once[0]) if twice is None else twice[0]


def _peel_masks(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Peeling fixed point over (users, W, frames) uint64 slot masks.

    Bit s % 64 of word s // 64 of a user's mask is set when the user has a
    replica in slot s. Every round is one ``simulate_frame`` pass on every
    frame at once: ``once`` and ``twice`` come from the users' masks, and
    the users whose mask hits ``once & ~twice`` are decoded and their masks
    cleared. Returns the (frames,) decoded counts and productive passes;
    rounds continue only on frames that still have a singleton slot.
    ``masks`` is left as it was.
    """
    n_users, n_words, n_frames = masks.shape
    decoded = np.zeros(n_frames, dtype=np.int64)
    passes = np.zeros(n_frames, dtype=np.int64)
    live = np.arange(n_frames)
    work = masks.copy()
    while live.size and n_users:
        once, twice = _once_twice(work)
        singles = once & ~twice
        progress = singles.any(axis=0)
        if not progress.all():
            # Boolean indexing on the last axis would give a frames-major
            # copy, and every later round would run on strided rows.
            live, singles = live[progress], singles[:, progress]
            work = work.compress(progress, axis=2)
        # Where-masked writes run several times slower than a multiply.
        keep = ((work & singles) == 0).all(axis=1, keepdims=True)
        work *= keep
        passes[live] += 1
        decoded[live] += n_users - keep.sum(axis=(0, 1))
    return decoded, passes


def simulate_frame(bursts: dict) -> DecodeOutcome:
    """Decode one frame: ``bursts`` maps each user to the distinct slots
    (integers >= 0) of its replicas. The result is independent of peeling
    order.

    Each pass decodes every currently-singleton slot's user, then cancels all
    replicas of the newly decoded users. Only productive passes are counted,
    so iterations <= number of users. Slots are bits of Python ints: one
    loop builds each user's mask and ORs it into ``once`` (slots with at
    least one user) and ``twice`` (slots with at least two). A pass's
    singleton slots are ``once & ~twice``; the users whose mask hits one are
    decoded, and the survivors are ORed into the next pass's ``once`` and
    ``twice`` in the same loop. ``_peel_masks`` runs the same pass on a
    batch of frames in uint64 arrays; here a mask has no bound on the slot
    count.

    One frame carries at most one packet per user, so a user's goodput is 1
    if it is in ``decoded`` and 0 otherwise.
    """
    live = []
    once = twice = 0
    for user, slots in bursts.items():
        mask = 0
        for s in slots:
            mask |= 1 << s
        live.append((user, mask))
        twice |= once & mask
        once |= mask

    decoded = set()
    passes = 0
    singles = once & ~twice
    while singles:
        passes += 1
        survivors = []
        once = twice = 0
        for user, mask in live:
            if mask & singles:
                decoded.add(user)
            else:
                survivors.append((user, mask))
                twice |= once & mask
                once |= mask
        live = survivors
        singles = once & ~twice
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
    Carlo runs as chunked slot counts. Used for large-N throughput curves.

    When the frames take more than one chunk, one helper thread draws chunk
    k + 1 while this thread counts chunk k. numpy releases the GIL in both
    the bounded draw and the counting, so on two cores they overlap. The
    helper runs only ``rng.integers``, one chunk ahead at most, with the
    same calls in the same order as a serial loop, so the counts and the
    generator state are unchanged. It is joined before the call returns or
    raises, and a draw's exception is raised here.
    """
    if n_users < 0:
        raise ValueError(f"n_users must be >= 0, got {n_users}")
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    if n_frames < 0:
        raise ValueError(f"n_frames must be >= 0, got {n_frames}")
    counts = np.empty(n_frames, dtype=np.int64)
    # Draws below 2**32 take 32-bit outputs, and the generator keeps the
    # spare half of a 64-bit output between calls, so chunking leaves the
    # stream as one (n_frames, n_users) draw would have it.
    chunk = max(1, min(n_frames, _CHUNK_ELEMENTS // max(n_users, 1)))
    # Every chunk counts into one buffer: a fresh 1 MiB ``bincount`` per chunk
    # had the allocator trim its heap and page-fault it in again, chunk after
    # chunk, in some processes.
    occupancy = np.empty((chunk, n_slots), dtype=np.intp)
    helper = None
    if n_frames > chunk:
        # Imported here: loading the thread pool costs every command's start-up.
        from concurrent.futures import ThreadPoolExecutor

        helper = ThreadPoolExecutor(max_workers=1)
    try:
        ahead = None
        for done in range(0, n_frames, chunk):
            f = min(chunk, n_frames - done)
            slots = ahead.result() if ahead else rng.integers(0, n_slots, size=(f, n_users))
            if done + f < n_frames:
                size = (min(chunk, n_frames - done - f), n_users)
                ahead = helper.submit(rng.integers, 0, n_slots, size=size)
            slots += np.arange(0, f * n_slots, n_slots)[:, None]
            occupancy[:f] = 0
            np.add.at(occupancy[:f].reshape(-1), slots.ravel(), 1)
            del slots
            counts[done : done + f] = (occupancy[:f] == 1).sum(axis=1)
    finally:
        if helper is not None:
            helper.shutdown()
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
        raise TypeError("pass an explicit per-node sequence or use [dist] * m")
    if n_slots < 1:
        raise ValueError("a frame needs at least one slot")
    n_users = len(policies)
    if n_users == 0:
        return np.zeros(n_frames, dtype=np.int64)
    max_degree = min(max(dist.d for dist in policies), n_slots)
    if max_degree == 1:
        return simulate_slotted_aloha(n_users, n_slots, n_frames, rng)

    degrees = np.stack([sample_degrees(dist, n_frames, rng) for dist in policies], axis=1)
    np.minimum(degrees, n_slots, out=degrees)

    # A chunk holds at most _CHUNK_ELEMENTS // 4 rows and _CHUNK_ELEMENTS words.
    n_words = -(-n_slots // 64)
    chunk = max(1, min(n_frames, _CHUNK_ELEMENTS // (n_users * max(4, n_words))))
    sample = _floyd_sampler(chunk * n_users, n_slots, max_degree)
    counts = np.empty(n_frames, dtype=np.int64)
    for done in range(0, n_frames, chunk):
        f = min(chunk, n_frames - done)
        masks = sample(degrees[done : done + f].reshape(-1), rng)
        frames = masks.reshape(f, n_users, n_words).transpose(1, 2, 0)
        counts[done : done + f], _ = _peel_masks(frames)
    return counts
