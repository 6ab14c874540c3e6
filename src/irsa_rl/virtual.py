"""Virtual experience: batch Q-updates over difference-equivalent histories.

Collision dynamics depend on how buffers move, not on their absolute levels,
so two histories with the same tuple of consecutive buffer differences are
indistinguishable to the channel. After one real transition, every history
in the visited history's equivalence class (same differences, levels still
inside [0, B]) can be updated with the same action: each member gets its own
reconstructed successor and reward, keyed to its own absolute levels.

``batch_update`` is one kernel call per real transition, not one call per
member: it looks up the (member, successor, reward) moves of the visited
history's class for the successor difference, one tuple shared by every
member, and hands it whole to ``agent.td_updates``. In the convergence preset
(w = 2, d = 8, B = 5) a batch updates about 5.4 members in about 4.2 us
(see ``agent``).
"""

from functools import lru_cache

from .agent import History, LearningParams, QTable, reward, td_updates
from .agent import q_update  # unused: the benchmark's span tracer still wraps virtual.q_update

__all__ = [
    "VirtualKey",
    "transform",
    "enumerate_class",
    "class_size_bound",
    "batch_update",
]

#: Tuple of w-1 consecutive buffer differences, oldest first. Entry k is
#: levels[k] - levels[k+1]: positive means the buffer drained.
VirtualKey = tuple[int, ...]


def transform(h: History) -> VirtualKey:
    """Map a history to its difference tuple (the virtual state key)."""
    if len(h) < 2:
        raise ValueError("history window must be >= 2 to take differences")
    return tuple(h[k] - h[k + 1] for k in range(len(h) - 1))


def _prefix_sums(key: VirtualKey) -> tuple[int, ...]:
    sums = [0]
    for c in key:
        sums.append(sums[-1] + c)
    return tuple(sums)


@lru_cache(maxsize=None)
def enumerate_class(key: VirtualKey, B: int, w: int) -> tuple[History, ...]:
    """All histories over [0, B]^w whose difference tuple equals ``key``.

    A member is fixed by its first level b: level k is b minus the k-th
    prefix sum of the differences. Feasibility pins b to a contiguous range,
    so members come back sorted by first level (the canonical order used by
    batch updates). The empty tuple is a valid result.
    """
    if len(key) != w - 1:
        raise ValueError(f"key length {len(key)} does not match window {w}")
    sums = _prefix_sums(key)
    lo = max(sums)  # includes 0, so lo >= 0
    hi = B + min(sums)  # includes 0, so hi <= B
    return tuple(tuple(b - s for s in sums) for b in range(lo, hi + 1))


def class_size_bound(key: VirtualKey, B: int) -> int:
    """Upper bound on the class size: min(B + 1 - b_lo, b_hi + 1), where
    b_lo / b_hi are the smallest / largest feasible first levels."""
    sums = _prefix_sums(key)
    b_lo = max(sums)
    b_hi = B + min(sums)
    return max(0, min(B + 1 - b_lo, b_hi + 1))


def batch_update(
    q: QTable,
    h_visited: History,
    a: int,
    r_observed: float,
    h_next: History,
    params: LearningParams,
) -> int:
    """Update every member of the visited history's equivalence class.

    The observed transition contributes one shared quantity: the newest
    buffer difference c of ``h_next``. Each member's successor appends its
    own newest level minus c; members whose successor level would leave
    [0, B] are skipped. The reward depends on the absolute
    level, so each member is rewarded with minus its own successor level
    (for the visited history this reproduces ``r_observed``). Every member,
    the visited history included, is updated exactly once with its own
    visit count.

    Returns the number of members updated.
    """
    moves = _moves(h_visited, h_next[-2] - h_next[-1], params.B, params.w)
    td_updates(q, a, moves, params)
    return len(moves)


@lru_cache(maxsize=None)
def _moves(h_visited: History, c_next: int, B: int, w: int) -> tuple:
    """The moves of h_visited's class for c_next: a hit costs no ``transform``,
    and every member of the class gets the one tuple ``_class_moves`` built."""
    return _class_moves(transform(h_visited), c_next, B, w)


@lru_cache(maxsize=None)
def _class_moves(key: VirtualKey, c_next: int, B: int, w: int) -> tuple:
    """(member, member_next, reward) of every member of class ``key`` whose
    successor level stays inside [0, B], in canonical order (see
    ``batch_update``)."""
    moves = []
    for member in enumerate_class(key, B, w):
        successor_level = member[-1] - c_next
        if 0 <= successor_level <= B:
            moves.append((member, member[1:] + (successor_level,), reward(successor_level)))
    return tuple(moves)
