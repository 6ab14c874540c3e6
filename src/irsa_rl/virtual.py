"""Virtual experience: batch Q-updates over difference-equivalent histories.

Collision dynamics depend on how buffers move, not on their absolute levels,
so two histories with the same tuple of consecutive buffer differences are
indistinguishable to the channel. After one real transition, every history
in the visited history's equivalence class (same differences, levels still
inside [0, B]) can be updated with the same action: each member gets its own
reconstructed successor and reward, keyed to its own absolute levels.

``batch_update`` is one kernel call per real transition, not one call per
member. The (member, successor, reward) moves of a class and successor
difference are built once, in one tuple shared by every table. On a table's
first batch of a (visited history, successor difference, B), they are
resolved into that table's row references, one tuple shared by every member
of the class and kept on the table. Every later batch hands that tuple
straight to ``agent.td_updates``, with no lookup per move. In the
convergence preset (w = 2, d = 8, B = 5) a batch updates about 5.4 members
in about 2.6 us (see ``agent``).
"""

from functools import lru_cache

from .agent import History, LearningParams, QTable, reward, td_updates
from .agent import q_update  # unused: the benchmark's span tracer still wraps virtual.q_update

__all__ = [
    "VirtualKey",
    "transform",
    "enumerate_class",
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
    c_next = h_next[-2] - h_next[-1]
    moves = q._moves.get((h_visited, c_next, params.B, params.w))
    if moves is None:
        moves = _resolve(q, a, h_visited, c_next, params.B, params.w)
    td_updates(q, a, moves, params)
    return len(moves)


def _resolve(q: QTable, a: int, h_visited: History, c_next: int, B: int, w: int) -> tuple:
    """The moves of h_visited's class for c_next on table q, as (q_row, n_row,
    next_row, reward) row references for ``td_updates``.

    Built once per table from the shared ``_class_moves`` entry, and cached
    in ``q._moves`` under (member, c_next, B, w) for every member it moves,
    h_visited among them in a real transition: the members share one tuple,
    and a hit costs no ``transform``. A member row is created for the write
    that follows (after the action check); a successor row is only held for
    reading (``QTable._read_row``).
    """
    class_moves = _class_moves(transform(h_visited), c_next, B, w)
    moves = tuple(
        (*q._rows(member, a), q._read_row(member_next), r)
        for member, member_next, r in class_moves
    )
    for member, _, _ in class_moves:
        q._moves[member, c_next, B, w] = moves
    return moves


@lru_cache(maxsize=None)
def _class_moves(key: VirtualKey, c_next: int, B: int, w: int) -> tuple:
    """(member, member_next, reward) of every member of class ``key`` whose
    successor level stays inside [0, B], in canonical order (see
    ``batch_update``); one tuple for every table."""
    moves = []
    for member in enumerate_class(key, B, w):
        successor_level = member[-1] - c_next
        if 0 <= successor_level <= B:
            moves.append((member, member[1:] + (successor_level,), reward(successor_level)))
    return tuple(moves)
