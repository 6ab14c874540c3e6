"""One independent learner per sensor node.

The learner observes only its own buffer: its Q-table state is the tuple of
the last w buffer levels (oldest first), its actions are replica counts in
{1..d}, and its reward is minus its buffer level after the frame (the
capacity B is a finite integer). After training, the visited table is folded
into a deployable degree distribution.

``QTable(d)`` owns the action count: it keeps one row of q values and one
row of visit counts per history, both of width d and indexed by action - 1,
and rejects any action outside 1..d, checkpoints included.

``td_updates`` is the one TD-update kernel, and it does no lookups. It
applies a sequence of (q_row, n_row, next_row, r) moves for one action in
order, on row references the caller resolved, and checks the action and
binds gamma and the learning rates once per call. ``q_update`` resolves its
own rows, two lookups, and makes a one-move call. ``virtual.batch_update``
resolves a class's moves once per table, keeps them on the table, and hands
them whole to the kernel on every later batch. A move's successor maximum is
one ``max`` over its row. Learning rates come from a per-``LearningParams``
list of ``learning_rate`` values, extended on demand, instead of a call per
update. A ``q_update`` takes about 1.0 us (w = 4, d = 4, best of 20 runs of
3000 random transitions into a fresh table). A virtual batch of the
convergence preset takes about 2.6 us for its ~5.4 moves, against 3.2 us
when every move looked up its three rows (best of 15 replays of one run's
19.8k batches). ``select_action`` breaks ties from the row it has already
read, with no second lookup: about 0.57 us per call against 0.61 us when
tied rows asked ``greedy_actions``, and 0.81 against 1.43 us on tied rows
alone (best of 20 replays of the 12.8k calls of a 1500-frame run at G =
1.0, N = 10, on its final tables). All on a 2-core x86 host.

A note on the learning-rate schedule: the default geometric schedule
alpha = min(1, 1.111 * 0.9^visits) decays too fast to satisfy the
Robbins-Monro divergence condition (sum alpha = infinity fails), so the
usual tabular convergence guarantee only holds approximately. Switch
``alpha_schedule`` to "polynomial" (alpha = 1 / (visits + 1)^phi, with
phi in (0.5, 1]) when the guarantee matters more than the tuned schedule.
"""

from dataclasses import dataclass
from functools import cached_property
import math

from .core import DegreeDistribution

__all__ = [
    "History",
    "LearningParams",
    "QTable",
    "NoExperienceError",
    "learning_rate",
    "select_action",
    "reward",
    "q_update",
    "td_updates",
    "extract_policy",
    "initial_history",
]

#: A buffer-level history, oldest level first, newest last.
History = tuple[int, ...]


class NoExperienceError(ValueError):
    """Raised when a policy is requested from a table with no recorded visits."""


@dataclass(frozen=True)
class LearningParams:
    """Learning configuration shared by every agent in a run."""

    epsilon: float = 0.05
    gamma: float = 0.98
    alpha_base: float = 1.111
    alpha_decay: float = 0.9
    w: int = 4
    B: int = 5
    d: int = 4
    alpha_schedule: str = "geometric"  # "geometric" or "polynomial"
    phi: float = 0.8

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not self.alpha_base > 0 or not 0.0 < self.alpha_decay <= 1.0:
            raise ValueError("alpha schedule must be positive and non-increasing")
        if not all(isinstance(v, int) for v in (self.w, self.B, self.d)):
            raise ValueError("w, B and d must be integers")
        if self.w < 1 or self.B < 1 or self.d < 1:
            raise ValueError("w, B and d must all be >= 1")
        if self.alpha_schedule not in ("geometric", "polynomial"):
            raise ValueError(f"unknown alpha schedule {self.alpha_schedule!r}")
        if not 0.5 < self.phi <= 1.0:
            raise ValueError("phi must lie in (0.5, 1] for Robbins-Monro")

    @cached_property
    def _alphas(self) -> list[float]:
        """learning_rate(v, self) at index v; td_updates extends it on demand."""
        return []


def learning_rate(visits: int, params: LearningParams) -> float:
    """Per-pair learning rate after ``visits`` prior updates of that pair.

    Geometric: min(1, alpha_base * alpha_decay^visits); the clamp matters only
    at visits = 0, where the raw 1.111 would extrapolate past the target.
    Polynomial: 1 / (visits + 1)^phi, which does satisfy Robbins-Monro.
    """
    if visits < 0:
        raise ValueError("visit count cannot be negative")
    if params.alpha_schedule == "polynomial":
        return 1.0 / (visits + 1) ** params.phi
    return min(1.0, params.alpha_base * params.alpha_decay**visits)


class QTable:
    """(history, action) -> (q value, visit count) table over actions 1..d.

    ``_q[h]`` and ``_n[h]`` hold the q values and visit counts of history h,
    action a at index a - 1. Both rows are created with d zeros on the first
    write to h, or on its first resolution as the successor in a virtual
    batch; an absent history reads as (0.0, 0) for every action, and an
    action outside 1..d is a ``ValueError``. Visit counts only ever increase;
    they feed the per-pair learning-rate schedule.

    A row is only ever changed in place, never replaced, so a reference to
    it stays the table's own row: ``virtual.batch_update`` keeps such
    references in ``_moves``. A row created by a resolution waits in
    ``_unwritten`` until the first write to h moves it into ``_q`` and
    ``_n``. So those hold visited rows only, in first-write order, which is
    the order ``extract_policy`` sums its weights in.
    """

    __slots__ = ("d", "_q", "_n", "_unwritten", "_moves")

    def __init__(self, d: int):
        self.d = d
        self._q: dict[History, list[float]] = {}
        self._n: dict[History, list[int]] = {}
        self._unwritten: dict[History, tuple[list[float], list[int]]] = {}
        self._moves: dict[tuple, tuple] = {}

    def __len__(self) -> int:
        """Number of visited (history, action) pairs."""
        return sum(v > 0 for row in self._n.values() for v in row)

    def _check(self, a: int) -> None:
        if not 0 < a <= self.d:
            raise ValueError(f"action {a} outside 1..{self.d}")

    def q(self, h: History, a: int) -> float:
        self._check(a)
        row = self._q.get(h)
        return 0.0 if row is None else row[a - 1]

    def visits(self, h: History, a: int) -> int:
        self._check(a)
        row = self._n.get(h)
        return 0 if row is None else row[a - 1]

    def _rows(self, h: History, a: int) -> tuple[list[float], list[int]]:
        """The q and visit rows of h, about to be written; a must be in 1..d."""
        self._check(a)
        q_row = self._q.get(h)
        if q_row is not None:
            return q_row, self._n[h]
        rows = self._unwritten.pop(h, None) or ([0.0] * self.d, [0] * self.d)
        self._q[h], self._n[h] = rows
        return rows

    def _read_row(self, h: History) -> list[float]:
        """The q row of h, held in ``_unwritten`` until h is first written."""
        row = self._q.get(h)
        if row is not None:
            return row
        rows = self._unwritten.get(h)
        if rows is None:
            rows = self._unwritten[h] = ([0.0] * self.d, [0] * self.d)
        return rows[0]

    def record(self, h: History, a: int, q_value: float) -> None:
        """Store a new q value for (h, a) and count one more visit."""
        q_row, n_row = self._rows(h, a)
        q_row[a - 1] = q_value
        n_row[a - 1] += 1

    def greedy_actions(self, h: History) -> list[int]:
        """All actions attaining the maximal q value for h (tie set).

        Unseen actions read as 0.0; with nonpositive rewards that makes
        unexplored actions look optimistic.
        """
        values = self._q.get(h)
        if values is None:
            return list(range(1, self.d + 1))
        best = max(values)
        if values.count(best) == 1:
            return [values.index(best) + 1]
        return [a for a, v in enumerate(values, start=1) if v == best]

    def items(self):
        for h, q_row in self._q.items():
            for a, (q_value, visits) in enumerate(zip(q_row, self._n[h]), start=1):
                if visits:
                    yield h, a, q_value, visits

    def history_visits(self) -> dict[History, int]:
        """Total visit count per history, summed over actions."""
        return {h: sum(n_row) for h, n_row in self._n.items()}

    # -- flat text checkpoint format -------------------------------------
    # One line per visited entry, sorted: w comma-separated buffer levels,
    # the action, the q value (repr, round-trip exact), the visit count.

    def to_lines(self) -> list[str]:
        lines = []
        for h in sorted(self._q):
            prefix = "".join(f"{level}," for level in h)
            for a, (q_value, visits) in enumerate(zip(self._q[h], self._n[h]), start=1):
                if visits:
                    lines.append(f"{prefix}{a},{float(q_value)!r},{visits}")
        return lines

    @classmethod
    def from_lines(cls, lines, d: int) -> "QTable":
        """The table of actions 1..d that ``to_lines`` wrote; an action
        outside 1..d is a ``ValueError``."""
        table = cls(d)
        for line in lines:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 4:
                raise ValueError(f"malformed q-table line: {line!r}")
            *levels, a, q_value, visits = parts
            a, visits = int(a), int(visits)
            if visits < 1:
                raise ValueError(f"malformed q-table line: {line!r}")
            q_row, n_row = table._rows(tuple(int(x) for x in levels), a)
            q_row[a - 1] = float(q_value)
            n_row[a - 1] = visits
        return table

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.to_lines()))
            fh.write("\n")

    @classmethod
    def load(cls, path, d: int) -> "QTable":
        with open(path) as fh:
            return cls.from_lines(fh, d)


def select_action(
    q: QTable,
    h: History,
    params: LearningParams,
    u_explore: float,
    u_pick: float,
) -> int:
    """Epsilon-greedy replica count from two uniforms on [0, 1).

    ``u_explore < epsilon`` explores: ``u_pick`` picks uniformly over {1..d}.
    Otherwise the node plays a greedy action and ``u_pick`` breaks ties
    uniformly. The caller draws both uniforms, so how many numbers a frame
    draws does not depend on the table. Ties are broken on the row already
    read, with no second lookup: an unvisited history ties all d actions, and
    a row with one maximum returns it at once.
    """
    if u_explore < params.epsilon:
        return int(u_pick * params.d) + 1
    values = q._q.get(h)
    if values is None:
        return int(u_pick * q.d) + 1
    best = max(values)
    n = values.count(best)
    if n == 1:
        return values.index(best) + 1
    # The tie set's element int(u_pick * n): that occurrence of the maximum.
    i = values.index(best)
    for _ in range(int(u_pick * n)):
        i = values.index(best, i + 1)
    return i + 1


def reward(b_now: int) -> float:
    """Buffer-driven reward: minus the backlog after the frame."""
    return float(-b_now)


def td_updates(q: QTable, a: int, moves, params: LearningParams) -> None:
    """Apply the TD updates ``moves`` = ((q_row, n_row, next_row, r), ...) of
    action a to the table's rows, in order.

    Each move updates one history's q row and visit row: Q(h,a) <- (1-alpha)
    Q(h,a) + alpha (r + gamma max_a' Q(h_next,a')), with ``next_row`` the q row
    of h_next (``None`` reads as a maximum of 0.0) and alpha from the pair's
    visit count before the move. A later move sees the writes of the earlier
    ones. An action outside 1..d is a ``ValueError`` raised before any write.
    """
    if not 0 < a <= q.d:
        q._check(a)  # raises
    i = a - 1
    gamma, alphas = params.gamma, params._alphas
    for q_row, n_row, next_row, r in moves:
        target = r + gamma * (0.0 if next_row is None else max(next_row))
        visits = n_row[i]
        try:
            alpha = alphas[visits]
        except IndexError:
            while visits >= len(alphas):
                alphas.append(learning_rate(len(alphas), params))
            alpha = alphas[visits]
        q_row[i] = (1.0 - alpha) * q_row[i] + alpha * target
        n_row[i] = visits + 1


def q_update(
    q: QTable,
    h: History,
    a: int,
    r: float,
    h_next: History,
    params: LearningParams,
) -> None:
    """One tabular update: Q(h,a) <- (1-alpha) Q(h,a) + alpha (r + gamma max_a' Q(h',a')).

    alpha comes from the pair's visit count before this update; the count is
    incremented afterwards. Creates the row of h, and only reads that of
    h_next, which may be absent.
    """
    q_rows = q._q
    next_row = q_rows.get(h_next)
    q_row = q_rows.get(h)
    if q_row is None:
        q_row, n_row = q._rows(h, a)  # checks a before creating the row
    else:
        n_row = q._n[h]
    td_updates(q, a, ((q_row, n_row, next_row, r),), params)


def extract_policy(q: QTable) -> DegreeDistribution:
    """Fold a trained table into a degree distribution.

    Each visited history contributes its total visit count to its greedy
    action's coefficient (split evenly across ties), then the weights are
    normalized. Frequently visited states therefore dominate the deployed
    distribution. Invariant under any positive rescaling of the q values.
    Each coefficient is the exactly rounded sum of its shares (``math.fsum``),
    so it does not depend on the table's row order: a table reloaded from its
    checkpoint deploys what the trained table deploys.
    """
    shares = [[] for _ in range(q.d)]
    for h, visits in q.history_visits().items():
        ties = q.greedy_actions(h)
        share = visits / len(ties)
        for a in ties:
            shares[a - 1].append(share)
    weights = [math.fsum(s) for s in shares]
    total = sum(weights)
    if total <= 0:
        raise NoExperienceError("q-table has no visited state-action pairs")
    return DegreeDistribution(tuple(x / total for x in weights))


def initial_history(level: int, w: int) -> History:
    """Episode-start history: the window filled with the initial buffer level."""
    return (int(level),) * w
