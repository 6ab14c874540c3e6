"""Episodic multi-agent driver: arrivals, buffers, frames, training loops.

All nodes step in lockstep on frame boundaries. Per frame: nodes with a
nonempty buffer pick a replica count from their own Q-table, the frame is
decoded by SIC, successful nodes drain one packet, fresh arrivals land
(usable from the next frame on, tail-dropped above capacity), histories
shift, and rewards/Q-updates follow. Episodes restart buffers from a uniform
initial distribution; learned tables always carry over.

Every frame makes one fixed set of draws, whatever the nodes hold: one
(m, N + 2) uniform block and the m arrivals. Row i of the block belongs to
node i: its epsilon test, its exploring pick or greedy tie-break, and N
uniforms whose argsort ranks the slots for its replicas.

``train`` spawns three generators from ``SeedSequence(seed)``: one for frame
blocks, one for arrivals and one for resets. Frame k takes the k-th block
and the k-th m arrivals of their streams, so its draws depend only on the
seed and the frame index, never on the resets before it. ``frame_draws``
therefore draws frames ahead, a chunk of up to ``_STRETCH_DOUBLES`` doubles
at a time, across episode boundaries, and a reset draws from its own stream
in between.
"""

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .agent import (
    History,
    LearningParams,
    NoExperienceError,
    QTable,
    extract_policy,
    initial_history,
    q_update,
    select_action,
)
from .core import (
    DegreeDistribution,
    simulate_frame,
    simulate_saturated,
    uniform_distribution,
)
from .stats import Summary, t_interval
from .virtual import batch_update

__all__ = [
    "ConfigurationError",
    "ArrivalModel",
    "NodeState",
    "TrainConfig",
    "FrameResult",
    "frame_draws",
    "RunRecord",
    "step_frame",
    "detect_bad_episode",
    "reset_episode",
    "new_nodes",
    "train",
    "deployed_policies",
    "check_trials",
    "evaluate",
    "TRACE_COLUMNS",
]


class ConfigurationError(ValueError):
    """Invalid run configuration."""


_INT64_MAX = int(np.iinfo(np.int64).max)
#: B must lie below this: larger buffer levels are not exact float rewards.
_BUFFER_LIMIT = 2**53
#: The largest d: every visited history holds two Q-table rows of d entries.
_MAX_REPLICAS = 1024
#: The largest w: every node holds a history of w levels, and every visited
#: history keys its Q-table rows.
_MAX_WINDOW = 1024
#: The largest m * (N + 2): every training frame draws an (m, N + 2) block
#: of doubles. It admits 2000 nodes in 2000 slots.
_MAX_FRAME_DOUBLES = 2**22
#: The largest trials * m of one saturated evaluation, in (frame, user)
#: rows. It admits 100,000 frames of 1000 users, the size of ``baseline``.
_MAX_EVALUATION_ROWS = 2**27
#: The largest mean numpy's ``Generator.poisson`` accepts; it rejects any
#: larger one with "lam value too large".
_POISSON_MAX_MEAN = float(_INT64_MAX - 10 * np.sqrt(_INT64_MAX))
#: A chunk of ``frame_draws`` draws at most this many doubles (and at least
#: one frame), which bounds its memory.
_STRETCH_DOUBLES = 2**13


@dataclass(frozen=True)
class ArrivalModel:
    """Per-node i.i.d. packet arrivals per frame.

    kinds: bernoulli(param = arrival probability), poisson(param = mean),
    deterministic(param = fixed integer count).
    """

    kind: str = "bernoulli"
    param: float = 0.5

    def __post_init__(self):
        if self.kind not in ("bernoulli", "poisson", "deterministic"):
            raise ConfigurationError(f"unknown arrival kind {self.kind!r}")
        if self.kind == "bernoulli" and not 0.0 <= self.param <= 1.0:
            raise ConfigurationError("bernoulli arrival probability must lie in [0, 1]")
        if not 0.0 <= self.param < np.inf:
            raise ConfigurationError("arrival parameter must be finite and nonnegative")
        if self.kind == "poisson" and self.param > _POISSON_MAX_MEAN:
            raise ConfigurationError(f"poisson arrival mean must be at most {_POISSON_MAX_MEAN!r}")
        if self.kind == "deterministic" and self.param != int(self.param):
            raise ConfigurationError("deterministic arrivals need an integer count")
        if self.kind == "deterministic" and int(self.param) > _INT64_MAX:
            raise ConfigurationError("deterministic arrival count must fit in an int64")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "bernoulli":
            return (rng.random(size) < self.param).astype(np.int64)
        if self.kind == "poisson":
            return rng.poisson(self.param, size).astype(np.int64)
        return np.full(size, int(self.param), dtype=np.int64)


@dataclass
class NodeState:
    """One sensor node: backlog, observation window, learned table."""

    buffer: int
    history: History
    q: QTable


@dataclass(frozen=True)
class TrainConfig:
    """Full parameterization of one training/evaluation run."""

    n_slots: int = 10
    load: float = 0.5
    params: LearningParams = LearningParams()
    episodes: int = 50
    iters_per_episode: int = 30
    virtual_experience: bool = False
    arrivals: ArrivalModel = ArrivalModel()
    seed: int = 0

    def __post_init__(self):
        if self.n_slots < 1:
            raise ConfigurationError("n_slots must be >= 1")
        if not 0 < self.load < np.inf:
            raise ConfigurationError("load must be positive and finite")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.episodes < 0 or self.iters_per_episode < 0:
            raise ConfigurationError("episode dimensions cannot be negative")
        try:
            m = self.m
        except OverflowError:
            raise ConfigurationError(
                f"load * n_slots = {self.load!r} * {self.n_slots} has no finite node count"
            ) from None
        if m < 1:
            raise ConfigurationError("configuration yields zero nodes")
        if m * (self.n_slots + 2) > _MAX_FRAME_DOUBLES:
            raise ConfigurationError(
                f"m * (N + 2) = {m} * {self.n_slots + 2} is above {_MAX_FRAME_DOUBLES}: "
                "every training frame draws an (m, N + 2) block of uniforms"
            )
        if self.params.B >= _BUFFER_LIMIT:
            raise ConfigurationError(
                f"buffer capacity B = {self.params.B} must be below 2**53: "
                "larger levels are not exact float rewards"
            )
        if self.params.d > _MAX_REPLICAS:
            raise ConfigurationError(
                f"max_replicas d = {self.params.d} is above {_MAX_REPLICAS}: every visited "
                f"history would hold two Q-table rows of {self.params.d} entries "
                f"({16 * self.params.d} bytes)"
            )
        if self.params.w > _MAX_WINDOW:
            raise ConfigurationError(
                f"window w = {self.params.w} is above {_MAX_WINDOW}: every node holds "
                "a history of w buffer levels"
            )
        if self.virtual_experience and self.params.w < 2:
            raise ConfigurationError("virtual experience needs a history window >= 2")

    @property
    def m(self) -> int:
        """Number of nodes: round(load * n_slots), the load G = m / N."""
        return int(round(self.load * self.n_slots))

    @property
    def total_iterations(self) -> int:
        return self.episodes * self.iters_per_episode


class FrameResult(NamedTuple):
    """Per-frame outcome across all nodes.

    ``mean_reward`` is the mean of the m nodes' rewards (minus the new buffer
    level of a node that transmitted, 0 for a silent one), taken from the
    integer buffer levels: the exact mean, rounded once. ``TrainConfig``
    keeps B below 2**53, so every reward is an exact float; while m * B <
    2**53 every partial sum is exact too, in any order, and ``mean_reward``
    equals the numpy mean of the m rewards bit for bit.
    """

    mean_reward: float
    throughput: float
    decoded: int
    transmitting: int
    dropped: int


TRACE_COLUMNS = ("trial", "episode", "iteration", "mean_reward", "throughput", "resets")


@dataclass
class RunRecord:
    """Per-iteration trace of one training run.

    A bad-episode reset does not end the episode, so every episode runs
    ``config.iters_per_episode`` = I frames, and frame k is iteration k % I
    of episode k // I.
    """

    config: TrainConfig
    mean_reward: list[float] = field(default_factory=list)
    throughput: list[float] = field(default_factory=list)
    resets: list[int] = field(default_factory=list)
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.mean_reward)

    def episode_means(self) -> np.ndarray:
        """Mean reward per episode, each episode summed in frame order."""
        per = self.config.iters_per_episode
        means = []
        # A run of zero-frame episodes records nothing; ``or 1`` keeps the
        # step of the empty range valid.
        for start in range(0, len(self), per or 1):
            rewards = self.mean_reward[start : start + per]
            total = 0.0
            for r in rewards:
                total += r
            means.append(total / len(rewards))
        return np.array(means)

    def episode_trace(self, episode_index: int) -> np.ndarray:
        """Within-episode mean-reward sequence for one episode."""
        per = self.config.iters_per_episode
        return np.array(self.mean_reward[episode_index * per : (episode_index + 1) * per])

    def rows(self, trial: int = 0):
        per = self.config.iters_per_episode
        for k in range(len(self)):
            yield (
                trial,
                k // per,
                k % per,
                self.mean_reward[k],
                self.throughput[k],
                self.resets[k],
            )


def frame_draws(
    config: TrainConfig,
    blocks: np.random.Generator,
    arrivals: np.random.Generator,
    m: int,
    frames: int,
) -> Iterator[tuple[list, list, list, list]]:
    """Yield the draws of ``frames`` frames of m nodes, a chunk at a time.

    Each frame is (explore, pick, ranks, arrivals): per node its two
    ``select_action`` uniforms, its first d slot ranks and its arrival
    count. A chunk of n frames is one (n, m, N + 2) block from ``blocks``,
    at most ``_STRETCH_DOUBLES`` doubles and at least one frame, then one
    ``ArrivalModel.sample`` of n * m arrivals from ``arrivals``. So frame k
    holds the k-th frame's draws of each stream however the chunks fall,
    and once all ``frames`` are out both generators sit right after them.
    """
    width = config.n_slots + 2
    d = config.params.d
    per_chunk = max(1, _STRETCH_DOUBLES // (m * width))
    while frames > 0:
        n = min(frames, per_chunk)
        frames -= n
        block = blocks.random((n, m, width))
        arrived = config.arrivals.sample(arrivals, n * m).reshape(n, m).tolist()
        # Only the first d ranks can hold a replica.
        ranks = block[:, :, 2:].argsort(axis=2)[:, :, :d].tolist()
        yield from zip(block[:, :, 0].tolist(), block[:, :, 1].tolist(), ranks, arrived)


def step_frame(
    nodes: list[NodeState],
    config: TrainConfig,
    plan: "Iterator | np.random.Generator",
) -> FrameResult:
    """Advance every node by one frame; mutates node state in place.

    The frame takes the next draws of ``plan``, an iterator of
    ``frame_draws`` frames. Whatever the nodes hold, they are one (m, N + 2)
    uniform block and the m arrivals of ``config.arrivals``. Row i of the
    block belongs to node i: column 0 is its epsilon test, column 1 its
    exploring pick or greedy tie-break (both go to ``select_action``), and
    the argsort of columns 2.. ranks the slots, so its a replicas sit in its
    first min(a, N) ranks. Rows of silent nodes go unused. A bare generator
    is the one stream of a one-frame plan for m = len(nodes) nodes: the
    block, then the arrivals, both drawn from it.

    Nodes with an empty buffer stay silent: they get reward 0 and no
    Q-update for the frame, but arrivals still land and their histories
    still shift.
    """
    params = config.params
    n_slots = config.n_slots
    cap = params.B
    m = len(nodes)

    if isinstance(plan, np.random.Generator):
        plan = frame_draws(config, plan, plan, m, 1)
    explore, pick, ranks, arrivals = next(plan)

    actions = []  # per node its replica count, 0 when silent
    bursts = {}
    for i, node in enumerate(nodes):
        a = 0
        if node.buffer > 0:
            a = select_action(node.q, node.history, params, explore[i], pick[i])
            # The slice caps the replicas at min(a, N) distinct slots.
            bursts[i] = ranks[i][:a]
        actions.append(a)
    decoded = simulate_frame(bursts).decoded

    # Looked up per frame, so a replaced module global is still the one called.
    update = batch_update if config.virtual_experience else q_update
    backlog = 0  # summed buffer levels of the transmitting nodes
    dropped = 0
    for i, (node, a) in enumerate(zip(nodes, actions)):
        b = node.buffer - (i in decoded) + arrivals[i]
        if b > cap:
            dropped += b - cap
            b = cap
        h = node.history
        node.buffer = b
        node.history = h_next = h[1:] + (b,)
        if a:
            backlog += b
            # The reward is minus the new buffer level (``agent.reward``).
            update(node.q, h, a, float(-b), h_next, params)
    return FrameResult(
        mean_reward=-backlog / m,
        throughput=len(decoded) / n_slots,
        decoded=len(decoded),
        transmitting=len(bursts),
        dropped=dropped,
    )


def detect_bad_episode(recent_rewards) -> bool:
    """True when the last three reward deltas are all strictly negative."""
    r = recent_rewards if isinstance(recent_rewards, (list, tuple)) else list(recent_rewards)
    return len(r) > 3 and bool(r[-1] < r[-2] < r[-3] < r[-4])


def reset_episode(
    nodes: list[NodeState],
    params: LearningParams,
    rng: np.random.Generator,
) -> None:
    """Redraw every buffer i.i.d. uniform on {0..B} and refill histories with
    the drawn level. Q-tables and visit counts are untouched."""
    levels = rng.integers(0, params.B + 1, size=len(nodes))
    for node, level in zip(nodes, levels):
        node.buffer = int(level)
        node.history = initial_history(int(level), params.w)


def new_nodes(config: TrainConfig) -> list[NodeState]:
    params = config.params
    return [
        NodeState(buffer=0, history=initial_history(0, params.w), q=QTable(params.d))
        for _ in range(config.m)
    ]


def train(config: TrainConfig) -> tuple[list[NodeState], RunRecord]:
    """Run the full episodic learning loop.

    Buffers restart uniformly at each episode boundary; inside an episode a
    run of three strictly deteriorating mean rewards triggers an extra reset
    (a "bad episode"). The trace records one row per frame. Bit-reproducible
    for a fixed config seed: frame blocks, arrivals and resets each draw from
    their own generator, spawned in that order from ``SeedSequence(seed)``.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    block_rng, arrival_rng, reset_rng = (np.random.default_rng(s) for s in seeds)
    nodes = new_nodes(config)
    plan = frame_draws(config, block_rng, arrival_rng, len(nodes), config.total_iterations)

    record = RunRecord(config=config)
    for _ in range(config.episodes):
        reset_episode(nodes, config.params, reset_rng)
        recent: list[float] = []
        for _ in range(config.iters_per_episode):
            result = step_frame(nodes, config, plan)
            mean_reward = result.mean_reward
            recent.append(mean_reward)
            resets = 0
            if detect_bad_episode(recent):
                reset_episode(nodes, config.params, reset_rng)
                recent.clear()
                resets = 1
            record.mean_reward.append(mean_reward)
            record.throughput.append(result.throughput)
            record.resets.append(resets)
            record.dropped += result.dropped
    return nodes, record


def deployed_policies(tables: list[QTable]) -> list[DegreeDistribution]:
    """Per-node degree distributions extracted from trained Q-tables.

    A table with no recorded experience deploys the uniform distribution,
    which is exactly what greedy play with uniform tie-breaking over an
    all-zero table produces.
    """
    policies = []
    for table in tables:
        try:
            policies.append(extract_policy(table))
        except NoExperienceError:
            policies.append(uniform_distribution(table.d))
    return policies


def check_trials(trials: int, m: int) -> None:
    """Reject a saturated evaluation of ``trials`` frames of m users that has
    no frame, or more than ``_MAX_EVALUATION_ROWS`` (frame, user) rows."""
    if trials < 1:
        raise ConfigurationError("need at least one trial")
    if trials * m > _MAX_EVALUATION_ROWS:
        raise ConfigurationError(
            f"trials * m = {trials} * {m} is above {_MAX_EVALUATION_ROWS} "
            "(frame, user) rows of saturated evaluation"
        )


def evaluate(
    policy,
    config: TrainConfig,
    trials: int,
    rng: np.random.Generator,
    level: float = 0.975,
) -> Summary:
    """Frozen-policy Monte Carlo throughput (no learning, no exploration).

    ``policy`` is a DegreeDistribution shared by all nodes or a per-node
    sequence of distributions (``deployed_policies`` turns trained Q-tables
    into one). Every trial is one saturated frame: every node is backlogged
    and draws its replica count from its distribution. ``level`` is the
    two-sided confidence level of the returned interval. It and the size
    (``check_trials``) are checked before any draw. The interval's bounds
    are computed, and scipy loaded, only when ``ci_low`` or ``ci_high`` is
    first read: a caller that reads only ``mean``, ``stderr`` and ``n``
    loads no scipy.
    """
    check_trials(trials, config.m)
    if not 0.0 < level < 1.0:
        raise ConfigurationError("confidence level must lie in (0, 1)")
    if isinstance(policy, DegreeDistribution):
        policy = [policy] * config.m
    else:
        policy = list(policy)
        if not all(isinstance(p, DegreeDistribution) for p in policy):
            raise ConfigurationError("policy must be a degree distribution or one per node")
        if len(policy) != config.m:
            raise ConfigurationError(f"expected {config.m} per-node policies")
    counts = simulate_saturated(policy, config.n_slots, trials, rng)
    return t_interval(counts / config.n_slots, level)
