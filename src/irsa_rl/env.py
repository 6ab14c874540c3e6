"""Episodic multi-agent driver: arrivals, buffers, frames, training loops.

All nodes step in lockstep on frame boundaries. Per frame: nodes with a
nonempty buffer pick a replica count from their own Q-table, the frame is
decoded by SIC, successful nodes drain one packet, fresh arrivals land
(usable from the next frame on, tail-dropped above capacity), histories
shift, and rewards/Q-updates follow. Episodes restart buffers from a uniform
initial distribution; learned tables always carry over.

Every frame makes one fixed set of draws from the run's generator, whatever
the nodes hold: one (m, N + 2) uniform block, then the m arrivals. Row i of
the block belongs to node i: its epsilon test, its exploring pick or greedy
tie-break, and N uniforms whose argsort ranks the slots for its replicas.
Resets make their own draw. A run's stream therefore depends only on its
seed, the frame index and its reset history.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .agent import (
    History,
    LearningParams,
    NoExperienceError,
    QTable,
    extract_policy,
    initial_history,
    q_update,
    reward,
    select_action,
    shift_history,
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
    "RunRecord",
    "step_frame",
    "detect_bad_episode",
    "reset_episode",
    "new_nodes",
    "train",
    "deployed_policies",
    "evaluate",
    "TRACE_COLUMNS",
]


class ConfigurationError(ValueError):
    """Invalid run configuration."""


_INT64_MAX = int(np.iinfo(np.int64).max)
#: The largest mean numpy's ``Generator.poisson`` accepts; it rejects any
#: larger one with "lam value too large".
_POISSON_MAX_MEAN = float(_INT64_MAX - 10 * np.sqrt(_INT64_MAX))


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
    n_nodes: int | None = None  # default: round(load * n_slots)
    seed: int = 0

    def __post_init__(self):
        if self.n_slots < 1:
            raise ConfigurationError("n_slots must be >= 1")
        if not self.load < np.inf:
            raise ConfigurationError("load must be finite")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.load <= 0 and self.n_nodes is None:
            raise ConfigurationError("load must be positive")
        if self.episodes < 0 or self.iters_per_episode < 0:
            raise ConfigurationError("episode dimensions cannot be negative")
        if self.m < 1:
            raise ConfigurationError("configuration yields zero nodes")

    @property
    def m(self) -> int:
        """Number of nodes: explicit override or round(load * n_slots)."""
        if self.n_nodes is not None:
            return self.n_nodes
        return int(round(self.load * self.n_slots))

    @property
    def total_iterations(self) -> int:
        return self.episodes * self.iters_per_episode

    def with_load(self, load: float, n_slots: int | None = None) -> "TrainConfig":
        return replace(self, load=load, n_slots=n_slots or self.n_slots, n_nodes=None)


@dataclass(frozen=True)
class FrameResult:
    """Per-frame outcome across all nodes."""

    rewards: np.ndarray
    throughput: float
    decoded: int
    transmitting: int
    dropped: int


TRACE_COLUMNS = ("trial", "episode", "iteration", "mean_reward", "throughput", "resets")


@dataclass
class RunRecord:
    """Per-iteration trace of one training run."""

    config: TrainConfig
    episode: list[int] = field(default_factory=list)
    iteration: list[int] = field(default_factory=list)
    mean_reward: list[float] = field(default_factory=list)
    throughput: list[float] = field(default_factory=list)
    resets: list[int] = field(default_factory=list)
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.mean_reward)

    def episode_means(self) -> np.ndarray:
        """Mean reward per episode (empty episodes are skipped)."""
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for e, r in zip(self.episode, self.mean_reward):
            sums[e] = sums.get(e, 0.0) + r
            counts[e] = counts.get(e, 0) + 1
        return np.array([sums[e] / counts[e] for e in sorted(sums)])

    def episode_trace(self, episode_index: int) -> np.ndarray:
        """Within-episode mean-reward sequence for one episode."""
        return np.array(
            [r for e, r in zip(self.episode, self.mean_reward) if e == episode_index]
        )

    def rows(self, trial: int = 0):
        for k in range(len(self)):
            yield (
                trial,
                self.episode[k],
                self.iteration[k],
                self.mean_reward[k],
                self.throughput[k],
                self.resets[k],
            )


def step_frame(
    nodes: list[NodeState],
    config: TrainConfig,
    rng: np.random.Generator,
) -> FrameResult:
    """Advance every node by one frame; mutates node state in place.

    The frame draws, in this order and whatever the nodes hold: one
    (m, N + 2) uniform block, then ``config.arrivals.sample(rng, m)``. Row i
    of the block belongs to node i: column 0 is its epsilon test, column 1
    its exploring pick or greedy tie-break (both go to ``select_action``),
    and the argsort of columns 2.. ranks the slots, so its a replicas sit in
    its first min(a, N) ranks. Rows of silent nodes go unused.

    Nodes with an empty buffer stay silent: they get reward 0 and no
    Q-update for the frame, but arrivals still land and their histories
    still shift.
    """
    params = config.params
    n_slots = config.n_slots
    cap = params.B
    m = len(nodes)

    block = rng.random((m, n_slots + 2))
    arrivals = config.arrivals.sample(rng, m).tolist()
    uniforms = block[:, :2].tolist()
    # Only the first d ranks can hold a replica.
    ranks = block[:, 2:].argsort(axis=1)[:, : params.d].tolist()

    actions = {}
    bursts = {}
    for i, node in enumerate(nodes):
        if node.buffer > 0:
            a = select_action(node.q, node.history, params, *uniforms[i])
            actions[i] = a
            # The slice caps the replicas at min(a, N) distinct slots.
            bursts[i] = ranks[i][:a]
    decoded = simulate_frame(bursts, n_slots).decoded

    rewards = np.zeros(m)
    dropped = 0
    for i, node in enumerate(nodes):
        raw = node.buffer - (i in decoded) + arrivals[i]
        b_new = min(raw, cap)
        dropped += raw - b_new
        h_prev = node.history
        node.buffer = b_new
        node.history = shift_history(h_prev, b_new)
        if i in actions:
            r = reward(b_new)
            rewards[i] = r
            if config.virtual_experience:
                batch_update(node.q, h_prev, actions[i], r, node.history, params)
            else:
                q_update(node.q, h_prev, actions[i], r, node.history, params)
    return FrameResult(
        rewards=rewards,
        throughput=len(decoded) / n_slots,
        decoded=len(decoded),
        transmitting=len(bursts),
        dropped=dropped,
    )


def detect_bad_episode(recent_rewards) -> bool:
    """True when the last three reward deltas are all strictly negative."""
    r = list(recent_rewards)
    if len(r) < 4:
        return False
    return all(r[-k] < r[-k - 1] for k in (1, 2, 3))


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
    return [
        NodeState(buffer=0, history=initial_history(0, config.params.w), q=QTable())
        for _ in range(config.m)
    ]


def train(config: TrainConfig) -> tuple[list[NodeState], RunRecord]:
    """Run the full episodic learning loop.

    Buffers restart uniformly at each episode boundary; inside an episode a
    run of three strictly deteriorating mean rewards triggers an extra reset
    (a "bad episode"). The trace records one row per frame. Bit-reproducible
    for a fixed config seed.
    """
    rng = np.random.default_rng(config.seed)
    nodes = new_nodes(config)

    record = RunRecord(config=config)
    for episode in range(config.episodes):
        reset_episode(nodes, config.params, rng)
        recent: list[float] = []
        for it in range(config.iters_per_episode):
            result = step_frame(nodes, config, rng)
            mean_reward = float(result.rewards.mean())
            recent.append(mean_reward)
            resets = 0
            if detect_bad_episode(recent):
                reset_episode(nodes, config.params, rng)
                recent.clear()
                resets = 1
            record.episode.append(episode)
            record.iteration.append(it)
            record.mean_reward.append(mean_reward)
            record.throughput.append(result.throughput)
            record.resets.append(resets)
            record.dropped += result.dropped
    return nodes, record


def deployed_policies(tables: list[QTable], d: int) -> list[DegreeDistribution]:
    """Per-node degree distributions extracted from trained Q-tables.

    A table with no recorded experience deploys the uniform distribution,
    which is exactly what greedy play with uniform tie-breaking over an
    all-zero table produces.
    """
    policies = []
    for table in tables:
        try:
            policies.append(extract_policy(table, d))
        except NoExperienceError:
            policies.append(uniform_distribution(d))
    return policies


def evaluate(
    policy,
    config: TrainConfig,
    trials: int,
    rng: np.random.Generator | None = None,
    level: float = 0.975,
) -> Summary:
    """Frozen-policy Monte Carlo throughput (no learning, no exploration).

    ``policy`` is a DegreeDistribution shared by all nodes or a per-node
    sequence of distributions (``deployed_policies`` turns trained Q-tables
    into one). Every trial is one saturated frame: every node is backlogged
    and draws its replica count from its distribution.
    """
    if trials < 1:
        raise ConfigurationError("need at least one trial")
    if rng is None:
        rng = np.random.default_rng(config.seed)
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
