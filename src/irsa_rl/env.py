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

A ``FramePlan`` hands ``step_frame`` those draws. With Bernoulli arrivals
(``random(m) < p``) a frame's draws are m * (N + 3) consecutive doubles, and
with deterministic ones (no draw) m * (N + 2), so a chunk of ``_PLAN_CHUNK``
frames (fewer when it would pass ``_STRETCH_DOUBLES`` doubles, and never past
the episode's end) is one ``rng.random`` call, drawn after saving the
generator state and turned into lists at once. A bad-episode reset after j
frames of a chunk restores the saved state and redraws j frames of doubles
to step past them, so ``reset_episode`` draws from the same state as a
frame-by-frame run. ``bit_generator.advance`` would skip them without
drawing, but it also drops the generator's spare 32-bit half, which the
reset's ``integers`` draw uses. Poisson arrivals take a variable number of
draws, so their chunks are one frame: its block, then its arrivals.
"""

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
    "FramePlan",
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
#: B must lie below this: larger buffer levels are not exact float rewards.
_BUFFER_LIMIT = 2**53
#: The largest d: every visited history holds two Q-table rows of d entries.
_MAX_REPLICAS = 1024
#: The largest mean numpy's ``Generator.poisson`` accepts; it rejects any
#: larger one with "lam value too large".
_POISSON_MAX_MEAN = float(_INT64_MAX - 10 * np.sqrt(_INT64_MAX))
#: Frames a ``FramePlan`` draws at a time.
_PLAN_CHUNK = 8
#: A chunk draws at most this many doubles (and at least one frame), which
#: bounds its memory.
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


class FramePlan:
    """The draws of a run's frames, taken from ``rng`` a chunk at a time.

    ``next_frame`` returns one frame's (explore, pick, ranks, arrivals): per
    node its two ``select_action`` uniforms, its first d slot ranks and its
    arrival count. ``start(frames)`` sets how many frames the plan may hand
    out next; it never draws past them, so the generator sits right after
    the last frame once they are all out. ``rewind()`` puts the generator
    right after the frames handed out so far, so that a reset can draw.
    """

    def __init__(
        self, config: TrainConfig, rng: np.random.Generator, m: int, frames: int = 1
    ):
        self.rng = rng
        self.m = m
        self.width = config.n_slots + 2
        self.d = config.params.d
        self.arrivals = config.arrivals
        # Doubles of one frame's block, and of its whole ``rng.random`` draw:
        # Bernoulli arrivals add m doubles, Poisson ones draw after it.
        self.block_doubles = m * self.width
        self.frame_doubles = self.block_doubles + (m if config.arrivals.kind == "bernoulli" else 0)
        self.start(frames)

    def start(self, frames: int) -> None:
        """Drop any drawn frames and allow the next ``frames``."""
        self.left = frames  # frames still to hand out
        self.ready = []  # drawn frames not yet handed out, last one first
        self.saved = None  # generator state before the chunk was drawn
        self.drawn = 0  # frames in the chunk

    def rewind(self) -> None:
        """Put the generator right after the frames handed out."""
        if self.ready:
            # Redrawn, not skipped with advance(): advance() would drop the
            # spare 32-bit half that the reset's integers draw uses.
            self.rng.bit_generator.state = self.saved
            self.rng.random((self.drawn - len(self.ready)) * self.frame_doubles)
        self.start(self.left)

    def next_frame(self) -> tuple[list, list, list, list]:
        ready = self.ready
        if not ready:
            ready = self.ready = self._draw()
        self.left -= 1
        return ready.pop()

    def _draw(self) -> list:
        """Draw the next chunk of frames as lists, last frame first."""
        if self.left <= 0:
            raise ValueError("the frame plan has no frames left: start() the next episode")
        m, per, rng, arrivals = self.m, self.frame_doubles, self.rng, self.arrivals
        if arrivals.kind == "poisson":
            # A variable number of draws follows each block, so one frame.
            n = 1
        else:
            n = min(self.left, _PLAN_CHUNK, max(1, _STRETCH_DOUBLES // per))
            self.saved = rng.bit_generator.state
        self.drawn = n
        chunk = rng.random(n * per).reshape(n, per)
        cut = self.block_doubles
        if arrivals.kind == "bernoulli":
            arrived = (chunk[:, cut:] < arrivals.param).tolist()
        elif arrivals.kind == "poisson":
            arrived = [arrivals.sample(rng, m).tolist()]
        else:
            arrived = [[int(arrivals.param)] * m] * n
        block = chunk[:, :cut].reshape(n, m, self.width)
        explore = block[:, :, 0].tolist()
        pick = block[:, :, 1].tolist()
        # Only the first d ranks can hold a replica.
        ranks = block[:, :, 2:].argsort(axis=2)[:, :, : self.d].tolist()
        frames = list(zip(explore, pick, ranks, arrived))
        frames.reverse()
        return frames


def step_frame(
    nodes: list[NodeState],
    config: TrainConfig,
    plan: "FramePlan | np.random.Generator",
) -> FrameResult:
    """Advance every node by one frame; mutates node state in place.

    The frame takes its draws from ``plan``; a bare generator is a one-frame
    plan for m = len(nodes) nodes. They are, in this order and whatever the
    nodes hold: one (m, N + 2) uniform block, then the m arrivals of
    ``config.arrivals``. Row i of the block belongs to node i: column 0 is
    its epsilon test, column 1 its exploring pick or greedy tie-break (both
    go to ``select_action``), and the argsort of columns 2.. ranks the
    slots, so its a replicas sit in its first min(a, N) ranks. Rows of
    silent nodes go unused. A plan that ``train`` drew a chunk ahead
    yields the same draws as frame-by-frame calls on the generator.

    Nodes with an empty buffer stay silent: they get reward 0 and no
    Q-update for the frame, but arrivals still land and their histories
    still shift.
    """
    params = config.params
    n_slots = config.n_slots
    cap = params.B
    m = len(nodes)

    if isinstance(plan, np.random.Generator):
        plan = FramePlan(config, plan, m)
    explore, pick, ranks, arrivals = plan.next_frame()

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
    for a fixed config seed.
    """
    rng = np.random.default_rng(config.seed)
    nodes = new_nodes(config)
    plan = FramePlan(config, rng, len(nodes), 0)

    record = RunRecord(config=config)
    for _ in range(config.episodes):
        reset_episode(nodes, config.params, rng)
        plan.start(config.iters_per_episode)
        recent: list[float] = []
        for _ in range(config.iters_per_episode):
            result = step_frame(nodes, config, plan)
            mean_reward = result.mean_reward
            recent.append(mean_reward)
            resets = 0
            if detect_bad_episode(recent):
                plan.rewind()
                reset_episode(nodes, config.params, rng)
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
    two-sided confidence level of the returned interval, checked before any
    draw. The interval's bounds are computed, and scipy loaded, only when
    ``ci_low`` or ``ci_high`` is first read: a caller that reads only
    ``mean``, ``stderr`` and ``n`` loads no scipy.
    """
    if trials < 1:
        raise ConfigurationError("need at least one trial")
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
