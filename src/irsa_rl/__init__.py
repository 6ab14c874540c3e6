"""IRSA random-access simulation with decentralized Q-learning of replica counts."""

from .core import (
    BASELINE_IRSA,
    PURE_ALOHA,
    DecodeOutcome,
    DegreeDistribution,
    place_replicas,
    sample_degree,
    simulate_frame,
    slotted_aloha_throughput,
    uniform_distribution,
)
from .agent import (
    LearningParams,
    NoExperienceError,
    QTable,
    extract_policy,
    learning_rate,
    q_update,
    reward,
    select_action,
)
from .virtual import batch_update, enumerate_class, transform
from .env import (
    ArrivalModel,
    ConfigurationError,
    NodeState,
    RunRecord,
    TrainConfig,
    deployed_policies,
    detect_bad_episode,
    evaluate,
    reset_episode,
    step_frame,
    train,
)
from .harness import (
    SweepSpec,
    compare_virtual,
    convergence_report,
    emit_report,
    epsilon_convergence_time,
    run_sweep,
    waterfall_suite,
)
from .stats import Summary, t_interval

__version__ = "0.1.0"
