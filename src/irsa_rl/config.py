"""Key-value run configuration files.

Format: one ``key = value`` pair per line; blank lines and ``#`` comments are
ignored. Lists are comma-separated. Recognized keys:

  run:    n_slots, load, n_nodes, episodes, iters_per_episode,
          virtual_experience, arrival_kind, arrival_param, seed
  agent:  buffer, window, max_replicas, epsilon, gamma, alpha_base,
          alpha_decay, alpha_schedule, phi
  sweep:  loads, frame_sizes, variants, repetitions, trials, ci_level
"""

from .agent import LearningParams
from .env import ArrivalModel, ConfigurationError, TrainConfig
from .harness import SweepSpec

__all__ = ["parse_config_file", "build_train_config", "build_sweep_spec"]

_RUN_KEYS = {
    "n_slots",
    "load",
    "n_nodes",
    "episodes",
    "iters_per_episode",
    "virtual_experience",
    "arrival_kind",
    "arrival_param",
    "seed",
}
_AGENT_KEYS = {
    "buffer",
    "window",
    "max_replicas",
    "epsilon",
    "gamma",
    "alpha_base",
    "alpha_decay",
    "alpha_schedule",
    "phi",
}
_SWEEP_KEYS = {"loads", "frame_sizes", "variants", "repetitions", "trials", "ci_level"}
_ALL_KEYS = _RUN_KEYS | _AGENT_KEYS | _SWEEP_KEYS


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}"
                    )
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _ALL_KEYS:
                    raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc
    return values


def _get(values, key, cast, default):
    if key not in values:
        return default
    raw = values[key]
    try:
        if cast is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key!r}: {raw!r}") from exc


def _get_list(values, key, cast, default):
    if key not in values:
        return default
    raw = values[key].strip()
    if not raw:
        return ()
    try:
        return tuple(cast(part.strip()) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad list value for {key!r}: {values[key]!r}") from exc


def build_learning_params(values: dict[str, str]) -> LearningParams:
    defaults = LearningParams()
    return LearningParams(
        epsilon=_get(values, "epsilon", float, defaults.epsilon),
        gamma=_get(values, "gamma", float, defaults.gamma),
        alpha_base=_get(values, "alpha_base", float, defaults.alpha_base),
        alpha_decay=_get(values, "alpha_decay", float, defaults.alpha_decay),
        w=_get(values, "window", int, defaults.w),
        B=_get(values, "buffer", int, defaults.B),
        d=_get(values, "max_replicas", int, defaults.d),
        alpha_schedule=_get(values, "alpha_schedule", str, defaults.alpha_schedule),
        phi=_get(values, "phi", float, defaults.phi),
    )


def build_train_config(values: dict[str, str], seed=None) -> TrainConfig:
    defaults = TrainConfig()
    arrivals = ArrivalModel(
        kind=_get(values, "arrival_kind", str, defaults.arrivals.kind),
        param=_get(values, "arrival_param", float, defaults.arrivals.param),
    )
    return TrainConfig(
        n_slots=_get(values, "n_slots", int, defaults.n_slots),
        load=_get(values, "load", float, defaults.load),
        params=build_learning_params(values),
        episodes=_get(values, "episodes", int, defaults.episodes),
        iters_per_episode=_get(values, "iters_per_episode", int, defaults.iters_per_episode),
        virtual_experience=_get(values, "virtual_experience", bool, defaults.virtual_experience),
        arrivals=arrivals,
        n_nodes=_get(values, "n_nodes", int, None),
        seed=seed if seed is not None else _get(values, "seed", int, defaults.seed),
    )


def build_sweep_spec(values: dict[str, str]) -> SweepSpec:
    return SweepSpec(
        loads=_get_list(values, "loads", float, tuple(round(g * 0.1, 1) for g in range(1, 11))),
        frame_sizes=_get_list(values, "frame_sizes", int, (10,)),
        variants=_get_list(values, "variants", str, ("slotted_aloha", "vanilla_irsa", "dec_rl")),
        repetitions=_get(values, "repetitions", int, 20),
        trials=_get(values, "trials", int, 250),
        level=_get(values, "ci_level", float, 0.975),
    )
