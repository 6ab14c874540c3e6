"""Key-value run configuration files.

Format: one ``key = value`` pair per line; blank lines and ``#`` comments are
ignored. Lists are comma-separated. ``KEYS`` below is the one table of
recognised keys: each maps to a field of ``TrainConfig``, ``ArrivalModel``,
``LearningParams`` or ``SweepSpec`` and the parser of its value. A key that is
absent leaves the dataclass default in place.
"""

from .agent import LearningParams
from .env import ArrivalModel, ConfigurationError, TrainConfig
from .harness import SweepSpec

__all__ = ["KEYS", "parse_config_file", "build_train_config", "build_sweep_spec"]


def _bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _list(cast):
    def parse(raw: str) -> tuple:
        raw = raw.strip()
        return tuple(cast(part.strip()) for part in raw.split(",")) if raw else ()

    return parse


#: config key -> (dataclass, field, value parser)
KEYS = {
    # run
    "n_slots": (TrainConfig, "n_slots", int),
    "load": (TrainConfig, "load", float),
    "n_nodes": (TrainConfig, "n_nodes", int),
    "episodes": (TrainConfig, "episodes", int),
    "iters_per_episode": (TrainConfig, "iters_per_episode", int),
    "virtual_experience": (TrainConfig, "virtual_experience", _bool),
    "arrival_kind": (ArrivalModel, "kind", str),
    "arrival_param": (ArrivalModel, "param", float),
    "seed": (TrainConfig, "seed", int),
    # agent
    "buffer": (LearningParams, "B", int),
    "window": (LearningParams, "w", int),
    "max_replicas": (LearningParams, "d", int),
    "epsilon": (LearningParams, "epsilon", float),
    "gamma": (LearningParams, "gamma", float),
    "alpha_base": (LearningParams, "alpha_base", float),
    "alpha_decay": (LearningParams, "alpha_decay", float),
    "alpha_schedule": (LearningParams, "alpha_schedule", str),
    "phi": (LearningParams, "phi", float),
    # sweep
    "loads": (SweepSpec, "loads", _list(float)),
    "frame_sizes": (SweepSpec, "frame_sizes", _list(int)),
    "variants": (SweepSpec, "variants", _list(str)),
    "repetitions": (SweepSpec, "repetitions", int),
    "trials": (SweepSpec, "trials", int),
    "ci_level": (SweepSpec, "level", float),
}
_ALL_KEYS = frozenset(KEYS)

# SweepSpec has no default load grid: G = 0.1, 0.2, ..., 1.0.
_DEFAULT_LOADS = tuple(round(g * 0.1, 1) for g in range(1, 11))


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


def _build(owner, values: dict[str, str], **fields):
    """``owner`` built from the keys of ``values`` that map to it, plus ``fields``."""
    for key, (cls, field, parse) in KEYS.items():
        if cls is owner and key in values:
            try:
                fields[field] = parse(values[key])
            except ValueError as exc:
                raise ConfigurationError(f"bad value for {key!r}: {values[key]!r}") from exc
    try:
        return owner(**fields)
    except ValueError as exc:  # LearningParams raises plain ValueErrors
        raise ConfigurationError(str(exc)) from exc


def build_train_config(values: dict[str, str], seed=None) -> TrainConfig:
    """The run configuration; ``seed``, when given, overrides the seed key."""
    if seed is not None:
        values = {**values, "seed": str(seed)}
    return _build(
        TrainConfig,
        values,
        params=_build(LearningParams, values),
        arrivals=_build(ArrivalModel, values),
    )


def build_sweep_spec(values: dict[str, str]) -> SweepSpec:
    return _build(SweepSpec, values, loads=_DEFAULT_LOADS)
