"""Key-value run configuration files.

Format: one ``key = value`` pair per line, each key at most once; blank lines
and ``#`` comments are ignored. Lists are comma-separated. ``KEYS`` below is
the one table of recognised keys: each maps to a field of ``TrainConfig``,
``ArrivalModel``, ``LearningParams`` or ``SweepSpec`` and the parser of its
value. The builders apply a file's keys to a base instance; a key that is
absent leaves the base's value in place.
"""

from dataclasses import replace

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


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
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
                if key in values:
                    raise ConfigurationError(
                        f"{path}:{lineno}: key {key!r} already set on line {first_line[key]}"
                    )
                values[key], first_line[key] = value, lineno
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc
    return values


def _build(base, values: dict[str, str], **fields):
    """``base`` with the keys of ``values`` that map to its class, plus ``fields``."""
    for key, (cls, field, parse) in KEYS.items():
        if cls is type(base) and key in values:
            try:
                fields[field] = parse(values[key])
            except ValueError as exc:
                raise ConfigurationError(f"bad value for {key!r}: {values[key]!r}") from exc
    try:
        return replace(base, **fields)
    except ValueError as exc:  # LearningParams raises plain ValueErrors
        raise ConfigurationError(str(exc)) from exc


def build_train_config(values: dict[str, str], base: TrainConfig = TrainConfig()) -> TrainConfig:
    params, arrivals = _build(base.params, values), _build(base.arrivals, values)
    return _build(base, values, params=params, arrivals=arrivals)


def build_sweep_spec(values: dict[str, str], base: SweepSpec = SweepSpec()) -> SweepSpec:
    return _build(base, values)
