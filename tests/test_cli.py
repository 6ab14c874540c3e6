import csv
from dataclasses import fields, replace
import hashlib
import inspect
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irsa_rl import cli, config as configmod, env, harness
from irsa_rl.agent import LearningParams
from irsa_rl.cli import main
from irsa_rl.config import build_sweep_spec, build_train_config, parse_config_file
from irsa_rl.env import ConfigurationError, TrainConfig
from irsa_rl.core import BASELINE_IRSA
from irsa_rl.harness import CONVERGENCE, FIXED_POLICIES, SweepSpec


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


# --- config files ------------------------------------------------------------


def test_parse_config_roundtrip(tmp_path):
    path = write_config(
        tmp_path,
        """
        # comment line
        n_slots = 10
        load = 0.7
        buffer = 5
        window = 4
        max_replicas = 4
        epsilon = 0.05
        gamma = 0.98
        episodes = 5
        iters_per_episode = 30
        virtual_experience = true
        arrival_kind = bernoulli
        arrival_param = 0.5
        seed = 9
        loads = 0.2, 0.5
        variants = slotted_aloha, vanilla_irsa
        repetitions = 3
        trials = 40
        """,
    )
    values = parse_config_file(path)
    cfg = build_train_config(values)
    assert cfg.load == 0.7
    assert cfg.params.d == 4
    assert cfg.virtual_experience is True
    assert cfg.seed == 9
    spec = build_sweep_spec(values)
    assert spec.loads == (0.2, 0.5)
    assert spec.variants == ("slotted_aloha", "vanilla_irsa")
    assert spec.repetitions == 3


def test_parse_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, "wibble = 3\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(path)


def test_cli_rejects_a_key_given_twice(tmp_path, capsys):
    # the last value used to win: this file trained at G = 0.9 and exited 0
    cfg = write_config(tmp_path, "load = 0.3\nepisodes = 1\nload = 0.9\n")
    out = str(tmp_path / "x")
    assert main(["train", "--config", cfg, "--out", out]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["kind"] == "configuration"
    assert payload["error"].endswith(":3: key 'load' already set on line 1")
    assert not os.path.exists(out)


def test_parse_config_rejects_bad_syntax(tmp_path):
    path = write_config(tmp_path, "load 0.5\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(path)


def test_parse_config_rejects_bad_value(tmp_path):
    path = write_config(tmp_path, "load = fast\n")
    with pytest.raises(ConfigurationError):
        build_train_config(parse_config_file(path))


# One non-default value per recognised key.
_NON_DEFAULT_VALUES = {
    "n_slots": "20",
    "load": "0.7",
    "episodes": "7",
    "iters_per_episode": "11",
    "virtual_experience": "true",
    "arrival_kind": "poisson",
    "arrival_param": "0.25",
    "seed": "9",
    "buffer": "6",
    "window": "3",
    "max_replicas": "5",
    "epsilon": "0.1",
    "gamma": "0.9",
    "alpha_base": "1.5",
    "alpha_decay": "0.8",
    "alpha_schedule": "polynomial",
    "phi": "0.7",
    "loads": "0.2, 0.4",
    "frame_sizes": "12",
    "variants": "dec_rl",
    "repetitions": "3",
    "trials": "40",
    "ci_level": "0.9",
}


def test_every_config_key_changes_the_built_config():
    # a key that is parsed but reaches neither the run nor the sweep
    # configuration would leave both equal to the defaults
    assert set(_NON_DEFAULT_VALUES) == configmod._ALL_KEYS
    defaults = (build_train_config({}), build_sweep_spec({}))
    for key, value in _NON_DEFAULT_VALUES.items():
        values = {key: value}
        assert (build_train_config(values), build_sweep_spec(values)) != defaults, key


def test_config_keys_map_one_to_one_onto_the_leaf_fields():
    # every field a config file can set has exactly one key, and no key
    # names a field that is gone
    targets = [(cls, field) for cls, field, _ in configmod.KEYS.values()]
    leaves = [
        (cls, f.name)
        for cls in (TrainConfig, LearningParams, env.ArrivalModel, harness.SweepSpec)
        for f in fields(cls)
        if (cls, f.name) not in ((TrainConfig, "params"), (TrainConfig, "arrivals"))
    ]
    assert len(set(targets)) == len(targets)
    assert set(targets) == set(leaves)


def test_config_seed_override(tmp_path):
    # --seed overrides the file's seed key: the run equals one seeded by the file
    traces = []
    for name, seed_line, flags in (
        ("flag", "seed = 5\n", ["--seed", "77"]),
        ("file", "seed = 77\n", []),
    ):
        cfg = write_config(tmp_path, "load = 0.3\nepisodes = 2\n" + seed_line)
        out = str(tmp_path / name)
        assert main(["train", "--config", cfg, "--out", out] + flags) == 0
        with open(os.path.join(out, "trace.csv"), "rb") as fh:
            traces.append(fh.read())
    assert traces[0] == traces[1]


# --- CLI ------------------------------------------------------------------------


def test_cli_train_then_eval(tmp_path, capsys):
    cfg = write_config(tmp_path, "load = 0.5\nepisodes = 3\nseed = 1\n")
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "node_000.qtable"))
    assert os.path.exists(os.path.join(out, "trace.csv"))
    header = open(os.path.join(out, "trace.csv")).readline().strip()
    assert header == "trial,episode,iteration,mean_reward,throughput,resets"

    code = main(["eval", "--config", cfg, "--qtables", out, "--trials", "200"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "throughput" in printed


def test_cli_eval_named_variant(tmp_path, capsys):
    cfg = write_config(tmp_path, "load = 0.5\n")
    assert main(["eval", "--config", cfg, "--variant", "vanilla_irsa",
                 "--trials", "300"]) == 0
    assert "throughput" in capsys.readouterr().out


def test_cli_sweep_writes_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        "loads = 0.4\nvariants = slotted_aloha, random_strategy\n"
        "repetitions = 2\ntrials = 30\n",
    )
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out, "--seed", "3"]) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert len(lines) == 3  # header + 2 variants x 1 load


def test_cli_sweep_flags_override_config(tmp_path):
    cfg = write_config(
        tmp_path,
        "loads = 0.4\nvariants = vanilla_irsa\nrepetitions = 5\ntrials = 500\n",
    )
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out, "--seed", "3",
                 "--reps", "2", "--trials", "30",
                 "--variant", "slotted_aloha,random_strategy"]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["variant"] for r in rows] == ["slotted_aloha", "random_strategy"]
    assert all(r["repetitions"] == "2" and r["trials"] == "30" for r in rows)


def test_cli_sweep_reproducible(tmp_path):
    cfg = write_config(
        tmp_path,
        "loads = 0.5\nvariants = random_strategy\nrepetitions = 2\ntrials = 25\n",
    )
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["sweep", "--config", cfg, "--out", out, "--seed", "11"]) == 0
        outs.append(open(os.path.join(out, "sweep.csv"), "rb").read())
    assert outs[0] == outs[1]


def test_cli_unknown_variant_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "variants = hovercraft\nloads = 0.5\n")
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err.splitlines()[-1])
    assert payload["kind"] == "configuration"
    assert "hovercraft" in payload["error"]


def test_cli_rejects_load_schedule_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "load = 0.5\nload_schedule = 0:0.5, 25:0.9\n")
    out = str(tmp_path / "x")
    assert main(["train", "--config", cfg, "--out", out]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["kind"] == "configuration"
    assert "load_schedule" in payload["error"]
    assert not os.path.exists(out)


def test_cli_virtual_compare_rejects_zero_load(tmp_path, capsys):
    # the run must fail on load = 0 instead of silently measuring some
    # other load
    cfg = write_config(tmp_path, "load = 0\n")
    out = str(tmp_path / "vc")
    assert main(["virtual-compare", "--config", cfg, "--out", out,
                 "--reps", "1", "--trials", "5"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["kind"] == "configuration"
    assert not os.path.exists(out)


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["kind"] == "configuration"


def test_cli_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # Undecodable bytes used to escape as a UnicodeDecodeError traceback.
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 1\n\xff\xfe bad\n")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert str(path) in _config_error(capsys)["error"]


def test_cli_baseline_small(tmp_path, capsys):
    out = str(tmp_path / "bl")
    assert main(["baseline", "--trials", "4000", "--seed", "5", "--out", out]) == 0
    text = open(os.path.join(out, "summary.txt")).read()
    assert "check slotted_aloha_G0.2_within_2pct: PASS" in text


def test_cli_waterfall_small(tmp_path):
    cfg = write_config(
        tmp_path,
        "loads = 0.3\nepisodes = 4\nrepetitions = 2\ntrials = 40\n",
    )
    out = str(tmp_path / "wf")
    assert main(["waterfall", "--config", cfg, "--out", out, "--reps", "2",
                 "--trials", "40"]) == 0
    lines = open(os.path.join(out, "waterfall.csv")).read().splitlines()
    assert len(lines) == 1 + 4  # header + 3 schemes + envelope


@pytest.mark.parametrize(
    "bad_line", ["1,2", "0,0,0,0,two,-1.5,3"], ids=["short", "non_integer"]
)
def test_cli_eval_bad_checkpoint_is_config_error(tmp_path, capsys, bad_line):
    cfg = write_config(tmp_path, "load = 0.1\n")  # one node: node_000.qtable
    qdir = tmp_path / "tables"
    qdir.mkdir()
    path = qdir / "node_000.qtable"
    path.write_text("0,0,0,0,1,-1.0,2\n" + bad_line + "\n")
    code = main(["eval", "--config", cfg, "--qtables", str(qdir), "--trials", "10"])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["kind"] == "configuration"
    assert str(path) in payload["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--workers", "4"],
        ["baseline", "--workers", "2"],
        ["waterfall", "--workers", "2"],
        ["sweep", "--workers", "0"],
        ["train", "--workers", "-1"],
    ],
    ids=["train", "baseline", "waterfall", "sweep_zero", "negative"],
)
def test_cli_rejects_unusable_workers(tmp_path, capsys, argv):
    # a config small enough that a command ignoring the flag finishes at once
    cfg = write_config(
        tmp_path, "load = 0.1\nepisodes = 1\nloads = 0.1\nrepetitions = 1\n"
    )
    out = str(tmp_path / "x")
    assert main(argv + ["--config", cfg, "--trials", "1", "--out", out]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["kind"] == "configuration"
    assert "--workers" in payload["error"]
    assert not os.path.exists(out)  # rejected before any work


def _config_error(capsys) -> dict:
    """The JSON line of a configuration failure; nothing else on stderr."""
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1, err  # no usage text, no traceback
    payload = json.loads(err)
    assert payload["kind"] == "configuration"
    return payload


@pytest.mark.parametrize(
    "argv", [["train"], ["baseline", "--trials", "10"]], ids=["train", "baseline"]
)
def test_cli_out_naming_a_file_is_io_error(tmp_path, capsys, argv):
    # exit 1 with one JSON line of kind "io"; the file is left as it was
    out = tmp_path / "taken"
    out.write_text("keep\n")
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1, err  # no traceback
    payload = json.loads(err)
    assert payload["kind"] == "io"
    assert str(out) in payload["error"]
    assert out.read_text() == "keep\n"


def test_cli_waterfall_reads_ci_level(tmp_path):
    base = "loads = 0.3\nepisodes = 2\nrepetitions = 3\ntrials = 20\n"
    tables = []
    for name, extra in (("default", ""), ("narrow", "ci_level = 0.5\n")):
        cfg = write_config(tmp_path, base + extra)
        out = str(tmp_path / name)
        assert main(["waterfall", "--config", cfg, "--out", out, "--seed", "4"]) == 0
        with open(os.path.join(out, "waterfall.csv")) as fh:
            tables.append(list(csv.DictReader(fh)))
    default, narrow = tables
    for wide, tight in zip(default, narrow):
        assert tight["mean"] == wide["mean"]
        width = float(wide["ci_high"]) - float(wide["ci_low"])
        assert 0 < float(tight["ci_high"]) - float(tight["ci_low"]) < width


def test_cli_eval_rejects_checkpoint_wider_than_max_replicas(tmp_path, capsys):
    qdir = tmp_path / "tables"
    qdir.mkdir()
    path = qdir / "node_000.qtable"
    path.write_text("0,0,0,0,1,-1.0,2\n0,0,0,0,6,-0.5,3\n")  # action 6
    narrow = write_config(tmp_path, "load = 0.1\n")  # one node, d = 4
    assert main(["eval", "--config", narrow, "--qtables", str(qdir),
                 "--trials", "10"]) == 2
    assert str(path) in _config_error(capsys)["error"]
    wide = str(tmp_path / "wide.cfg")
    with open(wide, "w") as fh:
        fh.write("load = 0.1\nmax_replicas = 8\n")
    assert main(["eval", "--config", wide, "--qtables", str(qdir),
                 "--trials", "10"]) == 0


# The flags each subcommand reads; it must reject every other flag.
_ACCEPTED = {
    "baseline": {"config", "seed", "out", "trials"},
    "train": {"config", "seed", "out"},
    "eval": {"config", "seed", "trials", "variant", "qtables"},
    "sweep": {"config", "seed", "out", "trials", "reps", "workers", "variant"},
    "convergence": {"config", "seed", "out", "reps"},
    "virtual-compare": {"config", "seed", "out", "reps", "trials"},
    "waterfall": {"config", "seed", "out", "reps", "trials"},
}
_ALL_FLAGS = set().union(*_ACCEPTED.values())


def test_cli_flag_table():
    assert {name: set(c.flags) for name, c in cli._COMMANDS.items()} == _ACCEPTED
    assert sum(len(flags) for flags in _ACCEPTED.values()) == 33


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c, flags in _ACCEPTED.items() for f in sorted(_ALL_FLAGS - flags)],
)
def test_cli_rejects_unread_flags(tmp_path, capsys, command, flag):
    out = str(tmp_path / "x")
    argv = [command, f"--{flag}", "1"]
    if flag != "out" and "out" in _ACCEPTED[command]:
        argv += ["--out", out]
    assert main(argv) == 2
    assert f"--{flag}" in _config_error(capsys)["error"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", sorted(_ACCEPTED))
def test_cli_subcommand_help_prints_usage(capsys, command):
    # Every subparser used to hold a mutually exclusive group, empty unless
    # the command has exclusive flags, and argparse's usage formatter raises
    # ValueError("empty group") on an empty one.
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: irsa-rl {command} ")


def _asks_for_help(token: str) -> bool:
    """-h, --help, or an abbreviation argparse resolves to --help."""
    head = token.split("=", 1)[0]
    return head.startswith("-h") or (len(head) > 2 and "--help".startswith(head))


# Huge integers: past int64, and one past Python's 4300-digit int() limit.
_VALUES = st.sampled_from(
    ["0", "-1", "nan", "1e3", "", "2.5", "vanilla_irsa", "x", "9" * 5000]
) | st.integers(min_value=2**63, max_value=10**400).map(str)
_FLAG_NAMES = st.sampled_from(sorted(cli._FLAGS)) | st.sampled_from(
    ["bogus", "seeds", "s", "t", "r", "w", "v", "q", "c", "o", "", "-"]
)
_TOKENS = (
    _VALUES
    | _FLAG_NAMES.map(lambda name: f"--{name}")
    | st.tuples(_FLAG_NAMES, _VALUES).map(lambda pair: f"--{pair[0]}={pair[1]}")
    | st.sampled_from(["-", "--", "-x", "-1e3", "---seed"])
).filter(lambda token: not _asks_for_help(token))


@settings(max_examples=300)
@given(command=st.sampled_from(sorted(cli._COMMANDS)), tokens=st.lists(_TOKENS, max_size=6))
def test_cli_flag_fuzz_parses_or_is_config_error(command, tokens):
    # argparse's own exits (usage text, then SystemExit) would break the
    # JSON error contract; every argv must parse or raise ConfigurationError.
    try:
        args = cli._parse_args([command, *tokens])
    except ConfigurationError:
        return
    assert args.command == command
    assert set(cli._COMMANDS[command].flags) <= set(vars(args))


@pytest.mark.parametrize(
    "command,flag,value",
    [
        (c, f, v)
        for c, flags in _ACCEPTED.items()
        for f in ("trials", "reps", "workers")
        if f in flags
        for v in ("0", "-1")
    ]
    + [("eval", "trials", "abc"), ("sweep", "reps", "2.5")],
)
def test_cli_rejects_non_positive_counts(tmp_path, capsys, command, flag, value):
    out = str(tmp_path / "x")
    argv = [command, f"--{flag}", value]
    if "out" in _ACCEPTED[command]:
        argv += ["--out", out]
    assert main(argv) == 2
    assert f"--{flag}" in _config_error(capsys)["error"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("variant", ["slotted_aloha", "random_strategy"])
def test_cli_eval_fixed_variant_is_the_harness_policy(tmp_path, capsys, variant):
    cfg_path = write_config(tmp_path, "load = 0.6\nmax_replicas = 3\nseed = 4\n")
    assert main(["eval", "--config", cfg_path, "--variant", variant, "--trials", "200"]) == 0
    cfg = build_train_config(parse_config_file(cfg_path))
    s = env.evaluate(FIXED_POLICIES[variant](3), cfg, 200, np.random.default_rng(4))
    assert capsys.readouterr().out.startswith(f"throughput {s.mean:.4f} +- {s.stderr:.4f} ")


@pytest.mark.parametrize("variant", ["dec_rl", "csma"])
def test_cli_eval_rejects_a_variant_without_fixed_policy(capsys, variant):
    # A trained variant has no policy until its tables are loaded.
    assert main(["eval", "--variant", variant, "--trials", "10"]) == 2
    error = _config_error(capsys)["error"]
    assert repr(variant) in error
    for fixed in ("slotted_aloha", "vanilla_irsa", "random_strategy", "--qtables"):
        assert fixed in error


def test_cli_eval_variant_and_qtables_are_exclusive(tmp_path, capsys):
    assert main(["eval", "--variant", "vanilla_irsa", "--qtables", str(tmp_path)]) == 2
    assert "--qtables" in _config_error(capsys)["error"]


@pytest.mark.parametrize(
    "line",
    [
        "epsilon = 2",
        "alpha_schedule = cubic",
        "window = 0",
        "ci_level = 1.5",
        "seed = -1",
        "load = inf",
        "loads = 0.3, nan",
        "alpha_base = nan",
        "arrival_kind = poisson\narrival_param = inf",
        "gamma = 1.0",
        "phi = 0.5",
        "alpha_decay = 0",
        "n_slots = 0",
        "frame_sizes = 0",
        "repetitions = 0",
        "virtual_experience = maybe",
        "loads =",
        "frame_sizes =",
    ],
)
def test_cli_bad_config_value_is_config_error(tmp_path, capsys, line):
    cfg = write_config(tmp_path, "loads = 0.3\nepisodes = 1\n" + line + "\n")
    out = str(tmp_path / "x")
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    _config_error(capsys)
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "kind,param", [("poisson", "1e19"), ("poisson", "9.3e18"), ("deterministic", "1e19")]
)
def test_cli_arrival_param_too_large_is_config_error(tmp_path, capsys, kind, param):
    # numpy rejects such a Poisson mean ("lam value too large") and cannot
    # hold such a count in an int64 (OverflowError); train used to die there,
    # at the first arrival draw.
    cfg = write_config(
        tmp_path,
        "episodes = 1\niters_per_episode = 1\n"
        f"arrival_kind = {kind}\narrival_param = {param}\n",
    )
    out = str(tmp_path / "x")
    assert main(["train", "--config", cfg, "--out", out]) == 2
    _config_error(capsys)
    assert not os.path.exists(out)


def test_cli_buffer_beyond_2_53_is_config_error(tmp_path, capsys):
    # The episode reset draws levels in [0, B] as int64s, so a 20-digit B used
    # to end train with a numpy ValueError traceback and exit 1. Beyond 2**53
    # the levels are not exact float rewards either.
    cfg = write_config(
        tmp_path, "episodes = 1\niters_per_episode = 3\nbuffer = 10000000000000000000\n"
    )
    out = str(tmp_path / "x")
    assert main(["train", "--config", cfg, "--out", out]) == 2
    assert "2**53" in _config_error(capsys)["error"]
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "text",
    ["load = 1e308\n", "n_slots = 1000\nload = 1e306\n", f"n_slots = {'1' * 401}\n"],
    ids=["load", "product", "n_slots"],
)
def test_cli_eval_huge_load_times_slots_is_config_error(tmp_path, capsys, text):
    # round(load * n_slots) used to raise OverflowError out of main: the
    # product is infinite, or the int n_slots does not fit in a float.
    cfg = write_config(tmp_path, text)
    assert main(["eval", "--config", cfg, "--trials", "1"]) == 2
    assert "load * n_slots" in _config_error(capsys)["error"]


def test_cli_sweep_huge_load_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "loads = 1e308\nepisodes = 1\nvariants = vanilla_irsa\n")
    out = str(tmp_path / "x")
    assert main(["sweep", "--config", cfg, "--out", out, "--reps", "1", "--trials", "1"]) == 2
    assert "load * n_slots" in _config_error(capsys)["error"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("buffer,accepted", [(2**53 - 1, True), (2**53, False)])
def test_buffer_bound_is_2_53(buffer, accepted):
    values = {"buffer": str(buffer)}
    if accepted:
        assert build_train_config(values).params.B == buffer
    else:
        with pytest.raises(ConfigurationError, match="2\\*\\*53"):
            build_train_config(values)


def test_huge_max_replicas_is_config_error_naming_the_row_size():
    # Every visited history holds two Q-table rows of d entries: d = 1e8 with
    # three training frames used to run out of memory. Only the config is
    # built here; nothing trains.
    with pytest.raises(ConfigurationError, match="rows of 100000000 entries"):
        build_train_config({"max_replicas": "100000000", "episodes": "1"})
    cap = env._MAX_REPLICAS
    assert cap >= 8  # every preset, test and workload uses d <= 8
    assert build_train_config({"max_replicas": str(cap)}).params.d == cap
    with pytest.raises(ConfigurationError, match="Q-table rows"):
        TrainConfig(params=LearningParams(d=cap + 1))


@pytest.mark.parametrize(
    "command,text",
    [
        ("train", "virtual_experience = true\n"),
        ("sweep", "loads = 0.3\nvariants = slotted_aloha, dec_rl_virtual\n"),
        ("convergence", "loads = 0.3\n"),
        ("virtual-compare", ""),
    ],
    ids=["train", "sweep", "convergence", "virtual-compare"],
)
def test_cli_virtual_experience_with_window_1_is_config_error(
    tmp_path, capsys, command, text
):
    # Virtual updates key states by buffer differences, which a one-frame
    # window does not have; train used to die in virtual.transform.
    cfg = write_config(tmp_path, "window = 1\nepisodes = 1\n" + text)
    out = str(tmp_path / "x")
    assert main([command, "--config", cfg, "--out", out]) == 2
    assert "window" in _config_error(capsys)["error"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["sweep", "waterfall"])
def test_cli_seed_beyond_32_bits_is_config_error(tmp_path, capsys, command):
    # Experiment cells key the master seed as one 32-bit word, so 2**32 used
    # to run seed 0's streams and exit 0.
    cfg = write_config(tmp_path, "loads = 0.3\nepisodes = 1\nvariants = vanilla_irsa\n")
    out = str(tmp_path / "x")
    flags = ["--seed", "4294967296", "--reps", "1", "--trials", "5"]
    assert main([command, "--config", cfg, "--out", out] + flags) == 2
    assert "master seed" in _config_error(capsys)["error"]
    assert not os.path.exists(out)


# sha256 of the CSV each small run writes, computed on the stream of one
# fixed draw block per training frame and the float64-bit cell keys.
_PINNED_RUNS = {
    "sweep": (
        "sweep.csv",
        "loads = 0.3, 0.6\nepisodes = 2\nrepetitions = 5\ntrials = 500\n"
        "variants = slotted_aloha, vanilla_irsa, dec_rl, dec_rl_virtual, random_strategy\n",
        ["--seed", "5", "--reps", "2", "--trials", "20"],
        "e8b4e4d74dc25f75f6a6f3f0cf4aecf6743adc76d9a7ba48c14ff909d8d69a9d",
    ),
    "waterfall": (
        "waterfall.csv",
        "loads = 0.3, 0.6\nepisodes = 2\n",
        ["--seed", "5", "--reps", "2", "--trials", "20"],
        "dea7ab011ac730d39a7c6829420c02c6b5670db4ccddcb9e8b7289b4c73c3a02",
    ),
    "train": (
        "trace.csv",
        "load = 0.5\nepisodes = 3\nseed = 1\n",
        [],
        "b10477e6ab07b3028595ba8369c34fe91abe09b8e2ec97156e879c0f0d0849fc",
    ),
    "baseline": (
        "baseline.csv",
        "",
        ["--seed", "5", "--trials", "2000"],
        "b86ff064aa25d37b49e60c8b287b8d620f49bed724d792cb37ed45171be9eecd",
    ),
    "convergence": (
        "convergence.csv",
        "loads = 0.6\n",
        ["--seed", "5", "--reps", "2"],
        "061344c324b83cabfcdf839065c8c484d350ccb696e9d02362cf9a91f3653b37",
    ),
    "virtual-compare": (
        "virtual_compare.csv",
        "load = 0.6\n",
        ["--seed", "5", "--reps", "2", "--trials", "20"],
        "95aa6c985bf0ca4ec266a00e3035f2a554a12fabe9b7a742a283265d23848262",
    ),
}


@pytest.mark.parametrize("command", sorted(_PINNED_RUNS))
def test_cli_outputs_are_pinned(tmp_path, command):
    csv_name, text, flags, digest = _PINNED_RUNS[command]
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / command)
    assert main([command, "--config", cfg, "--out", out] + flags) == 0
    with open(os.path.join(out, csv_name), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


# --- one precedence rule: command default < config file < flag -----------------


class _Stop(Exception):
    """Raised by a recording stub: the command records its call and trains nothing."""


# The package call each command hands its run settings to.
_CALLEE = {
    "convergence": "convergence_report",
    "virtual-compare": "compare_virtual",
    "eval": "evaluate",
    "baseline": "simulate_slotted_aloha",
}


def _record(monkeypatch, command, returns=None):
    """Replace the command's callee in ``cli`` with a stub that records each
    call's arguments by name, defaults filled in. Without ``returns`` the
    stub stops the command at its first call."""
    name = _CALLEE[command]
    signature = inspect.signature(getattr(cli, name))
    calls = []

    def stub(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        if returns is None:
            raise _Stop
        return returns(**bound.arguments)

    monkeypatch.setattr(cli, name, stub)
    return calls


def _run_recorded(monkeypatch, tmp_path, command, argv, returns=None):
    calls = _record(monkeypatch, command, returns)
    if "out" in cli._COMMANDS[command].flags:
        argv = argv + ["--out", str(tmp_path / "out")]
    try:
        main([command] + argv)
    except _Stop:
        pass
    return calls


# (command, config line, the recorded value it sets, that value)
_FILE_KEYS = [
    ("convergence", "repetitions = 3", lambda call: call["spec"].repetitions, 3),
    ("convergence", "ci_level = 0.9", lambda call: call["spec"].level, 0.9),
    ("convergence", "window = 3", lambda call: call["base"].params.w, 3),
    ("convergence", "loads = 0.3, 0.5", lambda call: call["spec"].loads, (0.3, 0.5)),
    ("convergence", "seed = 9", lambda call: call["base"].seed, 9),
    ("virtual-compare", "repetitions = 3", lambda call: call["spec"].repetitions, 3),
    ("virtual-compare", "trials = 7", lambda call: call["spec"].trials, 7),
    ("virtual-compare", "ci_level = 0.9", lambda call: call["spec"].level, 0.9),
    ("virtual-compare", "max_replicas = 5", lambda call: call["base"].params.d, 5),
    ("virtual-compare", "load = 0.6", lambda call: call["base"].load, 0.6),
    ("virtual-compare", "seed = 9", lambda call: call["base"].seed, 9),
    ("eval", "trials = 7", lambda call: call["trials"], 7),
    ("eval", "ci_level = 0.9", lambda call: call["level"], 0.9),
    ("baseline", "trials = 7", lambda call: call["n_frames"], 7),
]


@pytest.mark.parametrize(
    "command,line,get,value", _FILE_KEYS, ids=[f"{c}-{l}" for c, l, _, _ in _FILE_KEYS]
)
def test_cli_config_file_reaches_the_experiment(monkeypatch, tmp_path, command, line, get, value):
    # convergence used to run 40 repetitions of its hard-wired preset,
    # virtual-compare 10 x 400, eval 1000 trials and baseline 100000 frames,
    # whatever the file said.
    calls = _run_recorded(monkeypatch, tmp_path, command,
                          ["--config", write_config(tmp_path, line + "\n")])
    assert calls and get(calls[0]) == value


# (command, config line, flag, flag value, the recorded value both set: a
# keyword of the call, or a field of its spec or base)
_FLAG_OVER_FILE = [
    ("convergence", "repetitions = 3", "--reps", "2", "repetitions"),
    ("convergence", "seed = 9", "--seed", "4", "seed"),
    ("virtual-compare", "repetitions = 3", "--reps", "2", "repetitions"),
    ("virtual-compare", "trials = 7", "--trials", "5", "trials"),
    ("virtual-compare", "seed = 9", "--seed", "4", "seed"),
    ("eval", "trials = 7", "--trials", "5", "trials"),
    ("baseline", "trials = 7", "--trials", "5", "n_frames"),
]


def _recorded(call, name):
    if name in call:
        return call[name]
    return next(getattr(call[k], name) for k in ("spec", "base") if hasattr(call[k], name))


@pytest.mark.parametrize("command,line,flag,value,argument", _FLAG_OVER_FILE)
def test_cli_flag_beats_config_file(monkeypatch, tmp_path, command, line, flag, value, argument):
    argv = ["--config", write_config(tmp_path, line + "\n"), flag, value]
    calls = _run_recorded(monkeypatch, tmp_path, command, argv)
    assert calls and _recorded(calls[0], argument) == int(value)


def test_cli_convergence_without_file_makes_the_default_calls(monkeypatch, tmp_path):
    calls = _run_recorded(monkeypatch, tmp_path, "convergence", [], returns=lambda **_: [])
    spec = SweepSpec(loads=(0.2, 0.4, 0.6, 0.7), repetitions=40, level=0.95)
    assert calls == [
        dict(spec=spec, base=replace(CONVERGENCE, virtual_experience=virtual), epsilon=0.5,
             bootstrap=200)
        for virtual in (False, True)
    ]


def test_cli_virtual_compare_without_file_makes_the_default_call(monkeypatch, tmp_path):
    calls = _run_recorded(monkeypatch, tmp_path, "virtual-compare", [])
    assert calls == [
        dict(spec=SweepSpec(repetitions=10, trials=400, level=0.975), base=CONVERGENCE,
             iteration_grid=(0, 150, 300, 600, 900, 1200, 1500))
    ]
    assert (CONVERGENCE.load, CONVERGENCE.seed) == (0.5, 0)


def _first_draws(rng) -> list:
    return rng.random(4).tolist()


def test_cli_eval_without_file_makes_the_default_call(monkeypatch, tmp_path):
    calls = _run_recorded(monkeypatch, tmp_path, "eval", [])
    (call,) = calls
    assert call["policy"] == [BASELINE_IRSA] * 5
    assert (call["config"], call["trials"]) == (TrainConfig(), 1000)
    assert _first_draws(call["rng"]) == _first_draws(np.random.default_rng(0))


def test_cli_baseline_without_file_makes_the_default_calls(monkeypatch, tmp_path):
    calls = _run_recorded(monkeypatch, tmp_path, "baseline", [],
                          returns=lambda n_frames, **_: np.zeros(n_frames))
    assert [(c["n_users"], c["n_slots"], c["n_frames"]) for c in calls] == [
        (200, 1000, 100_000), (500, 1000, 100_000), (1000, 1000, 100_000)
    ]
    assert _first_draws(calls[0]["rng"]) == _first_draws(np.random.default_rng(0))


@pytest.mark.parametrize("command", ["convergence", "virtual-compare"])
def test_cli_window_1_fails_before_training(monkeypatch, tmp_path, capsys, command):
    # The plain convergence pass used to train every load before the
    # virtual pass rejected the window.
    def train(config):
        raise AssertionError("trained before the window was checked")

    monkeypatch.setattr(harness, "train", train)
    cfg = write_config(tmp_path, "window = 1\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "window" in _config_error(capsys)["error"]


def test_cli_convergence_without_episodes_is_a_config_error(tmp_path, capsys):
    # An empty learning curve used to escape as a ValueError traceback.
    cfg = write_config(tmp_path, "loads = 0.5\nrepetitions = 2\nepisodes = 0\n")
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "episodes" in _config_error(capsys)["error"]


def test_cli_flags_that_set_a_config_key_have_no_flag_default():
    # A flag default would shadow the file's key: --trials and --reps once
    # ran 40 repetitions or 1000 trials whatever the file said.
    for name, command in cli._COMMANDS.items():
        for flag, default in command.flags.items():
            if cli._FLAGS[flag][1] and flag not in command.exclusive:
                assert default is None, (name, flag)
    assert all(c.flags.get(f) is None for c in cli._COMMANDS.values() for f in ("trials", "reps"))


def test_no_config_factory_under_src():
    # Every experiment takes its run settings as a base TrainConfig.
    package = Path(cli.__file__).parent
    for path in package.rglob("*.py"):
        assert "config_factory" not in path.read_text(), path
