import csv
import hashlib
import json
import os

import numpy as np
import pytest

from irsa_rl import cli, config as configmod, env
from irsa_rl.agent import LearningParams
from irsa_rl.cli import main
from irsa_rl.config import build_sweep_spec, build_train_config, parse_config_file
from irsa_rl.env import ConfigurationError, TrainConfig
from irsa_rl.harness import FIXED_POLICIES


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
    "n_nodes": "3",
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
    # an explicit node count lets load = 0 through TrainConfig; the run
    # must fail on it instead of silently measuring some other load
    cfg = write_config(tmp_path, "load = 0\nn_nodes = 7\n")
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
    ],
    ids=["train", "sweep"],
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
}


@pytest.mark.parametrize("command", sorted(_PINNED_RUNS))
def test_cli_outputs_are_pinned(tmp_path, command):
    csv_name, text, flags, digest = _PINNED_RUNS[command]
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / command)
    assert main([command, "--config", cfg, "--out", out] + flags) == 0
    with open(os.path.join(out, csv_name), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest
