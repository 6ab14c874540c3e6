"""Student-t intervals: exactness, input contract and start-up cost.

A ``stats.Summary`` takes its quantile from ``scipy.special.stdtrit`` and
imports it on the first read of a bound, so importing the package, running
``train`` and reading an evaluation's mean load no scipy submodule. These
tests check that the quantile equals ``scipy.stats.t.ppf`` bit for bit, that
inputs are consumed once or rejected, and when scipy loads.
"""

import ast
import json
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as sps

from irsa_rl.stats import Summary, t_interval

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "irsa_rl"

LEVELS = (0.01, 0.1, 0.25, 0.5, 0.68, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999)
DFS = (*range(1, 399), 999, 4999, 99999)


# --- exactness ------------------------------------------------------------------


def _zero_mean_samples(n):
    """n samples of exact mean 0.0 (alternating -1, +1, with a 0 when n is odd),
    so that ci_high is exactly the half-width."""
    x = np.ones(n)
    x[1::2] = -1.0
    if n % 2:
        x[-1] = 0.0
    return x


def test_half_width_equals_scipy_stats_t_ppf_bit_for_bit():
    reference = sps.t.ppf(0.5 + np.array(LEVELS)[:, None] / 2.0, np.array(DFS)[None, :])
    mismatches = []
    for j, df in enumerate(DFS):
        x = _zero_mean_samples(df + 1)
        for i, level in enumerate(LEVELS):
            s = t_interval(x, level)
            assert s.mean == 0.0 and s.n == df + 1
            if s.ci_high != float(reference[i, j]) * s.stderr:
                mismatches.append((level, df))
    assert not mismatches, mismatches[:10]


def test_single_sample_has_an_infinite_interval():
    s = t_interval([2.5])
    assert s == Summary(2.5, np.inf, 0.975, 1)
    assert s.ci_low == -np.inf and s.ci_high == np.inf


@pytest.mark.parametrize("level", (0.0, 1.0, -0.5, 1.5))
def test_level_outside_open_unit_interval_is_rejected(level):
    with pytest.raises(ValueError, match="confidence level"):
        t_interval([1.0, 2.0], level)


# --- input contract -------------------------------------------------------------


SAMPLES = [0.3, 0.1, 0.4, 0.1, 0.5, 0.9, 0.2]


@pytest.mark.parametrize(
    "make", (iter, lambda xs: (x for x in xs), lambda xs: map(float, xs)),
    ids=("iter", "generator", "map"),
)
def test_iterator_is_consumed_once_like_its_list(make):
    once, listed = t_interval(make(SAMPLES), 0.9), t_interval(SAMPLES, 0.9)
    assert once == listed
    assert (once.ci_low, once.ci_high) == (listed.ci_low, listed.ci_high)


def test_exhausted_iterator_has_no_samples():
    it = iter(SAMPLES)
    t_interval(it)
    with pytest.raises(ValueError, match="at least one sample"):
        t_interval(it)


@pytest.mark.parametrize(
    "samples",
    ([[1.0, 2.0], [3.0, 4.0]], np.ones((2, 3)), 3.0, np.float64(3.0)),
    ids=("nested-list", "2d-array", "float", "0d"),
)
def test_input_that_is_not_one_dimensional_is_rejected(samples):
    with pytest.raises(ValueError, match="one-dimensional"):
        t_interval(samples)


# --- start-up cost -----------------------------------------------------------------


def _load_time_imports(tree):
    """Modules a parsed file imports when it loads: everything outside a
    function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def test_load_time_import_scan_sees_nested_but_not_function_imports():
    tree = ast.parse(
        "import os\n"
        "try:\n    from scipy import stats\nexcept ImportError:\n    pass\n"
        "def f():\n    import scipy.special\n"
    )
    assert sorted(_load_time_imports(tree)) == ["os", "scipy"]


def test_no_package_module_imports_scipy_when_it_loads():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert paths
    offenders = [
        (path.name, module)
        for path in paths
        for module in _load_time_imports(ast.parse(path.read_text()))
        if module == "scipy" or module.startswith("scipy.")
    ]
    assert not offenders, offenders


_START_PATH = """
import json, sys
sys.path.insert(0, {src!r})
import numpy as np
from irsa_rl import cli
from irsa_rl.core import BASELINE_IRSA
from irsa_rl.env import TrainConfig, evaluate

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

code = cli.main(["train", "--config", {cfg!r}, "--out", {out!r}])
after_train = loaded("scipy")
s = evaluate(BASELINE_IRSA, TrainConfig(load=0.5), 50, np.random.default_rng(1))
s.mean, s.stderr, s.n
after_mean = loaded("scipy")
s.ci_low
print(json.dumps({{
    "code": code,
    "after_train": after_train,
    "after_mean": after_mean,
    "special": bool(loaded("scipy.special")),
    "stats": loaded("scipy.stats"),
}}))
"""


def test_train_loads_no_scipy_and_an_interval_loads_only_special(tmp_path):
    # A fresh process: this one already holds scipy.stats through other tests.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("load = 0.5\nepisodes = 1\niters_per_episode = 5\nseed = 1\n")
    script = _START_PATH.format(
        src=str(PACKAGE_DIR.parent), cfg=str(cfg), out=str(tmp_path / "run")
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["after_train"] == []
    assert result["after_mean"] == []
    assert result["special"]
    assert result["stats"] == []
