"""Module layering: importing a lower layer loads none of the layers above it.

``core`` is the frame physics and imports no other package module; ``env``
drives training on top of ``core``, ``agent``, ``virtual`` and ``stats``, and
must not pull in the experiment harness, the config parser, the CLI or the
process pool. The CLI loads the process pool only when a command runs with
more than one worker, so no command pays for it at start-up. The package ``__init__`` re-exports nothing, so importing a
submodule loads only what that submodule imports.
"""

import json
from pathlib import Path
import subprocess
import sys

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

_LOADED = """
import json, sys
sys.path.insert(0, {src!r})
import {module}
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_by(module: str) -> set:
    """The modules a fresh interpreter holds after ``import module``."""
    # A fresh process: this one already holds every package module.
    done = subprocess.run(
        [sys.executable, "-c", _LOADED.format(src=str(SRC_DIR), module=module)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_core_loads_no_other_package_module():
    loaded = _loaded_by("irsa_rl.core")
    assert {m for m in loaded if m.startswith("irsa_rl.")} == {"irsa_rl.core"}


def test_env_loads_no_harness_config_cli_or_process_pool():
    loaded = _loaded_by("irsa_rl.env")
    upper = {"irsa_rl.harness", "irsa_rl.config", "irsa_rl.cli", "concurrent.futures"}
    assert not loaded & upper, sorted(loaded & upper)


def test_cli_loads_no_process_pool():
    loaded = _loaded_by("irsa_rl.cli")
    pool = {"concurrent.futures.process", "multiprocessing"}
    assert not loaded & pool, sorted(loaded & pool)
