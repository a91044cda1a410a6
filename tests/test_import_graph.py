"""Every ``repro`` subpackage imports cleanly as the first import of a
fresh interpreter: the package import graph has no cycle that only
some import orders happen to dodge."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = sorted(info.name for info in pkgutil.iter_modules(repro.__path__)
                     if info.ispkg)


def test_every_subpackage_is_listed():
    assert {"core", "runtime", "shard", "sim", "tools"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first_in_fresh_interpreter(name):
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
