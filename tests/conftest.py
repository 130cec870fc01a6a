"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import graftwood


def _python(args, **env):
    src = str(Path(graftwood.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


@pytest.fixture
def fresh_python():
    """Run a fresh interpreter on the package under test, with extra
    environment variables: ``fresh_python(args, **env)``."""
    return _python
