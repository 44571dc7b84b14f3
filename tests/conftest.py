"""Fixtures shared across the test modules."""

import os
import subprocess
import sys

import pytest

import normapprox


@pytest.fixture
def fresh_python():
    """Run ``python *args`` in a new interpreter with output captured as text.

    The child imports the same ``normapprox`` as this process: the directory
    that holds the package goes first on PYTHONPATH, ahead of the caller's
    own entries, which it keeps.
    """
    src = os.path.dirname(os.path.dirname(normapprox.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)

    def run(*args, timeout=60, **kwargs):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=timeout, **kwargs)
    return run
