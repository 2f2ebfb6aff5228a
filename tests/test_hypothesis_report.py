"""A failing property reports its example under ``-X dev -W error``, as CI runs the suite."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_failing_property_prints_its_example_not_an_internal_error(tmp_path):
    # Hypothesis writes its patch of the failing example through libcst; without libcst there is no patch to write.
    pytest.importorskip("libcst")
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    argv = [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider", "test_fails.py"]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed" in out
