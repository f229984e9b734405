import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import crystalflex as cf

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_names_resolve_to_public_api():
    assert len(cf.__all__) == len(set(cf.__all__))
    for name in cf.__all__:
        value = getattr(cf, name)
        assert not isinstance(value, types.ModuleType), name


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
