import os
import re
import subprocess
import sys
import types
from pathlib import Path

import invatoms

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_no_submodules():
    assert invatoms.__all__
    for name in invatoms.__all__:
        assert not isinstance(getattr(invatoms, name), types.ModuleType), name


def test_version_and_dependencies_match_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"', text, re.M).group(1) == invatoms.__version__
    assert re.search(r"^dependencies = \[\]$", text, re.M)


def test_cli_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(invatoms.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import invatoms.cli, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
