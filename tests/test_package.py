import os
import re
import subprocess
import sys
import types
from pathlib import Path

import invatoms
import invatoms.braid as br
import invatoms.coxeter as cx
import invatoms.orders as od
import invatoms.twisted as tw
import invatoms.typea as ta

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_no_submodules():
    assert invatoms.__all__
    for name in invatoms.__all__:
        assert not isinstance(getattr(invatoms, name), types.ModuleType), name


def test_version_and_dependencies_match_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"', text, re.M).group(1) == invatoms.__version__
    assert re.search(r"^dependencies = \[\]$", text, re.M)


def _run_fresh(code):
    """Run code in a fresh interpreter that imports invatoms from src."""
    src = os.path.dirname(os.path.dirname(invatoms.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_cli_import_does_not_load_numpy():
    _run_fresh("import invatoms.cli, sys; assert 'numpy' not in sys.modules")


def test_public_names_are_the_objects_of_their_modules():
    # names resolve on first use, one submodule at a time
    _run_fresh(
        "import sys, invatoms\n"
        "assert [m for m in sys.modules if m.startswith('invatoms.')] == []\n"
        "assert invatoms.__version__\n"
        "assert invatoms.atoms_perm is sys.modules['invatoms.typea'].atoms_perm\n"
        "assert 'invatoms.twisted' not in sys.modules\n"
        "for name in invatoms.__all__:\n"
        "    obj = getattr(invatoms, name)\n"
        "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
        "    assert obj.__module__.startswith('invatoms.'), name\n"
        "star = {}\n"
        "exec('from invatoms import *', star)\n"
        "assert all(star[name] is getattr(invatoms, name) for name in invatoms.__all__)\n"
        "assert len(set(invatoms.__all__)) == len(invatoms.__all__)\n")


def test_dir_lists_the_public_names_and_unknown_names_raise():
    _run_fresh(
        "import invatoms\n"
        "assert set(invatoms.__all__) <= set(dir(invatoms))\n"
        "assert '__version__' in dir(invatoms)\n"
        "try:\n"
        "    invatoms.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
        "assert not hasattr(invatoms, 'twisted_involutions')\n")


def test_every_whole_set_checker_reports_in_the_one_schema():
    b3 = cx.build_system("B3")
    w0 = b3.longest_element()  # central in B3
    reports = [tw.check_conjecture(b3), tw.check_duality(b3, w0), tw.check_central_closure(b3, w0),
               tw.check_bruhat_descriptions(b3), br.check_braid_classes(b3),
               br.check_fc_atoms(b3), od.verify_chinese(4), od.verify_fpf(4),
               ta.check_sigma_conjecture(n_max=3)]
    for report in reports:
        keys = list(report)
        assert keys[0] == "system" and keys[-2:] == ["pairs_checked", "failures"], keys
        assert report["pairs_checked"] > 0 and report["failures"] == []
    assert [r["system"] for r in reports] == ["B3"] * 6 + ["S4", "S4", "symmetric groups up to S_3"]
