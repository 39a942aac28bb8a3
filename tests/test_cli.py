import json
import os
import subprocess
import sys
import time

import pytest

import invatoms.cli as cli
import invatoms.coxeter as cx
import invatoms.twisted as tw


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_atoms_golden(capsys):
    code, out, _ = run(capsys, "atoms", "--system", "A4",
                       "--x", "(1,3)(2,5)", "--y", "(1,4)(2,5)")
    assert code == 0
    assert json.loads(out) == {"atoms": [[3]]}


def test_hecke_golden(capsys):
    code, out, _ = run(capsys, "hecke", "--system", "A4",
                       "--x", "(1,3)(2,5)", "--y", "(1,4)(2,5)")
    assert code == 0
    assert json.loads(out) == {
        "hecke_atoms": [[3], [2, 3], [3, 2], [4, 3],
                        [2, 3, 2], [2, 4, 3], [4, 3, 2], [2, 4, 3, 2]],
    }


def test_atoms_accepts_one_line_notation(capsys):
    code, out, _ = run(capsys, "atoms", "--system", "A4",
                       "--x", "3,5,1,4,2", "--y", "[4,5,3,1,2]")
    assert code == 0
    assert json.loads(out)["atoms"] == [[3]]


def test_words_golden(capsys):
    code, out, _ = run(capsys, "words", "--system", "A4",
                       "--x", "(1,3)(2,5)", "--y", "(1,4)(2,5)")
    assert code == 0
    assert json.loads(out) == {"words": [[3]]}


def test_hecke_with_a_generator_word_target(capsys):
    code, out, _ = run(capsys, "hecke", "--system", "B3", "--y", "1,2,1")
    assert code == 0
    assert json.loads(out) == {"hecke_atoms": [[1, 2], [2, 1], [1, 2, 1]]}


def test_verify_conjecture_line(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "--system", "B3")
    assert code == 0
    assert "pairs_checked: 126, failures: 0" in out


def test_verify_auto_twist_runs_every_diagram_symmetry(capsys):
    # D4's order-three diagram automorphisms are not twists
    for name, twists in [("A3", ["id", "3,2,1"]),
                         ("D4", ["id", "1,2,4,3", "3,2,1,4", "4,2,3,1"])]:
        code, out, _ = run(capsys, "verify", "conjecture", "--system", name,
                           "--twist", "auto")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(twists)
        for line, twist in zip(lines, twists):
            assert "twist: %s," % twist in line


def test_verify_json_reports(capsys):
    code, out, _ = run(capsys, "verify", "braid", "--system", "A3", "--json")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["pairs_checked"] == 10
    assert reports[0]["failures"] == []


def test_verify_chinese_and_fpf(capsys):
    code, out, _ = run(capsys, "verify", "chinese", "--system", "A4")
    assert code == 0
    assert "classes: 26" in out
    code, out, _ = run(capsys, "verify", "chinese", "--system", "A5")
    assert code == 0
    assert out == ("system: S6, twist: id, classes: 76, involutions: 76, "
                   "pairs_checked: 76, failures: 0\n")
    code, out, _ = run(capsys, "verify", "fpf", "--system", "A5")
    assert code == 0
    assert "classes: 15" in out


def test_verify_failure_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "fc", "--system", "A1xA1",
                       "--twist", "perm:2,1")
    assert code == 1
    assert "failures: 1" in out


def test_poset_dot_golden(capsys):
    code, out, _ = run(capsys, "poset", "--fpf",
                       "--x", "(1,8)(2,3)(4,6)(5,7)", "--dot")
    assert code == 0
    assert out.startswith("digraph atoms {")
    assert '"18234657"' in out


def test_poset_json(capsys):
    code, out, _ = run(capsys, "poset", "--x", "(1,2)")
    assert code == 0
    blob = json.loads(out)
    assert blob["bottom"] == [2, 1]
    assert blob["elements"] == [[2, 1]]


def test_classes_verbs(capsys):
    code, out, _ = run(capsys, "classes", "--x", "3,1,2")
    assert code == 0
    assert json.loads(out) == {"class": [[2, 3, 1], [3, 1, 2], [3, 2, 1]]}
    code, out, _ = run(capsys, "classes", "--fpf", "--x", "2,1,4,3")
    assert code == 0
    assert json.loads(out)["class"] == [[1, 2, 3, 4], [1, 2, 4, 3],
                                        [2, 1, 3, 4], [2, 1, 4, 3]]


def test_sweep_matches_the_serial_checker(capsys):
    # a matrix text has no name, so both routes report it as "custom"
    for system in ("A2", "rank 3\n1 3 2\n3 1 3\n2 3 1"):
        code, serial, _ = run(capsys, "sweep", "--system", system, "--jobs", "1")
        assert code == 0
        code, parallel, _ = run(capsys, "sweep", "--system", system, "--jobs", "2")
        assert code == 0
        assert serial == parallel
    assert "custom" in serial


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a parallel sweep needs two CPUs")
def test_a_parallel_sweep_lists_failures_in_the_serial_order(capsys, monkeypatch):
    import multiprocessing
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("only forked workers inherit the patch")
    monkeypatch.setattr(tw, "_scan", lambda t, row, chain, k: [])  # every pair fails
    code, serial, _ = run(capsys, "sweep", "--system", "A3", "--jobs", "1", "--json")
    assert code == 1
    code, parallel, _ = run(capsys, "sweep", "--system", "A3", "--jobs", "2", "--json")
    assert code == 1
    assert parallel == serial
    # both twists of A3, each pair a failure
    assert [(len(r["failures"]), r["pairs_checked"]) for r in json.loads(serial)] == [(41, 41)] * 2


def test_atoms_answer_alike_on_both_sides_of_the_cap(capsys, monkeypatch):
    # a fresh system per call, since each system decides the cap once
    monkeypatch.setattr(cx, "build_system",
                        lambda spec: cx.CoxeterSystem(cx.coxeter_matrix_from_name(spec)))
    code, out, _ = run(capsys, "atoms", "--system", "B4", "--y", "1,2,1")
    assert code == 0
    within = json.loads(out)
    assert list(within) == ["atoms"]  # Hecke atoms come from hecke alone
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 100)  # B4 has order 384
    code, out, _ = run(capsys, "atoms", "--system", "B4", "--y", "1,2,1")
    assert code == 0
    assert json.loads(out) == within
    code, _, err = run(capsys, "hecke", "--system", "B4", "--y", "1,2,1")
    assert code == 2
    assert "too large" in err


def test_sweep_rejects_fewer_than_one_job(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "sweep", "--system", "A2", "--jobs", jobs)
        assert code == 2 and out == ""
        assert "--jobs" in err


@pytest.mark.parametrize("argv", [["sweep"], ["sweep", "--jobs", "2"], ["verify", "b-prime"]])
def test_whole_group_verbs_above_the_cap_exit_two_before_enumerating(capsys, monkeypatch, argv):
    # E8's 199,952 twisted involutions are neither numbered nor split into
    # chunks: the cap is decided from the group's order first
    def enumerating(*args):
        raise AssertionError("enumerate_twisted called")

    monkeypatch.setattr(tw, "enumerate_twisted", enumerating)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--system", "E8")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert "too large" in err


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "atoms", "--system", "A4", "--y", "junk!")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "atoms", "--system", "A4",
                       "--twist", "perm:9,9", "--y", "(1,2)")
    assert code == 2
    code, _, err = run(capsys, "verify", "chinese", "--system", "B3")
    assert code == 2
    code, _, err = run(capsys, "atoms", "--system", "A3", "--twist", "auto",
                       "--y", "(1,2)")
    assert code == 2


def test_pair_verbs_reject_a_y_that_is_not_a_twisted_involution(capsys):
    for verb in ("atoms", "words", "hecke"):
        code, out, err = run(capsys, verb, "--system", "A3", "--y", "2,3,1,4")
        assert code == 2 and out == ""
        assert "not a twisted involution" in err, verb


def test_verify_fpf_names_the_odd_size(capsys):
    code, out, err = run(capsys, "verify", "fpf", "--system", "A2")
    assert code == 2 and out == ""
    assert "needs an even size, got 3" in err


def test_argparse_errors_exit_two(capsys):
    assert cli.main(["atoms", "--system", "A4"]) == 2  # missing --y
    capsys.readouterr()
    assert cli.main(["verify", "nonsense", "--system", "A3"]) == 2
    capsys.readouterr()
    assert cli.main([]) == 2
    capsys.readouterr()


def test_cycle_parsing_rejects_overlaps(capsys):
    code, _, err = run(capsys, "atoms", "--system", "A4", "--y", "(1,2)(2,3)")
    assert code == 2
    assert "overlap" in err


def test_element_keywords(capsys):
    # id, w0, and wfpf work in every system where they make sense
    code, out, _ = run(capsys, "words", "--system", "B2", "--y", "w0")
    assert code == 0
    assert json.loads(out) == {"words": [[1, 2, 1], [2, 1, 2]]}
    code, with_id, _ = run(capsys, "atoms", "--system", "A3",
                           "--x", "id", "--y", "(1,3)")
    code2, without, _ = run(capsys, "atoms", "--system", "A3", "--y", "(1,3)")
    assert code == code2 == 0
    assert with_id == without
    code, out, _ = run(capsys, "words", "--system", "A3", "--y", "wfpf", "--fpf")
    assert code == 0
    assert json.loads(out) == {"words": [[]]}
    for flags, name in [(("--y", "wfpf"), "wfpf"), (("--y", "id", "--fpf"), "--fpf")]:
        code, _, err = run(capsys, "words", "--system", "B3", *flags)
        assert code == 2
        assert err == "error: %s needs a symmetric group (type A chain)\n" % name


def test_an_infinite_matrix_is_a_usage_error(capsys):
    code, _, err = run(capsys, "words", "--system", "rank 2\n1 0\n0 1", "--y", "1")
    assert code == 2
    assert "infinite group" in err


def test_words_past_the_cap_are_counted_not_listed(capsys):
    # E6's w0 has 396,644,320 involution words: the count answers at once
    start = time.perf_counter()
    code, out, err = run(capsys, "words", "--system", "E6", "--y", "w0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: 396644320 transforming words, more than WORDS_CAP (%d)\n" % cli.WORDS_CAP
    for system, y, count in [("E6", "1,3,1", 2), ("E8", "1,3,1", 2), ("F4", "w0", 7616)]:
        code, out, _ = run(capsys, "words", "--system", system, "--y", y)
        assert code == 0 and len(json.loads(out)["words"]) == count <= cli.WORDS_CAP


def test_a_group_past_the_root_cap_is_a_usage_error(capsys):
    code, _, err = run(capsys, "words", "--system", "I2(10001)", "--y", "1")
    assert code == 2
    assert "too large" in err


# runs the CLI on the given arguments, then writes the exit code and the
# peak RSS in MB to stderr: VmHWM, the peak of the memory map that the
# child's exec started afresh (ru_maxrss would count the parent's at the fork)
_CLI_PEAK = """
import resource, sys
from invatoms import cli
code = cli.main(sys.argv[1:])
try:
    with open("/proc/self/status") as f:
        mb = next(int(ln.split()[1]) for ln in f if ln.startswith("VmHWM:")) / 1024
except OSError:  # off Linux
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS
    mb = kb / (1 << 20 if sys.platform == "darwin" else 1 << 10)
print(code, mb, file=sys.stderr)
"""


def test_a_large_dihedral_group_builds():
    # 10^4 elements of 10^4 root indices each are over the table's entry
    # bound, so the one-word answer takes the route above the cap instead
    # of a table of about 1 GB
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_PEAK, "words", "--system", "I2(5000)", "--y", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    code, mb = proc.stderr.split()[-2:]
    assert code == "0", proc.stderr
    assert json.loads(proc.stdout) == {"words": [[1]]}
    assert float(mb) < 60


def test_words_of_a_long_dihedral_element():
    # 601 levels of the path lister above the cap, deeper than the default
    # recursion limit
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_PEAK, "words", "--system", "I2(1200)", "--y", "w0"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    code, mb = proc.stderr.split()[-2:]
    assert code == "0", proc.stderr
    assert json.loads(proc.stdout) == {"words": [[1, 2] * 300 + [1], [2, 1] * 300 + [2]]}
    assert float(mb) < 60


def test_internal_errors_exit_three(capsys, monkeypatch):
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setitem(cli._HANDLERS, "hecke", broken)
    code, _, err = run(capsys, "hecke", "--system", "B3", "--y", "1,2,1")
    assert code == 3
    assert "internal error: KeyError" in err


def test_closed_stdout_exits_141_without_a_traceback():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "invatoms.cli", "poset", "--x", "4321", "--dot"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "internal error" not in proc.stderr


def test_importing_the_cli_leaves_out_the_process_pool():
    # only a parallel sweep imports it; the CI smoke `sweep --jobs 2` runs that path
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, invatoms.cli; print(sorted({'concurrent.futures.process', "
            "'multiprocessing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _loaded_after(argv):
    """The invatoms modules, and whether traceback, loaded by a fresh
    interpreter that imports the CLI and runs argv through it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import contextlib, io, sys, invatoms.cli\n"
            "if sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert invatoms.cli.main(sys.argv[1:]) == 0\n"
            "import json\n"
            "print(json.dumps([[m for m in sys.modules if m.split('.')[0] == 'invatoms'],\n"
            "                  'traceback' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code] + argv, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    modules, traceback = json.loads(proc.stdout)
    return set(modules), traceback


def test_importing_the_cli_loads_only_coxeter_of_the_library():
    assert _loaded_after([]) == ({"invatoms", "invatoms.cli", "invatoms.coxeter"}, False)


@pytest.mark.parametrize("argv, modules", [
    (["atoms", "--system", "A3", "--y", "2,1,4,3"], {"twisted"}),
    (["verify", "chinese", "--system", "A3"], {"orders", "typea"}),
    (["verify", "braid", "--system", "B2"], {"braid", "twisted"}),
    (["poset", "--x", "4321"], {"orders", "typea"}),
])
def test_each_verb_loads_only_the_modules_it_calls(argv, modules):
    base = {"invatoms", "invatoms.cli", "invatoms.coxeter"}
    assert _loaded_after(argv) == (base | {"invatoms." + m for m in modules}, False)


def test_sweep_jobs_are_capped_at_the_cpu_count(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    invs = tuple(range(10))
    chunks = cli._sweep_chunks(invs, 64)
    assert len(chunks) == 2
    assert sorted(v for c in chunks for v in c) == list(invs)
    assert len(cli._sweep_chunks(invs, 1)) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert len(cli._sweep_chunks(invs, 8)) == 1
