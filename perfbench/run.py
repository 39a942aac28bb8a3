"""The invatoms benchmark: end-to-end metrics per workload, or a layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload conjecture-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The library is imported from ``src/`` next to this directory; nothing needs
installing. Every timed interpreter is a fresh child process (``child.py``),
so each pass pays the cache fills a CLI user pays on every invocation. This
process only plans inputs, starts children one at a time and aggregates.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs one untraced and one traced pass, a micro-probe and an
import-time breakdown, and reports the per-layer metrics instead. The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # children must compile the library as a fresh checkout does
import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 11         # cold starts timed per run for setup_s
TRACE_SETUP_RUNS = 3    # the same, under -X importtime, in a traced run
CHILD_TIMEOUT_S = 150
MIN_PASSES = 3          # an op's median needs three passes to drop an outlier
MIN_OP_SAMPLES = 600    # percentiles over few ops (134 a pass) need more passes
WALL_CAP = 1.25         # bound on real time spent in passes, per --seconds

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}
SPANNED_SELF = (
    "twisted.check_conjecture", "twisted.bruhat_atoms", "twisted.atoms",
    "twisted.hecke_atoms", "twisted.hecke_table", "twisted.involution_words",
    "twisted.enumerate_twisted", "braid.involution_braid_class",
    "typea.atoms_perm", "typea.atoms_fpf_perm", "typea.hecke_image_table",
    "orders.atom_poset", "orders.atom_poset_fpf", "orders.verify_chinese",
    "orders.verify_fpf",
)
CALLED = ("twisted.hecke_table", "braid.involution_braid_class",
          "orders.chinese_class", "orders.fpf_class")
COUNTED = ("twisted.pairs.count", "braid.words_visited.count", "typea.atoms.count")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _scale(result):
    """Factor from a child's measured seconds to reference seconds."""
    return calibrate.REFERENCE_S / result["ref_s"]


def _import_workloads():
    if not os.path.isfile(os.path.join(SRC, "invatoms", "__init__.py")):
        raise BenchError("no library sources at %s" % os.path.join(SRC, "invatoms"))
    sys.path[:0] = [SRC, HERE]
    import invatoms
    if not os.path.abspath(invatoms.__file__).startswith(SRC + os.sep):
        raise BenchError("invatoms was not imported from %s" % SRC)
    import workloads
    return workloads.WORKLOADS


def _interpreter(argv, stdin=""):
    """Run a fresh interpreter; return (stdout, stderr).

    Children are single-threaded: numpy's BLAS would otherwise start worker
    threads at import, and the import then ran up to a third slower whenever
    another process held the second core. No bytecode is written, so every
    start compiles the library's modules as the first one does."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable] + argv, input=stdin, capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("%s failed:\n%s" % (" ".join(argv)[:200], proc.stderr[-4000:]))
    return proc.stdout, proc.stderr


def _child(job, importtime=False):
    """Run one job of child.py in a fresh interpreter; return (result, stderr)."""
    argv = (["-X", "importtime"] if importtime else []) + [CHILD]
    stdout, stderr = _interpreter(argv, json.dumps(job))
    return json.loads(stdout), stderr


def _setup(workload, importtime=False):
    """One timed cold start, with the factor to reference seconds taken from
    the frozen import reference run just before it."""
    import_s = float(_interpreter(["-c", calibrate.IMPORT_REFERENCE])[0])
    result, stderr = _child({"job": "setup", "systems": list(workload.systems)},
                            importtime)
    result["scale"] = calibrate.IMPORT_REFERENCE_S / import_s
    result["numpy_import_s"] = _numpy_import_s(stderr)
    return result


def _numpy_import_s(importtime_stderr):
    match = re.search(r"\|\s*(\d+)\s*\|\s+numpy\s*$", importtime_stderr, re.M)
    return int(match.group(1)) / 1e6 if match else 0.0


def _percentile(values, q):
    """Nearest-rank percentile: a value that was measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment(seed):
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except Exception:
        numpy_version = "absent"
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": _commit(), "seed": seed}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _passes(workload, specs, seconds, trace=False, limit=None, before_each=None):
    """Fresh-interpreter passes over the same specs: at least MIN_PASSES and
    MIN_OP_SAMPLES op timings, then more until ``seconds`` reference seconds
    have gone (so a slow spell does not cut the number of passes) or
    WALL_CAP times ``seconds`` of real time. ``before_each`` runs before
    every pass, outside its timing."""
    results = []
    elapsed = 0.0
    wall_start = time.perf_counter()
    while True:
        if before_each is not None:
            before_each()
        started = time.perf_counter()
        job = {"job": "pass", "workload": workload.name, "specs": specs, "trace": trace}
        if trace:
            os.makedirs(OUT, exist_ok=True)
            job["trace_path"] = _trace_path(workload)
        result, _ = _child(job)
        result["ops"] = len(specs)
        results.append(result)
        elapsed += (time.perf_counter() - started) * _scale(result)
        if len(results) == limit:
            return results
        if (len(results) >= MIN_PASSES and len(results) * len(specs) >= MIN_OP_SAMPLES
                and (elapsed >= seconds
                     or time.perf_counter() - wall_start >= WALL_CAP * seconds)):
            return results


def _trace_path(workload):
    return os.path.join(OUT, "trace-%s.json" % workload.name)


def _failures(passes):
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    return attempted, failed


def measure_end_to_end(workload, seed, seconds):
    specs = workload.plan(seed)
    # cold starts are spread over the run, so one slow spell meets few of them
    setups = []
    passes = _passes(workload, specs, seconds,
                     before_each=lambda: setups.append(_setup(workload)))
    while len(setups) < SETUP_RUNS:
        setups.append(_setup(workload))
    # an op's latency is its median over the passes, in reference seconds
    per_op_s = [statistics.median(column) for column in
                zip(*([s * _scale(p) for s in p["latencies"]] for p in passes))]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * s["scale"] for s in setups),
        "ops_per_s": len(per_op_s) / sum(per_op_s),
        "op_p50_ms": _percentile(per_op_s, 0.5) * 1e3,
        "op_p90_ms": _percentile(per_op_s, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }
    attempted, failed = _failures(passes)
    per_op = "%d ops, each the median of %d passes" % (len(per_op_s), len(passes))
    notes = {
        "setup_s": "median of %d cold starts" % len(setups),
        "ops_per_s": per_op,
        "op_p50_ms": per_op,
        "op_p90_ms": per_op,
        "peak_rss_mb": "median of %d passes" % len(passes),
    }
    info = {"passes": len(passes), "ops_per_pass": len(specs),
            "measured_ops_per_s": [p["ops"] / sum(p["latencies"]) for p in passes],
            "measured_setup_s": [s["setup_s"] for s in setups],
            "reference_per_measured_s": [_scale(p) for p in passes],
            "setup_reference_per_measured_s": [s["scale"] for s in setups],
            "caches_last_pass": passes[-1]["caches"],
            "errors": sorted({e for p in passes for e in p["errors"]})}
    return metrics, END_TO_END_UNITS, notes, info, attempted, failed


def measure_layers(workload, seed, seconds):
    setups = [_setup(workload, importtime=True) for _ in range(TRACE_SETUP_RUNS)]
    specs = workload.plan(seed)
    plain = _passes(workload, specs, seconds, limit=1)[0]
    traced = _passes(workload, specs, seconds, trace=True, limit=1)[0]
    probe, _ = _child({"job": "probe", "seed": seed})

    metrics = {name: value * _scale(probe) for name, value in probe.items()
               if name != "ref_s"}
    for name, key in (("coxeter.build.s", "build_s"), ("cli.import.s", "cli_import_s"),
                      ("numpy.import.s", "numpy_import_s")):
        metrics[name] = statistics.median(s[key] * s["scale"] for s in setups)
    metrics.update(traced["caches"])
    for name in SPANNED_SELF:
        metrics[name + ".self_s"] = traced["self_s"].get(name, 0.0) * _scale(traced)
    for name in CALLED:
        metrics[name + ".calls"] = traced["calls"].get(name, 0)
    for name in COUNTED:
        metrics[name] = traced["counts"].get(name, 0)
    plain_rate = plain["ops"] / (sum(plain["latencies"]) * _scale(plain))
    traced_rate = traced["ops"] / (sum(traced["latencies"]) * _scale(traced))
    metrics["trace.overhead_frac"] = 1 - traced_rate / plain_rate
    units = {name: _layer_unit(name) for name in metrics}
    notes = {name: "" for name in metrics}
    notes["coxeter.bruhat_leq.us"] = "cold cache: fresh B4 system per repeat"
    info = {"plain_ops_per_s": plain_rate, "traced_ops_per_s": traced_rate,
            "trace_file": os.path.relpath(_trace_path(workload), ROOT),
            "errors": sorted(set(plain["errors"]) | set(traced["errors"]))}
    attempted, failed = _failures([plain, traced])
    return metrics, units, notes, info, attempted, failed


def _layer_unit(name):
    if name.endswith(".us"):
        return "us"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def _report(name, seed, trace, measured):
    metrics, units, notes, info, attempted, failed = measured
    mode = "traced" if trace else "untraced"
    print("# %s seed=%s %s: %d ops attempted, %d failed, failed_frac %.6g"
          % (name, seed, mode, attempted, failed, failed / attempted))
    print("#   info %s" % json.dumps(info, sort_keys=True))
    for key, value in metrics.items():
        print("#   %-40s %14.6g %-5s %s" % (key, value, units[key], notes[key]))
    return {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        known = _import_workloads()
        if args.workload != "all" and args.workload not in known:
            raise BenchError("unknown workload %r (choose from %s or all)"
                             % (args.workload, ", ".join(known)))
        names = list(known) if args.workload == "all" else [args.workload]
        measure = measure_layers if args.trace else measure_end_to_end
        print("# environment %s" % json.dumps(environment(args.seed), sort_keys=True))
        attempted = failed = 0
        metrics = {}
        for name in names:
            measured = measure(known[name], args.seed, args.seconds)
            reported = _report(name, args.seed, args.trace, measured)
            attempted += measured[4]
            failed += measured[5]
            if len(names) == 1:
                metrics = reported
            else:
                metrics.update({"%s.%s" % (name, k): v for k, v in reported.items()})
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
