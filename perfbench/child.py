"""One fresh interpreter's share of a benchmark run.

Reads a JSON job on stdin and writes one JSON result on stdout. Jobs:

- ``setup``: import ``invatoms.cli`` and build the named systems (roots plus
  ``elements()``), timing both. This is the cold start a CLI user pays.
- ``pass``: build the systems, rebuild the op inputs, run every op once in a
  closed loop with one caller, then run the correctness gate on the answers.
  With ``trace`` set, span wrappers are installed around the timed loop only.
- ``probe``: per-call microseconds of the ``coxeter`` element primitives.

The ``pass`` and ``probe`` jobs also run the calibration loop
(``calibrate.py``) beside their work and report the loop's median duration
as ``ref_s``; times are returned in measured seconds and converted by the
orchestrator. Nothing of the library is imported before the setup clock
starts.
"""

import json
import os
import resource
import sys
import time

from calibrate import Calibrator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_library():
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import invatoms.cli  # noqa: F401  (the CLI entry point's import cost)
    elapsed = time.perf_counter() - start
    import invatoms
    if not os.path.abspath(invatoms.__file__).startswith(SRC + os.sep):
        raise SystemExit("invatoms was not imported from %s" % SRC)
    return elapsed


def _build(names):
    from invatoms import coxeter as cx
    start = time.perf_counter()
    systems = [cx.build_system(name) for name in names]
    for system in systems:
        system.elements()
    return systems, time.perf_counter() - start


def cache_sizes(systems):
    """Entries in the per-system caches, read without touching them."""
    bruhat = twisted = 0
    for system in systems:
        bruhat += len(system.__dict__.get("_bruhat_cache", {}))
        for per_twist in system.__dict__.get("_twisted_caches", {}).values():
            for value in per_twist.values():
                # nested dicts (down-sets, Hecke tables, ...) count per entry
                twisted += len(value) if isinstance(value, dict) else 1
    return {"coxeter.bruhat_cache.entries": bruhat, "twisted.cache.entries": twisted}


def run_setup(job):
    cli_import_s = _import_library()
    _, build_s = _build(job["systems"])
    return {"setup_s": cli_import_s + build_s, "cli_import_s": cli_import_s,
            "build_s": build_s}


def run_pass(job):
    _import_library()
    import invatoms
    import workloads

    workload = workloads.WORKLOADS[job["workload"]]
    systems, _ = _build(workload.systems)
    specs = job["specs"]
    calls = [workload.prepare(spec) for spec in specs]
    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(invatoms)
    answers, latencies = [], []
    clock = time.perf_counter
    cal = Calibrator()
    cal.sample()
    for call in calls:
        start = clock()
        try:
            answer = call()
        except Exception as exc:  # a raising op is a failed op, not a crash
            answer = workloads.Raised(exc)
        latencies.append(clock() - start)
        answers.append(answer)
        if cal.due():
            cal.sample()
    cal.sample()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    out = {"ref_s": cal.median(), "latencies": latencies, "peak_rss_kb": peak_rss_kb,
           "caches": cache_sizes(systems)}
    ok = workload.gate(specs, answers)
    out["failed"] = [i for i, good in enumerate(ok) if not good]
    out["errors"] = sorted({a.error for a in answers if isinstance(a, workloads.Raised)})
    if tracer is not None:
        self_s, calls_by_name = tracer.summary()
        out["self_s"], out["calls"], out["counts"] = self_s, calls_by_name, dict(tracer.counts)
        if job.get("trace_path"):
            tracer.dump(job["trace_path"])
    return out


def run_probe(job):
    _import_library()
    import probe
    cal = Calibrator()
    result = probe.measure(job["seed"], cal)
    result["ref_s"] = cal.median()
    return result


JOBS = {"setup": run_setup, "pass": run_pass, "probe": run_probe}


def main():
    job = json.load(sys.stdin)
    result = JOBS[job["job"]](job)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
