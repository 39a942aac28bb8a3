"""Per-call cost of the ``coxeter`` element primitives on a seeded B4 sample.

Each primitive runs over the same sample of elements (or element pairs) a
few times; the reported figure is the median over those repeats of the
time per call. ``bruhat_leq`` is measured cold: every repeat builds a fresh
``CoxeterSystem`` for B4, whose comparison cache starts empty and fills as
the sample goes by, as it does during a sweep.
"""

import random
import statistics
import time

from invatoms import coxeter as cx

SYSTEM = "B4"
SAMPLE = 64
REPEATS = 7


def _per_call_us(make_fn, args_list, repeats=REPEATS):
    """Median over the repeats of the time per call, in microseconds;
    ``make_fn`` gives the callable to time afresh for each repeat."""
    times = []
    for _ in range(repeats):
        fn = make_fn()
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - start) / len(args_list))
    return statistics.median(times) * 1e6


def measure(seed, cal):
    """Per-call microseconds, with a calibration sample between primitives."""
    system = cx.build_system(SYSTEM)
    elements = system.elements()
    rng = random.Random("%s:probe" % seed)
    us = [rng.choice(elements) for _ in range(SAMPLE)]
    vs = [rng.choice(elements) for _ in range(SAMPLE)]
    letters = [rng.randint(1, system.rank) for _ in range(SAMPLE)]
    pairs = list(zip(us, vs))
    singles = [(w,) for w in us]
    twist = tuple(range(1, system.rank + 1))  # B4 has no other diagram automorphism
    matrix = system.matrix
    runs = {
        "multiply": lambda: _per_call_us(lambda: system.multiply, pairs),
        "right_mult": lambda: _per_call_us(lambda: system.right_mult,
                                           list(zip(us, letters))),
        "length": lambda: _per_call_us(lambda: system.length, singles),
        "reduced_word": lambda: _per_call_us(lambda: system.reduced_word, singles),
        "reduced_words": lambda: _per_call_us(lambda: system.reduced_words,
                                              singles[:16], 3),
        "bruhat_leq": lambda: _per_call_us(
            lambda: cx.CoxeterSystem(matrix, name=SYSTEM).bruhat_leq, pairs),
        "apply_twist": lambda: _per_call_us(lambda: system.apply_twist,
                                            [(w, twist) for w in us]),
        "demazure_product": lambda: _per_call_us(lambda: system.demazure_product, pairs),
    }
    out = {}
    for name, run in runs.items():
        cal.sample()
        out["coxeter.%s.us" % name] = run()
    cal.sample()
    return out
