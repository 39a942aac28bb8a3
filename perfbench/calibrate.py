"""Frozen references that track how fast the machine runs right now.

On a shared machine the same Python code runs up to twice as slowly for
tens of seconds at a time while other tenants load the caches and memory
bus, too slowly for the best of a few passes to hide it. Each timed child
therefore runs this loop alongside its work (every ``EVERY_S`` seconds of
work in a pass) and reports the median duration. The orchestrator turns
every time from that child into reference seconds:

    reference seconds = measured seconds * REFERENCE_S / median loop duration

so that a slow spell slows the loop and the program alike and cancels out,
while a slower program still reads as slower. The loop is plain Python of
the same kind as the library (tuples as dict keys, a BFS), calls nothing in
``invatoms`` and must not change: the reference second is defined by it.
Of the loops tried, this one (about 1 MB of tuples) tracked the slow spells
of the workloads best; a smaller S6 search slowed down far more than they
did, so dividing by it overcorrected.
REFERENCE_S is about the loop's median duration on a 2-core Intel Xeon
machine (Python 3.11) shared with other tenants, so reference seconds read
close to seconds there.

Start-up cost, which is mostly reading and compiling modules, did not
follow the loop in tests; it followed the import of a fixed set of
standard-library modules in a fresh interpreter. A cold start is therefore
paired with ``IMPORT_REFERENCE``, run just before it, and scaled by
``IMPORT_REFERENCE_S`` over the duration of that import. The set must not
change either.
"""

import gc
import statistics
import time

REFERENCE_S = 0.02
EVERY_S = 0.5

IMPORT_REFERENCE = """
import time
start = time.perf_counter()
import argparse, asyncio, csv, ctypes, decimal, email.mime.multipart, fractions
import http.client, json.decoder, logging.handlers, sqlite3, ssl, unittest
import xml.dom.minidom
print(time.perf_counter() - start)
"""
IMPORT_REFERENCE_S = 0.09


def _loop():
    # breadth-first search of S7 by adjacent transpositions
    start = tuple(range(7))
    depth = {start: 0}
    queue = [start]
    for p in queue:
        d = depth[p] + 1
        for i in range(6):
            q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
            if q not in depth:
                depth[q] = d
                queue.append(q)
    return len(depth)


class Calibrator:
    def __init__(self):
        self.samples = []
        self.last = 0.0

    def sample(self):
        """Time one run of the loop, with the collector off so the heap of
        the work around it cannot slow the loop down."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _loop()
            self.last = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(self.last - start)

    def due(self):
        return time.perf_counter() - self.last >= EVERY_S

    def median(self):
        return statistics.median(self.samples)
