"""Spans around the calls into each library module, installed from outside.

``Tracer.install`` replaces public functions on the ``invatoms`` modules with
wrappers that record a span per call: a name, a start, an end and the index
of the enclosing span. Calls inside a module go through its globals, so a
wrapped function is seen from the benchmark and from sibling modules alike.
The hot per-call primitives of ``coxeter`` are left alone (the micro-probe
times them), so a span's self time includes the primitives it runs.

Spans stay in memory until ``dump``; ``summary`` turns them into self times
(duration minus the time covered by direct child spans) and call counts.
"""

import json
import time
from collections import defaultdict

# module -> public functions that get a span
SPANNED = {
    "twisted": ("check_conjecture", "bruhat_atoms", "atoms", "hecke_atoms",
                "hecke_table", "involution_words", "enumerate_twisted"),
    "braid": ("involution_braid_class",),
    "typea": ("atoms_perm", "atoms_fpf_perm", "hecke_image_table"),
    "orders": ("atom_poset", "atom_poset_fpf", "verify_chinese", "verify_fpf",
               "chinese_class", "fpf_class"),
}


def _one(result):
    return 1


# "module.function" -> (counter, size of a result); counted only for calls
# the benchmark makes itself, so nested calls are not counted twice
TOP_LEVEL_COUNTS = {
    "twisted.check_conjecture": ("twisted.pairs.count", lambda r: r["pairs_checked"]),
    "twisted.atoms": ("twisted.pairs.count", _one),
    "twisted.hecke_atoms": ("twisted.pairs.count", _one),
    "twisted.involution_words": ("twisted.pairs.count", _one),
    "braid.involution_braid_class": ("braid.words_visited.count", len),
    "typea.atoms_perm": ("typea.atoms.count", len),
    "typea.atoms_fpf_perm": ("typea.atoms.count", len),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def install(self, package):
        for module_name, functions in SPANNED.items():
            module = getattr(package, module_name)
            for fn_name in functions:
                original = getattr(module, fn_name)
                name = "%s.%s" % (module_name, fn_name)
                setattr(module, fn_name, self._wrap(name, original))
                self._saved.append((module, fn_name, original))

    def uninstall(self):
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = TOP_LEVEL_COUNTS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None and parent == -1:
                counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def summary(self):
        """Self seconds and call count per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _), child in zip(self.spans, covered):
            self_s[name] += end - start - child
            calls[name] += 1
        return dict(self_s), dict(calls)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
