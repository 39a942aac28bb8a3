"""The three benchmark workloads: seeded inputs, the public calls, the gate.

A workload turns a seed into a list of JSON op specs (``plan``), which the
orchestrator hands to a fresh interpreter once per pass. There each
spec becomes a zero-argument callable (``prepare``) that makes one public
call into the library, and after the timed loop ``gate`` decides, op by op,
whether the answer was right. Callables look modules up at call time
(``tw.atoms``, not a captured ``atoms``), so the span wrappers of a traced
run see every call.

Elements travel between processes as their lex-min reduced words and are
rebuilt with ``system.product`` before timing starts.
"""

import random

from invatoms import braid as br
from invatoms import coxeter as cx
from invatoms import orders as od
from invatoms import twisted as tw
from invatoms import typea as ta


class Raised:
    """Stands in for the answer of an op that raised."""

    def __init__(self, exc):
        self.error = "%s: %s" % (type(exc).__name__, exc)


def _twist(spec):
    return None if spec["twist"] is None else tuple(spec["twist"])


def _element(system, word):
    return system.product(tuple(word))


def _by_word(system, elements):
    return sorted(elements, key=lambda w: (system.length(w), system.reduced_word(w)))


def _down_set(system, y, twist):
    """The weak down-set of y, closed under the public conjugation step."""
    seen = {y}
    frontier = [y]
    while frontier:
        z = frontier.pop()
        for s in system.descents_right(z):
            below = tw.rtimes(system, z, s, twist)
            if below not in seen:
                seen.add(below)
                frontier.append(below)
    return seen


def _words_between(system, x, y, twist):
    """Transforming words from x up to y, found independently of the library's
    atom routes: every chain of ascent steps from x that stays inside the weak
    down-set of y, which makes each chain minimal."""
    down = _down_set(system, y, twist)
    memo = {y: [()]}

    def rec(z):
        if z not in memo:
            descents = system.descents_right(z)
            memo[z] = [(s,) + rest
                       for s in range(1, system.rank + 1) if s not in descents
                       for above in [tw.rtimes(system, z, s, twist)] if above in down
                       for rest in rec(above)]
        return memo[z]

    return rec(x)


class ConjectureSweep:
    """check_conjecture(system, twist, ys=(y,)) for every twisted involution y.

    The inputs are the same for every seed: the whole of each group is swept.
    """

    name = "conjecture-sweep"
    # (system, twist) -> summed pairs_checked over all its twisted involutions
    GROUPS = (
        ("H3", None, 311),
        ("D4", None, 498),
        ("D4", (3, 2, 1, 4), 292),
        ("A4", (4, 3, 2, 1), 203),
    )
    systems = ("H3", "D4", "A4")

    def plan(self, seed):
        specs = []
        for name, twist, _ in self.GROUPS:
            system = cx.build_system(name)
            for y in _by_word(system, tw.enumerate_twisted(system, twist)):
                specs.append({"system": name, "twist": twist,
                              "y": system.reduced_word(y)})
        # no shuffle: the ops share each system's Bruhat cache, so an order
        # change moves cost from op to op and the percentiles with it
        return specs

    def prepare(self, spec):
        system = cx.build_system(spec["system"])
        twist = _twist(spec)
        y = _element(system, spec["y"])
        return lambda: tw.check_conjecture(system, twist, ys=(y,))

    def gate(self, specs, answers):
        ok = [not isinstance(a, Raised) and not a["failures"] for a in answers]
        for name, twist, total in self.GROUPS:
            members = [i for i, s in enumerate(specs)
                       if s["system"] == name and _twist(s) == twist]
            if not members:
                continue
            summed = sum(answers[i]["pairs_checked"] for i in members
                         if not isinstance(answers[i], Raised))
            if summed != total:
                for i in members:
                    ok[i] = False
        return ok


class PairQueries:
    """A long-lived session answering seeded (x, y, kind) queries.

    Every session asks each kind once about every twisted involution y of
    each system, so y is uniform and every session carries the same
    y-multiset: drawing y independently made the session time hinge on
    whether the 2-second braid class of the longest element of F4 came up.
    The seed picks x, uniform over the weak down-set of y, and the order.
    F4 with the identity twist is left out: its braid classes alone took
    half a session, too long to repeat a session three times in a run.
    """

    name = "pair-queries"
    GROUPS = (("B4", None), ("F4", (4, 3, 2, 1)))
    KINDS = ("atoms", "involution_words", "hecke_atoms", "involution_braid_class")
    systems = ("B4", "F4")

    def plan(self, seed):
        rng = random.Random(seed)
        specs = []
        for name, twist in self.GROUPS:
            system = cx.build_system(name)
            for y in _by_word(system, tw.enumerate_twisted(system, twist)):
                down = _by_word(system, _down_set(system, y, twist))
                for kind in self.KINDS:
                    spec = {"system": name, "twist": twist, "kind": kind,
                            "y": system.reduced_word(y)}
                    if kind == "involution_braid_class":
                        spec["word"] = min(tw.involution_words(system, y, twist=twist))
                    else:
                        spec["x"] = system.reduced_word(rng.choice(down))
                    specs.append(spec)
        rng.shuffle(specs)
        return specs

    def prepare(self, spec):
        system = cx.build_system(spec["system"])
        twist = _twist(spec)
        y = _element(system, spec["y"])
        kind = spec["kind"]
        if kind == "involution_braid_class":
            word = tuple(spec["word"])
            return lambda: br.involution_braid_class(system, word, twist)
        x = _element(system, spec["x"])
        if kind == "atoms":
            return lambda: tw.atoms(system, y, x, twist)
        if kind == "involution_words":
            return lambda: tw.involution_words(system, y, x, twist)
        return lambda: tw.hecke_atoms(system, y, x, twist)

    def gate(self, specs, answers):
        return [not isinstance(a, Raised) and self._check(s, a)
                for s, a in zip(specs, answers)]

    def _check(self, spec, answer):
        system = cx.build_system(spec["system"])
        twist = _twist(spec)
        y = _element(system, spec["y"])
        if spec["kind"] == "involution_braid_class":
            return set(answer) == set(_words_between(system, system.identity, y, twist))
        x = _element(system, spec["x"])
        words = _words_between(system, x, y, twist)
        if spec["kind"] == "involution_words":
            return set(answer) == set(words)
        atoms = {system.product(word) for word in words}
        if spec["kind"] == "atoms":
            hecke = tw.hecke_atoms(system, y, x, twist)
            lmin = min(system.length(w) for w in hecke)
            return set(answer) == atoms == {w for w in hecke if system.length(w) == lmin}
        lmin = min((system.length(w) for w in answer), default=None)
        return (all(tw.dact_element_via_demazure(system, x, w, twist) == y for w in answer)
                and {w for w in answer if system.length(w) == lmin} == atoms)


class TypeAOrders:
    """Type A atoms and atom orders of S8, then three whole-group checks.

    The inputs are the same for every seed.
    """

    name = "typea-orders"
    systems = ()
    REVERSAL_N = 10
    REVERSAL_ATOMS = 945  # (10 - 1)!!
    VERIFY_CLASSES = {"verify_chinese": (7, 232), "verify_fpf": (8, 105)}

    def plan(self, seed):
        specs = [{"kind": "inv", "y": y} for y in ta.enumerate_involutions(8)]
        specs += [{"kind": "fpf", "y": y} for y in ta.enumerate_involutions(8, fpf=True)]
        specs += [{"kind": kind, "n": n} for kind, (n, _) in self.VERIFY_CLASSES.items()]
        specs.append({"kind": "reversal", "n": self.REVERSAL_N})
        # no shuffle: the gate keeps every answer, so the order would move
        # the peak RSS
        return specs

    def prepare(self, spec):
        kind = spec["kind"]
        if kind == "inv":
            y = tuple(spec["y"])
            return lambda: (ta.atoms_perm(y), od.atom_poset(y))
        if kind == "fpf":
            y = tuple(spec["y"])
            return lambda: (ta.atoms_fpf_perm(y), od.atom_poset_fpf(y))
        if kind == "reversal":
            y = tuple(range(spec["n"], 0, -1))
            return lambda: ta.atoms_perm(y)
        n = spec["n"]
        return lambda: getattr(od, kind)(n)

    def gate(self, specs, answers):
        return [not isinstance(a, Raised) and self._check(s, a)
                for s, a in zip(specs, answers)]

    def _check(self, spec, answer):
        kind = spec["kind"]
        if kind == "reversal":
            return len(answer) == self.REVERSAL_ATOMS
        if kind in self.VERIFY_CLASSES:
            want = self.VERIFY_CLASSES[kind][1]
            return (not answer["failures"]
                    and answer["classes"] == answer["involutions"] == want)
        atoms, poset = answer
        y = tuple(spec["y"])
        member = ta.is_atom_absolute if kind == "inv" else ta.is_atom_fpf
        return (len(atoms) > 0 and len(poset.elements) == len(atoms)
                and all(member(w, y) for w in atoms))


WORKLOADS = {w.name: w for w in (ConjectureSweep(), PairQueries(), TypeAOrders())}
