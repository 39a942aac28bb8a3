"""Chinese classes and atom orders for involutions in the symmetric group.

Inverting every element of the Hecke atom set of an involution in S_n
yields an equivalence class of the three-letter relation known from the
Chinese monoid; the inverted atom set is the interval between two
explicit extremal permutations in the partial order obtained by dropping
the length-changing moves. This module materializes the classes, the
orders, the extremal elements, the graded poset structure with its
inversion-set rank function, and the fixed-point-free analogues, where
the moves act on aligned windows of four letters and the resulting poset
embeds into the right weak order of a symmetric group of half the size.

Permutations are one-line tuples as in the typea module; the class and
order closures accept arbitrary integer sequences. Classes and sweeps run
on packed integers, b bits a letter, first letter most significant (so
integer order is lex order), where a window move adds one integer.
"""

import itertools
import math
from collections import Counter
from functools import lru_cache
from operator import countOf, itemgetter

from . import coxeter as cx
from . import typea as ta

CHINESE_SWEEP_CAP = 8
FPF_SWEEP_CAP = 10


def _seq(values):
    return tuple(int(v) for v in values)


def _dedupe(values):
    return tuple(dict.fromkeys(values))


def _triple_mates(window):
    a, b, c = sorted(window)
    pats = _dedupe([(c, a, b), (b, c, a), (c, b, a)])
    return [p for p in pats if p != window] if window in pats else []


def _quad_mates(window):
    a, b, c, d = sorted(window)
    pats = _dedupe([(a, d, b, c), (b, c, a, d), (b, d, a, c), (c, d, a, b)])
    return [p for p in pats if p != window] if window in pats else []


# -- window moves on packed sequences -------------------------------------------


def _pack(seq, b):
    p = 0
    for v in seq:
        p = p << b | v
    return p


def _unpack(p, n, b):
    mask = (1 << b) - 1
    return tuple([p >> s & mask for s in range(b * (n - 1), -1, -b)])


def _ranked(seq):
    """The ranks 0, 1, ... of seq's values, ties kept, their bits a letter
    and the map back from packed sequences of the length of seq."""
    values = sorted(set(seq))
    rank = {v: r for r, v in enumerate(values)}
    n, b = len(seq), max(len(values) - 1, 1).bit_length()
    return (tuple(map(rank.__getitem__, seq)), b,
            lambda p: tuple(map(values.__getitem__, _unpack(p, n, b))))


@lru_cache(maxsize=8)
def _moves(b, width, mates):
    """The dict from a packed window of width letters, b bits a letter, to
    what turns it into each of its mates, filled as windows are met. One
    dict per (b, width, mates) serves every call; the 8 most recently used
    are kept, each at most one entry per window, 2^(b * width)."""
    return {}


def _closer(n, b, width, step, mates):
    """The function from a packed n-letter sequence p to its class, in BFS
    order, under mates on the windows of width letters at 0, step, ...:
    what turns a window into each mate, shifted to its place, moves p.
    The window moves are shared through _moves."""
    rows = [(b * (n - width - i), (1 << b * width) - 1) for i in range(0, n - width + 1, step)]
    moves = _moves(b, width, mates)

    def close(start):
        seen = {start}
        queue = [start]
        for p in queue:
            for s, m in rows:
                w = p >> s & m
                try:
                    ds = moves[w]
                except KeyError:
                    ds = moves[w] = tuple(_pack(v, b) - w for v in mates(_unpack(w, width, b)))
                for d in ds:
                    q = p + (d << s)
                    if q not in seen:
                        seen.add(q)
                        queue.append(q)
        return queue
    return close


# -- the Chinese relation and its class partition ----------------------------

_CHINESE = (3, 1, _triple_mates)
_FPF = (4, 2, _quad_mates)


def chinese_class(seq):
    """The full equivalence class of seq under the three-letter relation."""
    ranks, b, values = _ranked(_seq(seq))
    return set(map(values, _closer(len(ranks), b, *_CHINESE)(_pack(ranks, b))))


def _blocks(descents):
    """The position slices permuted by the parabolic subgroup W_J, J the
    given descents: one per maximal run i, i + 1, ..., k in J."""
    out = []
    for i in descents:
        if out and out[-1][1] == i:
            out[-1][1] = i + 1
        else:
            out.append([i - 1, i + 1])
    return [slice(lo, hi) for lo, hi in out]


def _fold(n, base, b):
    """{w^-1 on letters 0..n-1, packed with b bits a letter: the id of base
    folded against w} and the images by id, for each w in S_n with no left
    descent s_a, a in J, the right descents of base (the fold is constant on
    cosets W_J w): one BFS over ascents from the identity on packed p with
    u = p^-1. p s_i swaps the letters a = p(i), c = p(i + 1) of p and adds
    one at position a of u, takes one at position c; it gains the left
    descent s_a exactly when c = a + 1, skipped for a in J (Deodhar's lemma)."""
    folds = {}  # image -> its folds by s_1, ..., s_{n-1}
    cx.closure(base, lambda y: folds.setdefault(y, [ta.dact_perm(y, i) for i in range(1, n)]))
    ids = dict(zip(folds, itertools.count()))
    steps = [[None] + [ids[z] for z in row] for row in folds.values()]
    skip = frozenset(a - 1 for a in ta.right_descents_perm(base))
    mask = (1 << b) - 1
    unit = [1 << b * (n - 1 - j) for j in range(n)]  # one at position j
    rows = [(i, b * (n - 1 - i), unit[i - 1] - unit[i]) for i in range(1, n)]
    p = u = _pack(range(n), b)
    labels = {u: 0}
    ps, us = [p], [u]
    for p, u in zip(ps, us):
        fold = steps[labels[u]]
        a = p >> b * max(n - 1, 0)
        for i, shift, swap in rows:
            c = p >> shift & mask
            if a < c and (c != a + 1 or a not in skip):
                v = u + unit[a] - unit[c]
                if v not in labels:
                    labels[v] = fold[i]
                    ps.append(p + (c - a) * swap)
                    us.append(v)
            a = c
    return labels, list(folds)


def _verify_classes(n, base, relation):
    """The report of verify_chinese and verify_fpf: each inverted Hecke atom
    set of base against the class of one of its members.

    The Hecke atom sets partition S_n, so if each inverted set is the class
    of one of its members the classes are these sets; ``classes`` counts the
    distinct classes built, ``involutions`` on a passing run, and each
    involution compared counts as one pair checked. Both sides are
    compared on J-minimal sequences, J the right descents of base: each
    inverted set is a union of orbits u W_J (see _fold), each with one
    member increasing on every block of J. relation(n, b) gives the function
    from a packed v to the packed J-minimal members of its class, started
    from the top (every block of J reversed) of the least orbit, so a
    relation that does not join orbits fails. A class matches its set when
    every member carries the set's image and the counts agree. Failure
    sizes are J-minimal members times |W_J|.
    """
    blocks = _blocks(ta.right_descents_perm(base))
    orbit = math.prod(math.factorial(block.stop - block.start) for block in blocks)
    b = max(n - 1, 1).bit_length()
    labels, images = _fold(n, base, b)
    members = sorted(labels, reverse=True)
    least = dict(zip(map(labels.get, members), members))
    class_of = relation(n, b)
    ids = {}  # member -> the set whose class first held it
    failures = []
    for k, size in Counter(labels.values()).items():
        top = list(_unpack(least[k], n, b))
        for block in blocks:
            top[block] = top[block][::-1]
        cls = class_of(_pack(top, b))
        ids.update(dict.fromkeys(cls, ids.get(next(iter(cls)), k)))
        if len(cls) != size or countOf(map(labels.get, cls), k) != size:
            failures.append({"involution": list(images[k]), "class_size": orbit * len(cls),
                             "hecke_size": orbit * size})
    return cx.report("S%d" % n, len(least), failures,
                     classes=len(set(ids.values())), involutions=len(least))


def verify_chinese(n):
    """Match the class partition of S_n against the inverted Hecke atom sets.

    Returns a report dict; an empty failures list means every class equals
    the inverted Hecke atom set of the involution its members fold to.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > CHINESE_SWEEP_CAP:
        raise ValueError("n too large for the Chinese sweep (max %d)" % CHINESE_SWEEP_CAP)
    return _verify_classes(n, ta.identity_perm(n), lambda n, b: _closer(n, b, *_CHINESE))


# -- the fixed-point-free relation -------------------------------------------


def _fpf_sorted_closer(n, b):
    """The function from a packed sequence to its class members with each
    aligned pair in order: every move pattern has both pairs in order, so
    they are the pair-sorted sequence's closure under the moves alone."""
    close = _closer(n, b, *_FPF)
    return lambda p: close(_pack(itertools.chain.from_iterable(
        map(sorted, zip(*[iter(_unpack(p, n, b))] * 2))), b))


def fpf_class(seq):
    """The class of seq under aligned swaps and the four-letter moves: the
    swap orbits of its members with each aligned pair in order."""
    start = _seq(seq)
    if len(start) % 2:
        raise ValueError("sequence has odd length")
    ranks, b, values = _ranked(start)
    out = set()
    for v in map(values, _fpf_sorted_closer(len(start), b)(_pack(ranks, b))):
        pairs = [_dedupe([(x, y), (y, x)]) for x, y in zip(v[::2], v[1::2])]
        out.update(tuple(itertools.chain.from_iterable(c)) for c in itertools.product(*pairs))
    return out


def verify_fpf(n2):
    """Match the class partition of S_2n against the inverted FPF Hecke sets."""
    if n2 < 0:
        raise ValueError("2n must be non-negative")
    if n2 % 2:
        raise ValueError("the FPF sweep needs an even size, got %d" % n2)
    if n2 > FPF_SWEEP_CAP:
        raise ValueError("2n too large for the FPF sweep (max %d)" % FPF_SWEEP_CAP)
    return _verify_classes(n2, ta.fpf_base(n2), _fpf_sorted_closer)


# -- the atom orders ----------------------------------------------------------


def prec_A_leq(u, v):
    """Whether v is reachable from u by upward three-letter moves."""
    u, v = _seq(u), _seq(v)
    return sorted(u) == sorted(v) and v in cx.closure(u, ta._up_steps)


def prec_Afpf_leq(u, v):
    """Whether v is reachable from u by upward aligned four-letter moves."""
    u, v = _seq(u), _seq(v)
    if len(u) % 2 or len(v) % 2:
        raise ValueError("sequence has odd length")
    return sorted(u) == sorted(v) and v in cx.closure(u, ta._up_steps_fpf)


# -- extremal atoms -----------------------------------------------------------


def _involution(x, fpf=False):
    x = _seq(x)
    # is_involution_perm is a whole check: see its comment
    if not (ta.is_fpf_involution if fpf else ta.is_involution_perm)(x):
        raise ValueError("x is not fixed-point-free" if fpf
                         else "extremal atoms need an involution")
    return x


def hat0(x):
    """The minimal inverted atom of an involution x."""
    return ta._hat(ta.cyc(_involution(x)))


def hat1(x):
    """The maximal inverted atom of an involution x."""
    return ta._hat(sorted(ta.cyc(_involution(x)), key=itemgetter(1)))


def hat0_fpf(x):
    """The minimal inverted atom of a fixed-point-free involution x."""
    return ta._hat_fpf(ta.cyc(_involution(x, fpf=True)))


def hat1_fpf(x):
    """The maximal inverted atom of a fixed-point-free involution x."""
    return ta._hat_fpf(sorted(ta.cyc(_involution(x, fpf=True)), key=itemgetter(1)))


def is_321_avoiding(w):
    """No positions i < j < k carry a strictly decreasing triple of values."""
    w = _seq(w)
    n = len(w)
    for j in range(1, n - 1):
        if max(w[:j]) > w[j] and min(w[j + 1:]) < w[j]:
            return False
    return True


# -- inversion sets and posets -------------------------------------------------


class AtomPoset:
    """A finite bounded poset of inverted atoms with explicit cover edges."""

    def __init__(self, elements, covers, bottom, top, ranks):
        self.elements = elements
        self.covers = covers
        self.bottom = bottom
        self.top = top
        self.ranks = ranks
        self._up = None

    def _upsets(self):
        if self._up is None:
            succ = {u: [] for u in self.elements}
            for u, v in self.covers:
                succ[u].append(v)
            up = {}
            for u in reversed(self.elements):
                reach = {u}
                for v in succ[u]:
                    reach |= up[v]
                up[u] = frozenset(reach)
            self._up = up
        return self._up

    def leq(self, u, v):
        up = self._upsets().get(_seq(u))
        if up is None:
            raise ValueError("u is not an element of the atom order")
        return v in up


def _build_poset(bottom, bottom_rank, moves):
    """The order generated from bottom by upward moves, ranked from the rank
    of bottom. moves(u) gives each (v, rise) one move above u, rise the
    exact change of the rank; each rise must be one, so the moves are the
    covers and each layer of the BFS from bottom, sorted, is one rank."""
    ranks = {bottom: bottom_rank}
    elements, covers, tops = [], [], []
    layer = [bottom]
    while layer:
        layer.sort()
        elements += layer
        above = []
        for u in layer:
            out = sorted(moves(u))
            if not out:
                tops.append(u)
            for v, rise in out:
                if rise != 1:
                    raise RuntimeError("rank function does not rise by one along moves")
                covers.append((u, v))
                if v not in ranks:
                    ranks[v] = ranks[u] + 1
                    above.append(v)
        layer = above
    if len(tops) != 1:
        raise RuntimeError("atom order is not bounded above")
    return AtomPoset(tuple(elements), tuple(covers), bottom, tops[0], ranks)


def _ranked_moves(x):
    """The upward moves cab -> bca with their rise in the a-inversion count
    over x. A move reverses only the pairs (a, b) and (b, c): a pair of
    values counts when the larger comes first if both are lower (v <= x(v)),
    when the smaller comes first if both are upper (x(v) < v), and never
    across the sides."""
    side = (0,) + tuple(1 if v <= x[v - 1] else -1 for v in range(1, len(x) + 1))

    def moves(u):
        out = []
        for i in range(len(u) - 2):
            c, a, b = u[i:i + 3]
            if a <= b <= c and a < c:
                # b moves ahead of a, and b ahead of c
                rise = (side[a] + side[b]) // 2 - (side[b] + side[c]) // 2
                out.append((u[:i] + (b, c, a) + u[i + 3:], rise))
        return out
    return moves


def _ranked_moves_fpf(x):
    """The upward aligned moves adbc -> bcad with their rise in the length of
    the FPF embedding: the move swaps the adjacent letters phi(a, d) and
    phi(b, c), so it rises by one when phi(a, d) < phi(b, c), else falls."""
    phi = [0] * (len(x) + 1)
    for i, (a, b) in enumerate(ta.cyc(x), 1):
        phi[a] = phi[b] = i

    def moves(u):
        out = []
        for i in range(0, len(u) - 3, 2):
            a, d, b, c = u[i:i + 4]
            if a <= b <= c <= d and (a < b or c < d):
                rise = 1 if phi[a] < phi[b] else -1
                out.append((u[:i] + (b, c, a, d) + u[i + 4:], rise))
        return out
    return moves


def _bottom_rank(cycles):
    """The a-inversion count of hat0 over the involution with these cycles in
    increasing order of a: hat0 writes the a in order and each b in its a's
    order, so the pairs of 2-cycles (a, b), (a', b') with a < a' and b < b'."""
    return sum(a < b < b2 and a2 < b2
               for (a, b), (a2, b2) in itertools.combinations(cycles, 2))


def atom_poset(x):
    """The graded poset of inverted atoms of an involution x."""
    x = _involution(x)
    cycles = ta.cyc(x)
    return _build_poset(ta._hat(cycles), _bottom_rank(cycles), _ranked_moves(x))


def atom_poset_fpf(x):
    """The graded lattice of inverted FPF atoms of a fixed-point-free x; its
    bottom hat0_fpf(x) has the identity as its FPF embedding, of rank 0."""
    x = _involution(x, fpf=True)
    return _build_poset(ta._hat_fpf(ta.cyc(x)), 0, _ranked_moves_fpf(x))


def poset_is_lattice(poset):
    """Whether every pair has a unique minimal upper bound and maximal lower bound."""
    up = poset._upsets()
    down = {u: set() for u in poset.elements}
    for u, above in up.items():
        for v in above:
            down[v].add(u)
    elems = list(poset.elements)
    for i, u in enumerate(elems):
        for v in elems[i + 1:]:
            ubs = up[u] & up[v]
            if sum(1 for w in ubs if not any(z != w and w in up[z] for z in ubs)) != 1:
                return False
            lbs = down[u] & down[v]
            if sum(1 for w in lbs if not any(z != w and w in down[z] for z in lbs)) != 1:
                return False
    return True


# -- export --------------------------------------------------------------------


def poset_to_json(poset):
    return {
        "elements": [list(u) for u in poset.elements],
        "covers": [[list(u), list(v)] for u, v in poset.covers],
        "bottom": list(poset.bottom),
        "top": list(poset.top),
        "ranks": [poset.ranks[u] for u in poset.elements],
    }


def _node_label(u):
    if max(u) <= 9:
        return "".join(str(v) for v in u)
    return ",".join(str(v) for v in u)


def poset_to_dot(poset):
    lines = ["digraph atoms {", "  rankdir=BT;"]
    for u in poset.elements:
        lines.append('  "%s";' % _node_label(u))
    for u, v in poset.covers:
        lines.append('  "%s" -> "%s";' % (_node_label(u), _node_label(v)))
    lines.append("}")
    return "\n".join(lines)
