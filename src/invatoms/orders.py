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
order closures accept arbitrary integer sequences.
"""

import itertools
import math
from functools import lru_cache
from operator import itemgetter

from . import coxeter as cx
from . import typea as ta

CHINESE_SWEEP_CAP = 8
FPF_SWEEP_CAP = 10


def _seq(values):
    return tuple(int(v) for v in values)


def _dedupe(values):
    return tuple(dict.fromkeys(values))


# -- window moves read off order keys ----------------------------------------


def _key3(a, b, c):
    """The relative order of three letters, ties included: one base-3 digit
    (less, equal, greater) per pair of positions, an index below 27."""
    return 9 * ((a > b) + (a >= b)) + 3 * ((a > c) + (a >= c)) + (b > c) + (b >= c)


def _key4(a, b, c, d):
    """The relative order of four letters, ties included, an index below 729."""
    return (243 * ((a > b) + (a >= b)) + 81 * ((a > c) + (a >= c))
            + 27 * ((a > d) + (a >= d)) + 9 * ((b > c) + (b >= c))
            + 3 * ((b > d) + (b >= d)) + (c > d) + (c >= d))


def _triple_mates(window):
    a, b, c = sorted(window)
    pats = _dedupe([(c, a, b), (b, c, a), (c, b, a)])
    if window in pats:
        return [p for p in pats if p != window]
    return []


def _quad_mates(window):
    a, b, c, d = sorted(window)
    pats = _dedupe([(a, d, b, c), (b, c, a, d), (b, d, a, c), (c, d, a, b)])
    if window in pats:
        return [p for p in pats if p != window]
    return []


def _mates_table(width, key, mates):
    """Per relative order of a window of width letters, ties included, the
    tuples of window positions that spell mates(window).

    mates reads only the relative order of the window, so every window over
    range(width) stands for its order and fills the entry under its key.
    """
    table = [()] * 3 ** (width * (width - 1) // 2)
    for window in itertools.product(range(width), repeat=width):
        table[key(*window)] = tuple(tuple(window.index(v) for v in m) for m in mates(window))
    return table


# kind -> (window width, step between window starts, order key, mates)
_WINDOWS = {
    "chinese": (3, 1, _key3, _triple_mates),
    "fpf": (4, 2, _key4, _quad_mates),
}


@lru_cache(maxsize=32)
def _window_moves(n, kind):
    """Per window start i of an n-letter sequence, the table from the
    window's order key to itemgetters that read each whole mate sequence."""
    width, step, key, mates = _WINDOWS[kind]
    table = _mates_table(width, key, mates)
    out = []
    for i in range(0, n - width + 1, step):
        row = []
        for spots in table:
            getters = []
            for spot in spots:
                idx = list(range(n))
                idx[i:i + width] = [i + j for j in spot]
                getters.append(itemgetter(*idx))
            row.append(tuple(getters))
        out.append((i, row))
    return tuple(out)


def _triple_steps(seq, kind):
    out = []
    for i, row in _window_moves(len(seq), kind):
        for g in row[_key3(seq[i], seq[i + 1], seq[i + 2])]:
            out.append(g(seq))
    return out


def _quad_steps(seq, kind):
    out = []
    for i, row in _window_moves(len(seq), kind):
        for g in row[_key4(seq[i], seq[i + 1], seq[i + 2], seq[i + 3])]:
            out.append(g(seq))
    return out


# -- the Chinese relation and its class partition ----------------------------


def _chinese_step(seq):
    return _triple_steps(seq, "chinese")


def chinese_neighbors(seq):
    """Sequences one three-letter move away from seq."""
    return _chinese_step(_seq(seq))


def chinese_class(seq):
    """The full equivalence class of seq under the three-letter relation."""
    return cx.closure(_seq(seq), _chinese_step)


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


def _verify_classes(n, base, class_of):
    """The report of verify_chinese and verify_fpf: each inverted Hecke atom
    set of base against the class of one of its members.

    The Hecke atom sets partition S_n. When each inverted set is the class
    of one of its members, the classes are exactly these sets, so checking
    one class per set is complete; ``classes`` counts the distinct classes
    built and equals ``involutions`` on a passing run.

    Both sides are compared on J-minimal sequences, J the right descents of
    base. base folded against s w is base folded against w for s in J, so
    each Hecke atom set is a union of cosets W_J w and its inverse a union
    of orbits u W_J, each with one J-minimal member (increasing on every
    block of J). class_of(v) must give the J-minimal members of the class
    of v, which stand for the whole class when the relation joins each
    orbit. The class is started from the top of the least orbit (every
    block of J reversed), so a relation that does not join it fails. Sizes
    in failures count whole sets: J-minimal members times |W_J|.
    """
    if base is None:
        base = ta.identity_perm(n)
    descents = ta.right_descents_perm(base)
    blocks = _blocks(descents)
    orbit = math.prod(math.factorial(b.stop - b.start) for b in blocks)
    fibers = {}
    for w, img in ta._hecke_fold(n, base, frozenset(descents)).items():
        fibers.setdefault(img, set()).add(ta.inverse_perm(w))
    classes = set()
    failures = []
    for target, fiber in fibers.items():
        top = list(min(fiber))
        for b in blocks:
            top[b] = top[b][::-1]
        cls = frozenset(class_of(tuple(top)))
        classes.add(cls)
        if cls != fiber:
            failures.append({
                "involution": list(target),
                "class_size": orbit * len(cls),
                "hecke_size": orbit * len(fiber),
            })
    return {
        "n": n,
        "classes": len(classes),
        "involutions": len(fibers),
        "failures": failures,
    }


def verify_chinese(n):
    """Match the class partition of S_n against the inverted Hecke atom sets.

    Returns a report dict; an empty failures list means every class equals
    the inverted Hecke atom set of the involution its members fold to.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > CHINESE_SWEEP_CAP:
        raise ValueError("n too large for the Chinese sweep (max %d)" % CHINESE_SWEEP_CAP)
    return _verify_classes(n, None, chinese_class)


# -- the fixed-point-free relation -------------------------------------------


def fpf_neighbors(seq):
    """Sequences one aligned swap or four-letter move away from seq."""
    seq = _seq(seq)
    if len(seq) % 2:
        raise ValueError("sequence has odd length")
    swap = ta._swappers(len(seq))  # swap[i + 1] swaps the 0-based positions i, i + 1
    return [swap[i + 1](seq) for i in range(0, len(seq), 2)] + _quad_steps(seq, "fpf")


def _fpf_moves(seq):
    return _quad_steps(seq, "fpf")


def _fpf_sorted_class(seq):
    """The members of the class of seq with each aligned pair in order.

    Every move pattern has both of its pairs in order, so sorting the pairs
    maps a move to a move and a swap to nothing: these members are the
    closure of seq with its pairs sorted under the four-letter moves alone.
    """
    start = []
    for i in range(0, len(seq), 2):
        start += sorted(seq[i:i + 2])
    return cx.closure(tuple(start), _fpf_moves)


def fpf_class(seq):
    """The class of seq under aligned swaps and the four-letter moves: the
    swap orbits of its members with each aligned pair in order."""
    start = _seq(seq)
    if len(start) % 2:
        raise ValueError("sequence has odd length")
    out = set()
    for v in _fpf_sorted_class(start):
        pairs = [_dedupe([(a, b), (b, a)]) for a, b in zip(v[::2], v[1::2])]
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
    return _verify_classes(n2, ta.fpf_base(n2), _fpf_sorted_class)


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


def _involution(x):
    x = _seq(x)
    if not (ta.is_permutation(x) and ta.is_involution_perm(x)):
        raise ValueError("extremal atoms need an involution")
    return x


def hat0(x):
    """The minimal inverted atom of an involution x."""
    return ta._hat(_involution(x), 0)


def hat1(x):
    """The maximal inverted atom of an involution x."""
    return ta._hat(_involution(x), 1)


def _fpf_involution(x):
    x = _seq(x)
    if not (ta.is_permutation(x) and ta.is_fpf_involution(x)):
        raise ValueError("x is not fixed-point-free")
    return x


def hat0_fpf(x):
    """The minimal inverted atom of a fixed-point-free involution x."""
    return ta._hat_fpf(_fpf_involution(x), 0)


def hat1_fpf(x):
    """The maximal inverted atom of a fixed-point-free involution x."""
    return ta._hat_fpf(_fpf_involution(x), 1)


def is_321_avoiding(w):
    """No positions i < j < k carry a strictly decreasing triple of values."""
    w = _seq(w)
    n = len(w)
    for j in range(1, n - 1):
        if max(w[:j]) > w[j] and min(w[j + 1:]) < w[j]:
            return False
    return True


# -- inversion sets and posets -------------------------------------------------


def _a_inversions(u, x):
    n = len(x)
    lower = [a for a in range(1, n + 1) if a <= x[a - 1]]
    upper = [b for b in range(1, n + 1) if x[b - 1] < b]
    uinv = ta.inverse_perm(u)
    out = set()
    for i, p in enumerate(lower):
        for q in lower[:i]:
            if uinv[p - 1] < uinv[q - 1]:
                out.add((p, q))
    for i, p in enumerate(upper):
        for q in upper[i + 1:]:
            if uinv[p - 1] < uinv[q - 1]:
                out.add((p, q))
    return out


def a_inversion_set(u, x):
    """Inversions of an inverted atom u over the two-sided pair set of x."""
    u, x = _seq(u), _seq(x)
    if not ta.is_atom_absolute(ta.inverse_perm(u), x):
        raise ValueError("u not an atom inverse")
    return _a_inversions(u, x)


def fpf_embedding(u, x):
    """Image of an inverted FPF atom in S_n, pair by pair."""
    u = _seq(u)
    phi = {pair: i for i, pair in enumerate(ta.cyc(_fpf_involution(x)), 1)}
    out = []
    for i in range(0, len(u), 2):
        pair = (u[i], u[i + 1])
        if pair not in phi:
            raise ValueError("u not an atom inverse")
        out.append(phi[pair])
    return tuple(out)


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
    covers and the rank of v is one more than the rank of any u below it."""
    ranks = {bottom: bottom_rank}
    covers = []
    tops = []

    def record(u):
        out = moves(u)
        if not out:
            tops.append(u)
        rank = ranks[u] + 1
        for v, rise in out:
            if rise != 1:
                raise RuntimeError("rank function does not rise by one along moves")
            covers.append((u, v))
            ranks[v] = rank
        return [v for v, _ in out]

    cx.closure(bottom, record)
    if len(tops) != 1:
        raise RuntimeError("atom order is not bounded above")
    elements = tuple(sorted(ranks, key=lambda u: (ranks[u], u)))
    covers = tuple(sorted(covers, key=lambda e: (ranks[e[0]], e)))
    return AtomPoset(elements, covers, bottom, tops[0], ranks)


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


def atom_poset(x):
    """The graded poset of inverted atoms of an involution x."""
    x = _seq(x)
    bottom = hat0(x)
    return _build_poset(bottom, len(_a_inversions(bottom, x)), _ranked_moves(x))


def atom_poset_fpf(x):
    """The graded lattice of inverted FPF atoms of a fixed-point-free x."""
    x = _seq(x)
    bottom = hat0_fpf(x)
    return _build_poset(bottom, ta.perm_length(fpf_embedding(bottom, x)),
                        _ranked_moves_fpf(x))


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
