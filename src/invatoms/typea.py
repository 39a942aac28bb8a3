"""Involution combinatorics of the symmetric group on one-line tuples.

Permutations are tuples p of 1..n with p[i-1] the image of i, composed
functionally (u v applies v first). Right multiplication by the adjacent
transposition s_i swaps positions i, i+1; left multiplication swaps values
i, i+1. This module is independent of the reflection representation in
coxeter.py so the two can cross-check each other: it borrows only the
generic BFS helper closure, and the Hecke atoms' orders.chinese_class.

The second half implements the colored involution calculus: partial
matchings of [2n] with vertices colored by 1..n, two vertices per color,
matched vertices sharing a color. These drive the pattern classification
of atoms of an involution in the symmetric group.
"""

from functools import lru_cache
from itertools import chain, combinations, permutations, starmap
from operator import gt, itemgetter

from .coxeter import closure, report


def identity_perm(n):
    return tuple(range(1, n + 1))


def inverse_perm(p):
    out = [0] * len(p)
    for i, v in enumerate(p, 1):
        out[v - 1] = i
    return tuple(out)


def perm_length(p):
    return sum(starmap(gt, combinations(p, 2)))


def is_permutation(p):
    return sorted(p) == list(range(1, len(p) + 1))


def right_descents_perm(p):
    return tuple(i for i in range(1, len(p)) if p[i - 1] > p[i])


def is_involution_perm(p):
    # an entry v <= 0 at i reads p from the end, at j = n + v: p(j) = i would
    # need p(i) = j, but p(i) = v < j; so only an entry above n can raise
    try:
        return all(p[v - 1] == i for i, v in enumerate(p, 1))
    except IndexError:
        return False


def _check_involutions(what, n, *perms):
    """ValueError unless every perm is an involution in S_n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    for p in perms:
        if len(p) != n:
            raise ValueError("%s need involutions of the same size" % what)
    for p in perms:
        if not is_involution_perm(p):
            raise ValueError("%s need involutions" % what)


def cyc(y):
    """Cycles (a, y(a)) with a <= y(a), fixed points included, sorted."""
    return tuple((a, y[a - 1]) for a in range(1, len(y) + 1) if a <= y[a - 1])


def fix(y):
    return tuple(a for a in range(1, len(y) + 1) if y[a - 1] == a)


def gamma_set(y):
    """Cycles of y plus all strictly decreasing pairs of fixed points."""
    fixed = fix(y)
    extra = {(a, b) for a in fixed for b in fixed if b < a}
    return frozenset(cyc(y)) | extra


def rtimes_perm(x, i):
    """Conjugation step on involutions: s_i x s_i, or x s_i when they agree."""
    q = list(x)
    q[i - 1], q[i] = q[i], q[i - 1]
    if {x[i - 1], x[i]} != {i, i + 1}:
        a, b = q.index(i), q.index(i + 1)
        q[a], q[b] = i + 1, i
    return tuple(q)


def dact_perm(x, i):
    if x[i - 1] > x[i]:
        return x
    return rtimes_perm(x, i)


def hat_perm(x):
    """Common length of the involution words of x: (inversions + 2-cycles)/2."""
    two = sum(1 for a, b in cyc(x) if a < b)
    return (perm_length(x) + two) // 2


def fpf_base(n):
    """The matching 2-cycle involution [2,1,4,3,...] of S_n (n even)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n % 2:
        raise ValueError("fixed-point-free involutions need even size")
    out = []
    for i in range(1, n, 2):
        out.extend((i + 1, i))
    return tuple(out)


def is_fpf_involution(p):
    return is_involution_perm(p) and all(p[i - 1] != i for i in range(1, len(p) + 1))


def enumerate_involutions(n, fpf=False):
    """All involutions of S_n (all fixed-point-free ones when fpf), in BFS
    order under the conjugation steps."""
    if n < 0:
        raise ValueError("n must be non-negative")
    start = fpf_base(n) if fpf else identity_perm(n)
    # with fpf, no toggle step: it leaves the fixed-point-free set
    return tuple(closure(start, lambda x: [rtimes_perm(x, i) for i in range(1, n)
                                           if not (fpf and {x[i - 1], x[i]} == {i, i + 1})]))


@lru_cache(maxsize=32)
def _swappers(n):
    """Per i in 1..n-1, the itemgetter that swaps positions i, i+1 of an
    n-tuple, that is right multiplication by s_i (entry 0 is unused)."""
    out = [None]
    for i in range(1, n):
        idx = list(range(n))
        idx[i - 1], idx[i] = i, i - 1
        out.append(itemgetter(*idx))
    return tuple(out)


def hecke_image_table(n, base=None):
    """base folded against every element of S_n, keyed by element: the
    brute-force oracle of hecke_atoms_perm and atoms_perm. One BFS over
    ascents from the identity folds each element once, from the element
    that first reaches it, and computes each image's fold steps once."""
    start = identity_perm(n)
    if base is None:
        base = start
    _check_involutions("Hecke images", n, base)
    swap = _swappers(n)
    table = {start: base}
    steps = {}  # image -> its fold by each s_i
    queue = [start]
    for p in queue:
        img = table[p]
        folds = steps.get(img)
        if folds is None:
            folds = steps[img] = (None,) + tuple(dact_perm(img, i) for i in range(1, n))
        for i in range(1, n):
            if p[i - 1] < p[i]:
                q = swap[i](p)
                if q not in table:
                    table[q] = folds[i]
                    queue.append(q)
    return table


# The fold is an action of the 0-Hecke monoid (see twisted.py): for a step up
# x = x' o s_i along an ascent i of x', the fiber of x over y is {v, s_i v}
# for the v over x' with s_i v < v, and its shortest elements are the s_i v
# of the shortest v. So every fiber is the identity's pulled back along a
# chain of ascents up to x. On u = v^-1, s_i v < v is u(i) > u(i + 1) and
# s_i v is u s_i.


def _ascents(base):
    """The letters of a chain of ascents from the identity up to base, read
    off the first right descent of each involution on the way down."""
    letters = []
    for _ in range(hat_perm(base)):  # each step down lowers hat by one
        letters.append(right_descents_perm(base)[0])
        base = rtimes_perm(base, letters[-1])
    return letters[::-1]


def _pull_back(inverted, base, shortest=False):
    """The inverted fiber of base over y, from the inverted fiber of the
    identity over y; with shortest, the shortest elements of the one from
    the shortest elements of the other."""
    swap = _swappers(len(base))
    for i in _ascents(base):
        kept = [u for u in inverted if u[i - 1] > u[i]]
        inverted = list(map(swap[i], kept))
        if not shortest:
            inverted += kept
    return inverted


def hecke_atoms_perm(y, base=None):
    """All w in S_n with base folded against w equal to y, sorted by
    (length, w): relative to the identity, the inverses of the class of
    hat0(y) under the Chinese relation; any other base pulls them back."""
    from . import orders  # orders imports this module

    n = len(y)
    _check_involutions("Hecke atoms", n, y, *(() if base is None else (base,)))
    inverted = orders.chinese_class(_hat(cyc(y)))
    if base is not None:
        inverted = _pull_back(inverted, base)
    return tuple(sorted(map(inverse_perm, inverted), key=lambda w: (perm_length(w), w)))


# -- atoms as the closure of the bottom atom -----------------------------------


def _hat(cycles):
    """The inverted atom relative to the identity that writes the cycles
    (a, b), a <= b, in the given order as b a, a fixed point once: cyc(y)
    gives the bottom hat0(y), cyc(y) sorted by b the top hat1(y)."""
    out = []
    for a, b in cycles:
        out += (b, a) if a < b else (a,)
    return tuple(out)


def _hat_fpf(cycles):
    """The inverted atom of a fixed-point-free involution relative to
    fpf_base that writes its cycles (a, b), a < b, in the given order, each
    as a b: the bottom from cyc(y), the top from it sorted by b."""
    return tuple(chain.from_iterable(cycles))


def _up_steps(seq):
    """The sequences one upward three-letter move cab -> bca above seq, for
    a <= b <= c not all equal: the length-preserving Chinese move."""
    out = []
    for i in range(len(seq) - 2):
        c, a, b = seq[i:i + 3]
        if a <= b <= c and a < c:
            out.append(seq[:i] + (b, c, a) + seq[i + 3:])
    return out


def _up_steps_fpf(seq):
    """The sequences one upward four-letter move adbc -> bcad above seq, on a
    window starting at an even offset, for a <= b <= c <= d with a < b or
    c < d."""
    out = []
    for i in range(0, len(seq) - 3, 2):
        a, d, b, c = seq[i:i + 4]
        if a <= b <= c <= d and (a < b or c < d):
            out.append(seq[:i] + (b, c, a, d) + seq[i + 4:])
    return out


def atoms_perm(y, base=None):
    """Minimal length Hecke atoms of y relative to base, sorted.

    Relative to the identity, the inverted atoms of y form a graded poset
    whose unique minimum is the bottom atom hat0(y) and whose covers are
    the upward moves cab -> bca; so the atoms are the inverses of the
    closure of hat0(y) under those moves. Relative to fpf_base(n) the same
    holds for a fixed-point-free y with hat0_fpf(y) and the aligned moves
    adbc -> bcad, and a y with a fixed point has no atoms. Any other base
    pulls the identity base's atoms back along a chain of ascents.
    """
    n = len(y)
    _check_involutions("atoms", n, y, *(() if base is None else (base,)))
    cycles = cyc(y)
    if base is None or base == identity_perm(n):
        inverted = closure(_hat(cycles), _up_steps)
    elif n % 2 == 0 and base == fpf_base(n):
        return _atoms_fpf(cycles, n)
    else:
        inverted = _pull_back(closure(_hat(cycles), _up_steps), base, shortest=True)
    return tuple(sorted(map(inverse_perm, inverted)))


def atoms_fpf_perm(y):
    """atoms_perm(y, fpf_base(len(y))), with only y to check: a y of odd
    size has no FPF base."""
    n = len(y)
    if n % 2:
        raise ValueError("fixed-point-free involutions need even size")
    _check_involutions("atoms", n, y)
    return _atoms_fpf(cyc(y), n)


def _atoms_fpf(cycles, n):
    """The atoms relative to fpf_base(n) of the involution y in S_n with
    cycles cyc(y): none when y has a fixed point."""
    if len(cycles) * 2 != n:  # a fixed point
        return ()
    return tuple(sorted(map(inverse_perm, closure(_hat_fpf(cycles), _up_steps_fpf))))


# -- pattern classifiers ------------------------------------------------------


def _pair_image(w, pair):
    a, b = pair
    return (w[a - 1], w[b - 1])


def is_atom_absolute(w, y):
    """Membership of w in the atoms of y relative to the identity, by the
    cycle pattern test (no recursion)."""
    cycles = cyc(y)
    for a, b in cycles:
        wa, wb = w[a - 1], w[b - 1]
        if wb > wa:
            return False
        if any(wb < w[t - 1] < wa for t in range(a + 1, b)):
            return False
    for a, b in cycles:
        for a2, b2 in cycles:
            if a < a2 and b < b2:
                wa, wb = w[a - 1], w[b - 1]
                wa2, wb2 = w[a2 - 1], w[b2 - 1]
                if not (wb <= wa < wb2 <= wa2):
                    return False
    return True


def is_atom_longest(u):
    """Membership of u in the atoms of the order-reversing involution."""
    n = len(u)
    for i in range(1, n + 1):
        r = n + 1 - i
        if i < r and not u[r - 1] < u[i - 1]:
            return False
        for j in range(i + 1, r):
            if not (u[j - 1] < u[r - 1] or u[i - 1] < u[j - 1]):
                return False
    return True


def is_atom_fpf(w, y):
    """Membership of w in the atoms of fixed-point-free y relative to the
    matching base, by the cycle pattern test."""
    if not is_fpf_involution(y):
        raise ValueError("y is not fixed-point-free")
    cycles = [(a, b) for a, b in cyc(y) if a < b]
    for a, b in cycles:
        wa, wb = w[a - 1], w[b - 1]
        if wa % 2 == 0 or wb != wa + 1:
            return False
    for a, b in cycles:
        for a2, b2 in cycles:
            if a < a2 and b < b2:
                if not (w[a - 1] < w[b - 1] < w[a2 - 1] < w[b2 - 1]):
                    return False
    return True


def is_atom_general(w, x, y):
    """Membership of w in the atoms of y relative to x, by the numeric
    inequalities on pairs of cycles."""
    cycles = cyc(y)
    fixed_x = set(fix(x))
    cyc_x = set(cyc(x))
    for a, b in cycles:
        wa, wb = w[a - 1], w[b - 1]
        if wa < wb:
            if (wa, wb) not in cyc_x:
                return False
        elif not (wa in fixed_x and wb in fixed_x):
            return False
    k = len(cycles)
    for p in range(k):
        for q in range(k):
            if p == q:
                continue
            a, b = cycles[p]
            a2, b2 = cycles[q]
            if a > a2:
                continue  # the swapped pair is checked separately
            wa, wb = w[a - 1], w[b - 1]
            wa2, wb2 = w[a2 - 1], w[b2 - 1]
            if b < a2:
                if not (wa < wa2 and wa < wb2 and wb < wb2 and wb < wa2):
                    return False
            elif a2 < b < b2:
                if not (wa < wa2 and wa < wb2 and wb < wb2):
                    return False
            elif a2 < b2 < b:
                if wb < wa2 < wa or wb < wb2 < wa:
                    return False
                if wa2 < wa < wb < wb2 or (wa2 < wb <= wa < wb2):
                    return False
            elif a2 == b2 and a < a2 < b:
                if wb < wa2 < wa:
                    return False
    return True


# -- colored involutions ------------------------------------------------------


def std(seq):
    """Standardization: replace letters by 1..len, ties left to right."""
    order = sorted(range(len(seq)), key=lambda i: (seq[i], i))
    out = [0] * len(seq)
    for rank, i in enumerate(order, 1):
        out[i] = rank
    return tuple(out)


def colored_pi(alpha):
    """Underlying matching as an involution of S_2n."""
    colors, edges = alpha
    p = list(range(1, len(colors) + 1))
    for a, b in edges:
        p[a - 1], p[b - 1] = b, a
    return tuple(p)


def tau(w):
    """Colored involution pairing up the one-line entries of w two at a time:
    vertices w(2i-1), w(2i) get color i, joined when w(2i-1) > w(2i)."""
    if len(w) % 2:
        raise ValueError("tau needs a permutation of even size")
    if not is_permutation(w):
        raise ValueError("tau needs a permutation")
    colors = [0] * len(w)
    edges = []
    for i in range(1, len(w) // 2 + 1):
        a, b = w[2 * i - 2], w[2 * i - 1]
        colors[a - 1] = colors[b - 1] = i
        if a > b:
            edges.append((b, a))
    return (tuple(colors), tuple(sorted(edges)))


def sigma(*pairs):
    """Colored involution of a sequence of integer pairs (a_i, b_i): vertices
    carry the standardized positions, color i joined exactly when a_i < b_i."""
    flat = []
    for a, b in pairs:
        flat.extend((b, a))
    word = std(flat)
    colors = [0] * len(word)
    edges = []
    for i, (a, b) in enumerate(pairs, 1):
        bp, ap = word[2 * i - 2], word[2 * i - 1]
        colors[ap - 1] = colors[bp - 1] = i
        if a < b:
            edges.append((min(ap, bp), max(ap, bp)))
    return (tuple(colors), tuple(sorted(edges)))


def colored_rtimes(alpha, i):
    """Conjugation step on colored involutions by the transposition i, i+1:
    toggles the edge when both vertices share a color and are matched to each
    other or both unmatched, otherwise relabels the two vertices."""
    colors, edges = alpha
    if not 1 <= i < len(colors):
        raise ValueError("transposition out of range")
    pi = colored_pi(alpha)
    if {pi[i - 1], pi[i]} == {i, i + 1} and colors[i - 1] == colors[i]:
        e = (i, i + 1)
        if e in edges:
            new_edges = tuple(x for x in edges if x != e)
        else:
            new_edges = tuple(sorted(edges + (e,)))
        return (colors, new_edges)
    swap = {i: i + 1, i + 1: i}
    new_colors = list(colors)
    new_colors[i - 1], new_colors[i] = new_colors[i], new_colors[i - 1]
    new_edges = []
    for a, b in edges:
        a2, b2 = swap.get(a, a), swap.get(b, b)
        new_edges.append((min(a2, b2), max(a2, b2)))
    return (tuple(new_colors), tuple(sorted(new_edges)))


@lru_cache(maxsize=32)
def _colored_down(beta):
    """The colored involutions below beta: its closure under the descending
    conjugation steps."""
    def lower(a):
        pi = colored_pi(a)
        return [colored_rtimes(a, i) for i in range(1, len(pi)) if pi[i - 1] > pi[i]]

    return frozenset(closure(beta, lower))


def prec_leq(alpha, beta):
    """The order generated by descending conjugation steps that change the
    underlying matching: is alpha below beta."""
    if len(alpha[0]) != len(beta[0]):
        raise ValueError("colored involutions have different sizes")
    return alpha in _colored_down(beta)


def is_atom_colored(w, x, y):
    """Atom membership by the colored involution form of the pattern test."""
    cycles = cyc(y)
    gam = gamma_set(x)
    for g in cycles:
        if _pair_image(w, g) not in gam:
            return False
    for p in range(len(cycles)):
        for q in range(p + 1, len(cycles)):
            g, g2 = cycles[p], cycles[q]
            if not prec_leq(sigma(_pair_image(w, g), _pair_image(w, g2)), sigma(g, g2)):
                return False
    return True


def _sigma_test(x, y):
    """The single-comparison form of the pattern test as a predicate on w:
    cycle images in order, one colored comparison across all cycles of y at
    once. The cycles of y, Gamma(x) and the colored involutions below sigma
    of those cycles are read once."""
    cycles, gam = cyc(y), gamma_set(x)
    below = _colored_down(sigma(*cycles))
    return lambda w: (all(_pair_image(w, g) in gam for g in cycles)
                      and sigma(*(_pair_image(w, g) for g in cycles)) in below)


def check_sigma_conjecture(n_max=5, k_max=3):
    """Compare the single-comparison test against the recursion-computed atom
    sets for every pair of involutions with few enough cycles."""
    pairs = 0
    failures = []
    for n in range(1, n_max + 1):
        univ = sorted(enumerate_involutions(n))
        perms = list(permutations(range(1, n + 1)))
        for y in univ:
            if len(cyc(y)) > k_max:
                continue
            for x in univ:
                if hat_perm(x) > hat_perm(y):
                    continue
                truth = set(atoms_perm(y, x))
                pairs += 1
                holds = _sigma_test(x, y)
                for w in perms:
                    if holds(w) != (w in truth):
                        failures.append({"n": n, "x": x, "y": y, "w": w})
    return report("symmetric groups up to S_%d" % n_max, pairs, failures)
