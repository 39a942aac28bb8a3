"""Twisted involutions, involution words, atoms, and Hecke atoms.

All functions take a CoxeterSystem plus an optional twist, a tuple giving
the image of each generator under an involutive diagram automorphism
(None means the identity twist). The twisted involutions are the group
elements whose inverse equals their twisted image.

Two products drive everything here. The conjugation step sends x and a
generator s to s*xs, or to xs when those coincide; folding it over a
reduced word walks the weak order on twisted involutions. Its monotone
variant (the Demazure step) ignores letters that are already descents,
which matches conjugating by the 0-Hecke product instead.

The tables derived per system and twist (the validated twist, the twisted
involutions as ids and the Hecke fibers of the identity base) and the left
chains of the Bruhat scan live in the system's one store through
``coxeter.memo``, and ``CoxeterSystem.cache_sizes()`` counts them. The
Hecke fibers of any other base x are the identity's, pulled back along a
chain of ascents up to x, so nothing is kept per base.
"""

import operator
from functools import partial
from heapq import heappop, heappush

from . import coxeter as cx
from .coxeter import closure, is_involutive_twist, normalize_twist, report


def _id_table(system):
    """The system's id table; ValueError when the group is above the cap."""
    t = system.id_table()
    if t is None:
        raise cx.too_large()
    return t


def _by_word(system, ws):
    """ws in (length, lex-min word) order."""
    return sorted(ws, key=lambda w: (system.length(w), system.reduced_word(w)))


@cx.memo
def _twist_key(system, twist):
    """The twist as a validated tuple; each hashable twist as given is
    validated once per system."""
    key = normalize_twist(system, twist)
    if not is_involutive_twist(system, key):
        raise ValueError("invalid twist: not involutive")
    return key


class _Rows(dict):
    """Rows by id, each filled by ``fill(x)`` the first time it is read."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, x):
        self.fill(x)
        return self[x]


class _TwistedIds:
    """The twisted involutions of one twist, numbered by ints.

    ``root`` is the identity's id. ``dact[x]`` holds, for each generator
    s = 1..rank, the id of the Demazure step of x by s (x itself on a right
    descent), and ``steps[x]`` the conjugation steps down the right descents
    of x as (letter, id) pairs, letters from 0. ``hat[x]`` is the common
    length of the involution words of x, one more than that of the step
    down its first right descent.

    Within the cap an id is the element's group id, so ids run in (length,
    lex-min word) order, and one closure of the identity fills every row.
    Above the cap ids number the twisted involutions as they are met. On
    both sides ``_number`` keys the ids by the images w[:rank] of the simple
    roots, which fix w. Above the cap a row is filled when first read, from
    its id's root permutation, kept only until then: a query numbers only
    the ids whose rows it reads and their steps.
    """

    root = 0

    def __init__(self, system, twist):
        self.system, self.twist, self._rank = system, twist, system.rank
        t = system.id_table()
        self._elements = t and t.elements
        if t is None:
            self._keys, self._number, self._perms = [], {}, {}
            # the roots s alpha_t for t = 1..rank, for each generator s
            self._heads = [g[:system.rank] for g in system._gen_perms]
            self.dact, self.steps = _Rows(self._fill), _Rows(self._fill)
            self.hat = _Rows(self._fill_hat)
            self.hat[self._id(system.identity[:system.rank], system.identity)] = 0
            self._order_key = self.hat.__getitem__
            return
        self._order_key = None
        right, left, descents = t.right, t.left, t.descents
        gens = [(s, twist[s] - 1) for s in range(len(right))]
        self.dact, self.steps = dact, steps = {}, {}

        def ascents(x):
            # the conjugation step: s*xs, or xs when s*x = xs
            ys = []
            for s, sstar in gens:
                lx, xr = left[sstar][x], right[s][x]
                ys.append(xr if lx == xr else right[s][lx])
            d = descents[x]
            steps[x] = tuple((s, y) for s, y in enumerate(ys) if d >> s & 1)
            dact[x] = tuple(x if d >> s & 1 else y for s, y in enumerate(ys))
            return dact[x]

        closure(0, ascents)  # every twisted involution is reached by ascents
        self.hat = hat = {}
        for x in sorted(steps):
            hat[x] = hat[steps[x][0][1]] + 1 if steps[x] else 0
        self._number = {t.elements[x][:self._rank]: x for x in hat}

    def _id(self, key, w):
        """The id of the twisted involution w of key w[:rank], numbered if new."""
        x = self._number.get(key)
        if x is None:
            x = self._number[key] = len(self._keys)
            self._keys.append(key)
            self._perms[x] = w
        return x

    def _fill(self, x):
        """The dact and steps rows of x from its root permutation w.
        Each conjugation step is formed only when its key is new: (w s)(alpha_t)
        is w(s alpha_t), and s* w s maps that by s* in turn."""
        system, twist, w = self.system, self.twist, self._perms.pop(x)
        p, gens = system.num_positive, system._gen_perms
        ys = []
        for s in range(system.rank):
            key = tuple(map(w.__getitem__, self._heads[s]))
            if w[s] % p != twist[s] - 1:  # not w(alpha_s) = +-alpha_s*, so s* w s
                key = tuple(map(gens[twist[s] - 1].__getitem__, key))
            y = self._number.get(key)
            ys.append(self._id(key, _rtimes(system, w, s + 1, twist)) if y is None else y)
        down = [s for s in range(system.rank) if w[s] >= p]
        self.steps[x] = tuple((s, ys[s]) for s in down)
        self.dact[x] = tuple(x if s in down else y for s, y in enumerate(ys))

    def _fill_hat(self, x):
        """Fill hat up from x's first steps down to a known one, without recursion."""
        chain = []
        while x not in self.hat:
            chain.append(x)
            x = self.steps[x][0][1]
        for z in reversed(chain):
            self.hat[z] = self.hat[x] + 1
            x = z

    def member(self, w):
        """The id of the element w; ValueError unless it is a twisted involution.
        Within the cap a key finds the only candidate, and a comparison with
        its element turns away a tuple that only starts like it."""
        key = w[:self._rank]
        x = self._number.get(key)
        if self._elements is not None:
            if x is not None and self._elements[x] == w:
                return x
        elif len(w) == 2 * self.system.num_positive:  # then a known key fixes w
            system = self.system
            if x is not None or system.apply_twist(w, self.twist) == system.inverse(w):
                return self._id(key, w)
        raise ValueError("element is not a twisted involution for this twist")

    def element(self, x):
        """The root permutation of the id x; above the cap, folded up its ascents."""
        if self._elements is not None:
            return self._elements[x]
        w = self.system.identity
        for s in _ascents_to(self, x):
            w = _rtimes(self.system, w, s + 1, self.twist)
        return w

    def key(self, x):
        """The images w[:rank] of the simple roots under the element w with id x."""
        return self._keys[x] if self._elements is None else self._elements[x][:self.system.rank]

    def down(self, y):
        """The ids of the weak down-set of the twisted involution with id y."""
        return closure(y, lambda z: (v for _, v in self.steps[z]))

    def order(self):
        """Every id, each after its steps down: by id within the cap, by hat above it."""
        return sorted(closure(self.root, self.dact.__getitem__), key=self._order_key)


@cx.memo
def _ids(system, twist):
    """The twisted involutions of the twist as ids, on either side of the cap."""
    return _TwistedIds(system, twist)


def rtimes(system, x, s, twist=None):
    """The conjugation step on twisted involutions: s*xs, or xs when s*x = xs."""
    twist = _twist_key(system, twist)
    return _rtimes(system, x, _letter(system, s), twist)


def _rtimes(system, x, s, twist):
    sstar = twist[s - 1]
    if x[s - 1] % system.num_positive == sstar - 1:  # x(alpha_s) = +-alpha_s*, so s*x = xs
        return system.right_mult(x, s)
    return system.right_mult(system.left_mult(sstar, x), s)


def dact(system, x, s, twist=None):
    """The monotone (Demazure) variant: the conjugation step on ascents, fixed on descents."""
    twist = _twist_key(system, twist)
    return _dact(system, x, _letter(system, s), twist)


def _dact(system, x, s, twist):
    if x[s - 1] >= system.num_positive:  # s is a right descent of x
        return x
    return _rtimes(system, x, s, twist)


def _letter(system, s):
    """s as an int; ValueError unless it is an integer in 1..rank."""
    try:
        a = operator.index(s)
    except TypeError:  # int() would truncate a float to a generator
        a = 0
    if not 1 <= a <= system.rank:
        raise ValueError("generator index out of range: %r" % (s,))
    return a


def _word(system, letters):
    """letters as a tuple of ints; ValueError for one outside 1..rank."""
    return tuple(_letter(system, a) for a in letters)


def dact_word(system, x, word, twist=None):
    twist = _twist_key(system, twist)
    for s in _word(system, word):
        x = _dact(system, x, s, twist)
    return x


def dact_element_via_demazure(system, x, w, twist=None):
    """Independent formula for the same fold: (w*)^{-1} o x o w in the 0-Hecke monoid."""
    twist = _twist_key(system, twist)
    wstar_inv = system.inverse(system.apply_twist(w, twist))
    return system.demazure_product(system.demazure_product(wstar_inv, x), w)


def enumerate_twisted(system, twist=None):
    """All twisted involutions in (length, lex-min word) order: the closure
    of the identity under the conjugation step, which the ids run in within
    the cap and are sorted into above it."""
    ids = _ids(system, _twist_key(system, twist))
    ws = map(ids.element, ids.order())
    return tuple(ws if system.id_table() is not None else _by_word(system, ws))


def hat_length(system, x, twist=None):
    """Common length of all involution words of x: a stored row, filled
    above the cap by walking the first steps down from x to a known one."""
    ids = _ids(system, _twist_key(system, twist))
    return ids.hat[ids.member(x)]


def weak_leq_T(system, x, y, twist=None):
    """Weak order on twisted involutions: is x below y (downward closure from y)."""
    ids = _ids(system, _twist_key(system, twist))
    return ids.member(x) in ids.down(ids.member(y))


def hecke_table(system, base, twist=None):
    """The Hecke atoms of every y relative to base, keyed by y.

    The fold w -> base o w sends each element to a twisted involution, and
    its fibers are the Hecke atom sets, each sorted by (length, word); the
    keys run by the first atom of each. Only available when the group is
    small enough to enumerate. Each fiber is the identity base's fiber
    pulled back along base (see ``_pull_back``), so nothing is kept per base.
    """
    twist = _twist_key(system, twist)
    t = _id_table(system)
    ids = _ids(system, twist)
    letters = _ascents_to(ids, ids.member(base))
    pulled = ((_pull_back(t, ws, letters), y) for y, ws in _id_fibers(system, twist).items())
    return {t.elements[y]: tuple(map(t.elements.__getitem__, ws)) for ws, y in sorted(pulled) if ws}


@cx.memo
def _id_fibers(system, twist):
    """The fibers of the identity base's fold w -> e o w, as lists of group
    ids in id order keyed by the twisted involution's id. The fold runs on
    ids in id order, so each element extends a shorter one by its first
    right descent."""
    t = _id_table(system)
    dact, right, first = _ids(system, twist).dact, t.right, t.first_descent
    images = [0] * len(t.elements)  # the identity's id is 0 in both tables
    fibers = {0: [0]}
    for w in range(1, len(images)):
        s = first[w]
        y = images[w] = dact[images[right[s][w]]][s]
        fibers.setdefault(y, []).append(w)
    return fibers


# The fold is an action of the 0-Hecke monoid: x o (u * v) = (x o u) o v for
# the Demazure product u * v. So for a step up x = x' o s along an ascent s of
# x', x o w = x' o (s * w), and the fiber of x over y is the preimage of the
# fiber of x' under w -> s * w. That map fixes w when s is a left descent of
# w and sends w to s w otherwise, so the preimage of v is {v, s v} when
# s v < v and empty otherwise: no element is reached twice. Every fiber is
# thus the identity base's fiber pulled back along a chain of ascents from
# the identity up to x.


def _ascents_to(ids, x):
    """The letters of a chain of ascents from the root up to the id x, read
    off the first step down of each id on the way down."""
    letters = []
    while x != ids.root:
        s, x = ids.steps[x][0]
        letters.append(s)
    return letters[::-1]


def _pull_back(t, fiber, letters, shortest=False):
    """The ids w with x o w = y, in id order, for the identity base's fiber
    of y and the letters of a chain of ascents up to x; with shortest, the
    shortest of them from the shortest of the fiber alone.

    A fiber over x is empty unless x <= y, and its shortest elements then
    have length hat(y) - hat(x): a chain of ascents from x to y folds x to
    y, and each letter raises hat by at most one. So a step up x = x' o s
    lowers the shortest length by one, and the shortest elements over x are
    the s v with s v < v for the shortest v over x'."""
    if shortest:
        fiber = _first_run(t, fiber)
    for s in letters:
        times_s, moved, kept = t.left[s], [], []
        for v in fiber:
            sv = times_s[v]
            if sv < v:
                moved.append(sv)
                kept.append(v)
        fiber = moved if shortest else moved + kept
    return sorted(fiber)


def hecke_atoms(system, y, x=None, twist=None):
    """All w with x folded against w equal to y, sorted by (length, word)."""
    twist = _twist_key(system, twist)
    ids = _ids(system, twist)
    xi, yi = ids.member(system.identity if x is None else x), ids.member(y)
    t = _id_table(system)
    ws = _pull_back(t, _id_fibers(system, twist).get(yi, ()), _ascents_to(ids, xi))
    return tuple(map(t.elements.__getitem__, ws))


def atoms(system, y, x=None, twist=None):
    """Minimal length Hecke atoms of y relative to x, sorted by reduced word."""
    twist = _twist_key(system, twist)
    ids = _ids(system, twist)
    xi, yi = ids.member(system.identity if x is None else x), ids.member(y)
    t = system.id_table()
    if t is not None:
        fiber = _id_fibers(system, twist).get(yi, ())
        us = _pull_back(t, fiber, _ascents_to(ids, xi), shortest=True)
        return tuple(map(t.elements.__getitem__, us))
    # above the cap: the atom pass down from y to x, its atoms root permutations
    left = [partial(system.left_mult, s + 1) for s in range(system.rank)]
    for z, us in _atom_pass(yi, ids.steps, left, system.identity, ids.hat):
        if z == xi:
            return tuple(_by_word(system, us))
    return ()


def _word_paths(system, y, x, twist):
    """The chains of ascents from x up to y as paths from y down its steps
    to x, in the (top, bottom, down) form of coxeter.paths: down(z) is the
    stored steps row of z as it is. Each step lowers hat by one, so no id at
    or below hat(x) has a step."""
    twist = _twist_key(system, twist)
    ids = _ids(system, twist)
    xi, yi = ids.member(system.identity if x is None else x), ids.member(y)
    hat, steps, floor = ids.hat, ids.steps, ids.hat[xi]

    def down(z):
        return steps[z] if hat[z] > floor else ()

    return yi, xi, down


def involution_words(system, y, x=None, twist=None):
    """All minimal transforming words from x to y, sorted."""
    return tuple(sorted(cx.paths(*_word_paths(system, y, x, twist))))


def count_involution_words(system, y, x=None, twist=None):
    """The number of involution_words(system, y, x, twist), not listed."""
    return cx.count_paths(*_word_paths(system, y, x, twist))


# Atoms from the chains that are the involution words: an involution word of
# (x, y) is a chain of ascents from x to y in the weak order on twisted
# involutions, which involution_words lists as a path, and the atoms are the
# products of those chains. So one top-down pass over the weak down-set of y
# gives the atoms of every x below it, with no fold of the group and no word
# listed. The pass keeps a set only until it is complete: the sweep runs it
# with atoms as group ids for each y, and atoms above the cap, where there is
# no group table to fold, with atoms as root permutations.
#
# The Bruhat oracle scans the ids w for w* y <= x w in Bruhat order. It reads
# only the id tables and the twist, never atoms, Hecke fibers or hat lengths,
# so it stays an independent check of them. Three general facts make it
# cheaper: the left side w* y does not depend on x, so one row of it serves
# every x below y; w = s w' with l(w') = l(w) - 1 gives w* y = s* (w'* y), so
# each length of the row is one left multiplication of the length below it;
# and w* y <= x w forces l(y) - l(w) <= l(w* y) <= l(x w) <= l(x) + l(w),
# so no w shorter than the floor ceil((l(y) - l(x)) / 2) can hit. The right
# side x w comes from the left chain of x, the left multiplications by the
# letters of its lex-min word from the last, each mapped over a whole length
# in turn; a chain is stored once its id is read as x, and no word is listed.
# One helper scans one length of one pair, and its callers step it up from
# the floor: the sweep and bruhat_atoms stop at the first length with a hit,
# and bruhat_hecke takes every length.


def _atom_pass(y, steps, left, e, hat):
    """Yield (x, A(x, y)) for every x in the weak down-set of the id y, each
    set as soon as it is complete.

    ``steps[z]`` gives a (letter, step down) pair for each right descent of
    z, ``left[s]`` multiplies on the left by the letter s, e is the identity
    and ``hat[z]`` is the hat length of z. From A(y, y) = {e}, each atom u
    of z and each pair (s, z') of z give the atom s u of z'. No test of
    s u > u is needed. A chain of ascents from z' to y folds z' to y as its
    Demazure product does; that product is shorter than the chain unless
    the chain is reduced, and nothing shorter than hat(y) - hat(z') folds
    z' to y. The ids leave a heap by decreasing hat, each pushed when first
    met: a step down lowers hat by exactly one, so every id comes out after
    all the ids above it, and no down-set is listed or sorted first.
    """
    below, heap = {y: {e}}, [(-hat[y], y)]
    while heap:
        z = heappop(heap)[1]
        us = below.pop(z)
        for s, zs in steps[z]:
            got = below.get(zs)
            if got is None:
                got = below[zs] = set()
                heappush(heap, (-hat[zs], zs))
            got.update(map(left[s], us))
        yield z, us


def _star_row(t, y, twist):
    """The row of w* y for the id y, as a function of k giving the ids of
    w* y for the ids w of length k, in id order. A scan that first reaches
    length k builds it and every shorter length not yet built, each from the
    length below it: if s is the first left descent of w and w' = s w,
    then w* y = s* (w'* y), one left multiplication per entry."""
    left, first, start = t.left, t.first_left, t.start
    # heads[s] = (the ids of s w, the ids of s* v), each indexed by the id
    heads = [(left[s], left[twist[s] - 1]) for s in range(len(left))]
    levels = [[y]]

    def level(k):
        while len(levels) <= k:
            n = len(levels)
            below, off, got = levels[-1], start[n - 1], []
            for w in range(start[n], start[n + 1]):
                down, up = heads[first[w]]
                got.append(up[below[down[w] - off]])
            levels.append(got)
        return levels[k]

    return level


@cx.memo
def _chains(system):
    """The left chain of each id x, filled when x is first read: the row
    getters of the left tables of the letters of the lex-min word of x,
    last letter first, so mapping them in turn over ids w gives the ids of
    x w. That word is the first left descent s of x, then the word of s x,
    so a fill walks down first left descents to a stored id or the identity
    and stores x alone."""
    t = _id_table(system)
    first, left = t.first_left, t.left
    times = [row.__getitem__ for row in left]

    def fill(x):
        got, z = [], x
        while z and z not in chains:
            s = first[z]
            got.append(times[s])
            z = left[s][z]
        chains[x] = (chains[z] if z else ()) + tuple(reversed(got))

    chains = _Rows(fill)
    return chains


def _floor(t, y, x):
    """The shortest length a hit of the ids y and x can have."""
    return max(0, (t.length[y] - t.length[x] + 1) // 2)


def _scan(t, row, chain, k):
    """The ids w of length k with w* y <= x w in Bruhat order, in id order,
    for the row of y and the chain of x."""
    ws = range(t.start[k], t.start[k + 1])
    rhs = ws
    for times in chain:
        rhs = map(times, rhs)
    length, leq = t.length, t.bruhat_leq
    # most candidates fail on length alone, so that test runs inline
    return [w for w, lhs, r in zip(ws, row(k), rhs)
            if lhs == r or length[lhs] < length[r] and leq(lhs, r)]


def _first_hits(t, row, chain, k):
    """The scan of the first length from k up that has a hit, or []."""
    got = _scan(t, row, chain, k)
    while not got and k < len(t.start) - 2:
        k += 1
        got = _scan(t, row, chain, k)
    return got


def _first_run(t, ids):
    """The first run of equal length in ids, which run by length; reads no
    further than the first id after it."""
    out = []
    for w in ids:
        if out and t.length[w] > t.length[out[0]]:
            break
        out.append(w)
    return out


def _bruhat_pair(system, y, x, twist):
    """The id table, the row of y, the chain of x and the length floor of
    one pair of elements."""
    twist = _twist_key(system, twist)
    ids = _ids(system, twist)
    x, y = ids.member(system.identity if x is None else x), ids.member(y)
    t = _id_table(system)
    return t, _star_row(t, y, twist), _chains(system)[x], _floor(t, y, x)


def bruhat_hecke(system, y, x=None, twist=None):
    """All w with w* y <= x w in Bruhat order (the conjectural Hecke atom superset)."""
    t, row, chain, floor = _bruhat_pair(system, y, x, twist)
    return tuple(t.elements[w] for k in range(floor, len(t.start) - 1)
                 for w in _scan(t, row, chain, k))


def bruhat_atoms(system, y, x=None, twist=None):
    """Minimal length elements of the conjectural Bruhat characterization.

    Stops scanning after the first length that has a hit.
    """
    t, row, chain, floor = _bruhat_pair(system, y, x, twist)
    return tuple(map(t.elements.__getitem__, _first_hits(t, row, chain, floor)))


def check_conjecture(system, twist=None, ys=None):
    """Compare atoms with the minimal Bruhat-characterized elements over all
    comparable pairs of twisted involutions. Returns a JSON-ready report.

    For each y, one top-down pass gives the atoms of every x in the
    down-set of y, and one row of w* y serves the oracle's scan for each of
    those x; neither stores a ``hecke_table``. Failures are
    listed by y, then by x in id order.

    ys restricts the sweep to the given upper elements, so the pair space
    can be partitioned across worker processes and the reports merged.
    """
    twist = _twist_key(system, twist)
    t = _id_table(system)
    ids = _ids(system, twist)
    chains = _chains(system)
    left = [row.__getitem__ for row in t.left]
    pairs = 0
    failures = []

    def word(w):
        return list(system.reduced_word(t.elements[w]))

    for y in ids.order() if ys is None else [ids.member(v) for v in ys]:
        row = _star_row(t, y, twist)
        wrong = []
        for x, us in _atom_pass(y, ids.steps, left, ids.root, ids.hat):
            pairs += 1
            expected = sorted(us)
            got = _first_hits(t, row, chains[x], _floor(t, y, x))
            if expected != got:
                wrong.append((x, expected, got))
        failures += [{"x": word(x), "y": word(y), "expected": list(map(word, expected)),
                      "got": list(map(word, got))} for x, expected, got in sorted(wrong)]
    return report(system, pairs, failures)


# -- duality ----------------------------------------------------------------
#
# The word verdicts follow from the atom verdicts. The involution words of a
# pair are the reduced words of its atoms, the reduced words of w^-1 are those
# of w reversed (the word property, Bjorner-Brenti 3.3.1), and distinct
# elements have disjoint, non-empty sets of reduced words. So the words of one
# atom set are the reversed words of another exactly when the first set is
# the second inverted, and no reduced word needs listing.


def dual_twist(system, v0, twist=None):
    """The twist w -> v0 w* v0 as a generator permutation.

    v0 must be a self-inverse twisted involution whose conjugation action
    preserves the generating set; otherwise ValueError("invalid v0").
    """
    twist = _twist_key(system, twist)
    if v0 != system.inverse(v0):
        raise ValueError("invalid v0: not self-inverse")
    if system.apply_twist(v0, twist) != v0:
        raise ValueError("invalid v0: not fixed by the twist")
    gens = {system.generator(s): s for s in range(1, system.rank + 1)}
    diamond = []
    for s in range(1, system.rank + 1):
        g = system.generator(twist[s - 1])
        img = system.multiply(system.multiply(v0, g), v0)
        if img not in gens:
            raise ValueError("invalid v0: conjugation does not preserve the generators")
        diamond.append(gens[img])
    diamond = tuple(diamond)
    if not is_involutive_twist(system, diamond):
        raise ValueError("invalid v0: induced twist is not involutive")
    return diamond


def check_duality(system, v0, twist=None):
    """Verify the translation between the twist and its v0-conjugated twin.

    Checks that left multiplication by v0 is a bijection from the twisted
    involutions of the conjugated twist onto those of the original twist and
    that it intertwines the conjugation steps. When v0 is the longest element
    the reversal and inversion identities for words and atoms between the two
    twists are verified on all comparable pairs as well, the words' verdict
    read off the atoms' (see the note above).

    Both twists are read off their tables (see ``_ids``) on either side of
    the cap: v0 x is the ``member`` id of the product of elements, a
    conjugation step is a ``dact`` or ``steps`` entry and a hat length a
    ``hat`` entry.
    """
    twist = _twist_key(system, twist)
    diamond = dual_twist(system, v0, twist)
    star, dia = _ids(system, twist), _ids(system, diamond)
    # each id x of the conjugated twist: its element, v0 x, and the id of v0 x
    elements = {x: dia.element(x) for x in dia.order()}
    v0x = {x: system.multiply(v0, w) for x, w in elements.items()}
    vx = {x: star.member(w) for x, w in v0x.items()}

    def word(x):
        return list(system.reduced_word(elements[x]))

    failures = []
    checks = 1
    if set(vx.values()) != set(star.order()):
        failures.append({"check": "bijection", "detail": "v0 * I_diamond != I_star"})
    for x, z in vx.items():
        for s, (lhs, rhs) in enumerate(zip(_conjugations(star, z), _conjugations(dia, x))):
            checks += 1
            if lhs != vx[rhs]:
                failures.append({"check": "intertwine", "x": word(x), "s": s + 1})

    if v0 == system.longest_element():
        top = star.hat[star.member(v0)]
        for x, z in vx.items():
            checks += 1
            if dia.hat[x] != top - star.hat[z]:
                failures.append({"check": "hat-length", "x": word(x)})
        for y in dia.order():
            for x in dia.down(y):
                checks += 2
                a_d = set(atoms(system, elements[y], elements[x], diamond))
                a_s = set(atoms(system, v0x[x], v0x[y], twist))
                if {system.inverse(w) for w in a_s} != a_d:
                    # and the words are not reversed (see the note above)
                    failures.extend({"check": c, "x": word(x), "y": word(y)}
                                    for c in ("atoms-inverse", "words-reversed"))
    return report(system, checks, failures)


def _conjugations(ids, x):
    """The conjugation steps of the id x by each letter, from 0: its
    Demazure step on an ascent and its step down on a descent."""
    row = list(ids.dact[x])
    for s, z in ids.steps[x]:
        row[s] = z
    return row


def is_central_parabolic_longest(system, w):
    """Is w the longest element of a standard parabolic factor, central in it,
    with the factor commuting with the rest of the diagram."""
    if w == system.identity:
        return True
    support = sorted(set(system.reduced_word(w)))
    if w != system.longest_element(support):
        return False
    for s in support:
        if system.left_mult(s, w) != system.right_mult(w, s):
            return False
    outside = [t for t in range(1, system.rank + 1) if t not in support]
    return all(system.bond(s, t) == 2 for s in support for t in outside)


def check_central_closure(system, w, twist=None):
    """For w as above, involution words are closed under reversal and
    atoms and Hecke atoms under inversion. Returns a JSON-ready report."""
    twist = _twist_key(system, twist)
    if not is_central_parabolic_longest(system, w):
        raise ValueError("element is not the central longest element of a split factor")
    failures = []
    ats = set(atoms(system, w, None, twist))
    if {system.inverse(u) for u in ats} != ats:
        # and the words are not closed under reversal (see the duality note)
        failures += [{"check": "words-reversal"}, {"check": "atoms-inverse"}]
    hk = set(hecke_atoms(system, w, None, twist))
    if {system.inverse(u) for u in hk} != hk:
        failures.append({"check": "hecke-inverse"})
    return report(system, 3, failures)


def check_bruhat_descriptions(system, twist=None):
    """Compare the two routes to Hecke atoms of the longest element and to
    atoms of every twisted involution. Returns a JSON-ready report."""
    twist = _twist_key(system, twist)
    w0, ys = system.longest_element(), enumerate_twisted(system, twist)
    failures = [{"check": "hecke-longest"}] if (
        hecke_atoms(system, w0, None, twist) != bruhat_hecke(system, w0, None, twist)) else []
    failures += [{"check": "atoms", "y": list(system.reduced_word(y))} for y in ys
                 if set(atoms(system, y, None, twist)) != set(bruhat_atoms(system, y, None, twist))]
    return report(system, 1 + len(ys), failures)
