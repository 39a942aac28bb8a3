"""Finite Coxeter systems realized by their action on root systems.

A system is built from a Coxeter matrix. Group elements are stored as
permutations of the root index set: roots 0..P-1 are the positive roots
and root i+P is the negative of root i. This makes length, descents, and
products cheap integer operations. The roots are found in exact integer
arithmetic, so no rounding decides which roots are equal.

Generators are numbered 1..rank everywhere in the public interface.
"""

import math
import numbers
from collections import Counter, deque
from functools import lru_cache, wraps
from operator import itemgetter

DEFAULT_ROOT_CAP = 10000  # the most positive roots a system may have: a memory bound
ENUMERATION_CAP = 50000  # the largest |W| whose id table is built
# the most root indices the id table's element tuples may hold, |W| * 2|Phi+|:
# a memory bound just above B6's 46080 * 72, which leaves I2(m) for m >= 922 above it
ENTRY_CAP = 3400000


def closure(seed, neighbors):
    """Everything reachable from seed by neighbors steps, as a set-like view in BFS order."""
    seen = {seed: None}
    queue = deque([seed])
    while queue:
        for v in neighbors(queue.popleft()):
            if v not in seen:
                seen[v] = None
                queue.append(v)
    return seen.keys()


def _levels(top, down):
    """The levels of nodes below top, top first, each a dict from a node u
    to its steps down(u); the lowest level's nodes have no step down."""
    levels, level = [], {top: None}
    while level:
        below = {}
        for u in level:
            level[u] = steps = down(u)
            for _, v in steps:
                below[v] = None
        levels.append(level)
        level = below
    return levels


def paths(top, bottom, down):
    """The words of the paths from top down to bottom, as a list; a word
    reads its letters from bottom up.

    down(u) gives an (s, v) pair for each step from u down to v, in the
    format of the stored step rows: the letter s counts from 0 and is
    spelled s + 1. Each step lowers a rank by exactly one, so the nodes k
    steps below top form one level, and no node of bottom's rank has a step
    down, so the lowest level holds bottom if a path reaches it. The words
    are built one level at a time from the lowest, with no recursion, so
    only two levels of word lists are alive at once.
    """
    levels = _levels(top, down)
    words = {u: [] for u in levels.pop()}
    if bottom in words:
        words[bottom].append(())
    for level in reversed(levels):
        below, words = words, {}
        for u, steps in level.items():
            words[u] = out = []
            for s, v in steps:
                a = (s + 1,)
                for w in below[v]:
                    out.append(w + a)
    return words[top]


def count_paths(top, bottom, down):
    """The number of paths from top down to bottom, under the contract of
    paths, counted one level at a time from the lowest without listing them."""
    levels = _levels(top, down)
    counts = dict.fromkeys(levels.pop(), 0)
    if bottom in counts:
        counts[bottom] = 1
    for level in reversed(levels):
        below, counts = counts, {}
        for u, steps in level.items():
            c = 0
            for _, v in steps:
                c += below[v]
            counts[u] = c
    return counts[top]


def report(system, checked, failures, **extra):
    """The one JSON-ready report of every whole-set checker: the system's
    name ("custom" for a bare matrix) or a given string, any extra keys,
    then the number of checks made and the failures."""
    name = system if isinstance(system, str) else system.name or "custom"
    return {"system": name, **extra, "pairs_checked": checked, "failures": failures}


def memo(fn):
    """Keep fn(system, *args) in the system's one store of derived tables,
    keyed by fn's "module.function" name and by args with fn's defaults
    filled in, so each value has one key. A call with an unhashable
    argument, such as a twist given as a list, is computed and kept nowhere.
    ``CoxeterSystem.cache_sizes`` counts the entries."""
    name = "%s.%s" % (fn.__module__.rpartition(".")[2], fn.__name__)
    arity, defaults = fn.__code__.co_argcount - 1, fn.__defaults__ or ()

    @wraps(fn)
    def cached(system, *args):
        if len(args) < arity:
            args += defaults[len(args) - arity:]
        key = name, args
        try:
            return system._store[key]
        except KeyError:
            pass
        except TypeError:  # an unhashable argument
            return fn(system, *args)
        got = system._store[key] = fn(system, *args)
        return got

    return cached


def _validate_matrix(matrix):
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        raise ValueError("invalid matrix: empty")
    for row in m:
        if len(row) != n:
            raise ValueError("invalid matrix: not square")
    for i in range(n):
        for j in range(n):
            v = m[i][j]
            if not isinstance(v, numbers.Integral):
                raise ValueError("invalid matrix: entries must be integers")
            if i == j and v != 1:
                raise ValueError("invalid matrix: diagonal entries must be 1")
            if i != j and v != 0 and v < 2:
                raise ValueError(
                    "invalid matrix: off-diagonal entries must be >= 2 (or 0 for an infinite bond)"
                )
            if m[i][j] != m[j][i]:
                raise ValueError("invalid matrix: not symmetric")
    return tuple(tuple(int(v) for v in row) for row in m)


# the degrees of F4, H3, H4 by the bonds along the path, and of E6-E8 by the arm lengths
_EXCEPTIONAL = {(3, 4, 3): (2, 6, 8, 12), (3, 5): (2, 6, 10), (3, 3, 5): (2, 12, 20, 30),
                (1, 2, 2): (2, 5, 6, 8, 9, 12), (1, 2, 3): (2, 6, 8, 10, 12, 14, 18),
                (1, 2, 4): (2, 8, 12, 14, 18, 20, 24, 30)}


def _component_degrees(matrix, comp):
    """The degrees of the Coxeter group on comp, a connected component of
    the Coxeter graph, read off the classification of the finite ones
    (Humphreys 2.4-2.7 and 3.7); ValueError("infinite group ...") otherwise."""
    n = len(comp)
    nbrs = {i: [j for j in comp if matrix[i][j] not in (1, 2)] for i in comp}
    bonds = sorted(matrix[i][j] for i in comp for j in nbrs[i] if i < j)
    if n <= 2 and 0 not in bonds:
        return (2,) + tuple(bonds)  # A1, or I2(m)
    key = None
    # rank 3 or more: only trees with bonds 3, 4 and 5 can be finite
    if n > 2 and len(bonds) == n - 1 and bonds[0] >= 3 and bonds[-1] <= 5:
        branch = [i for i in comp if len(nbrs[i]) > 2]
        if not branch:  # a path: its bonds from the end that gives the smaller tuple
            walk = [next(i for i in comp if len(nbrs[i]) == 1)]
            while len(walk) < n:
                walk.append(next(j for j in nbrs[walk[-1]] if j not in walk[-2:]))
            path = tuple(matrix[i][j] for i, j in zip(walk, walk[1:]))
            key = min(path, path[::-1])
            if key == (3,) * (n - 1):
                return tuple(range(2, n + 2))  # A_n
            if key == (3,) * (n - 2) + (4,):
                return tuple(range(2, 2 * n + 1, 2))  # B_n
        elif len(branch) == 1 and len(nbrs[branch[0]]) == 3 and bonds[-1] == 3:
            c = branch[0]
            key = tuple(sorted(len(closure(j, lambda v: [u for u in nbrs[v] if u != c]))
                               for j in nbrs[c]))
            if key[1] == 1:
                return tuple(range(2, 2 * n - 1, 2)) + (n,)  # D_n
    if key in _EXCEPTIONAL:
        return _EXCEPTIONAL[key]
    raise ValueError("infinite group: the Coxeter graph on generators %s is not of finite type"
                     % ", ".join(str(i + 1) for i in comp))


class CoxeterSystem:
    """A finite Coxeter group together with its root permutation tables."""

    def __init__(self, matrix, name=None):
        self.matrix = _validate_matrix(matrix)
        self.rank = len(self.matrix)
        self.name = name
        self._build_roots()
        self._store = {}  # the group table and the tables derived from it: see memo

    def cache_sizes(self):
        """The number of stored entries of each memo table, by "module.function"."""
        return dict(Counter(name for name, _ in self._store))

    def _build_roots(self):
        """Number the positive roots by BFS from the simple roots, generators
        tried in order, and store each generator's permutation of the roots.

        The roots are rescaled so that s_i(alpha_j) = alpha_j + c alpha_i
        with c in Z[phi], phi^2 = phi + 1; this acts on the roots as the
        geometric representation does (Humphreys 5.3-5.4). A coordinate
        a + b phi is the pair (a, b). A rank 2 component with a bond m of 7
        or more labels its roots 0..m-1 from alpha_i to alpha_j instead:
        s_i sends t to m - t and s_j sends t to m - 2 - t. A step by s leaves
        the positive roots only at alpha_s.
        """
        n, bond = self.rank, self.matrix
        # bond: (c of s_i(alpha_j), c of s_j(alpha_i)) for i < j, each c as a pair (a, b)
        coeffs = {3: ((1, 0), (1, 0)), 4: ((1, 0), (2, 0)), 5: ((0, 1), (0, 1)),
                  6: ((1, 0), (3, 0))}

        def bonded(i):
            return [j for j in range(n) if bond[i][j] not in (1, 2)]

        home, keys, step, degrees = [None] * n, [], [], []
        for s in range(n):
            if home[s] is None:
                comp = sorted(closure(s, bonded))
                degrees += _component_degrees(bond, comp)  # raises if infinite
                for i in comp:
                    home[i] = comp
            i, m = home[s][0], bond[home[s][0]][home[s][-1]]
            if len(home[s]) == 2 and m not in coeffs:  # the key of root t is (i, t)
                keys.append((i, 0 if s == i else m - 1))
                step.append(lambda v, d=m if s == i else m - 2: (v[0], d - v[1]))
                continue
            keys.append(tuple((int(s == j), 0) for j in range(n)))
            row = [(j, coeffs[bond[s][j]][s > j]) for j in bonded(s)]

            def reflect(v, s=s, row=row):
                a, b = -v[s][0], -v[s][1]
                for j, (p, q) in row:  # add (p + q phi)(x + y phi)
                    x, y = v[j]
                    a += p * x + q * y
                    b += p * y + q * (x + y)
                return v[:s] + ((a, b),) + v[s + 1:]
            step.append(reflect)

        self.degrees = tuple(degrees)
        want = sum(d - 1 for d in degrees)  # |Phi+| (Humphreys 3.9), checked below
        if want > DEFAULT_ROOT_CAP:
            raise ValueError("group too large: %d positive roots, more than DEFAULT_ROOT_CAP (%d)"
                             % (want, DEFAULT_ROOT_CAP))
        index = {v: s for s, v in enumerate(keys)}
        comps = list(home)  # the component of each root
        images = [[] for _ in range(n)]
        reached = []  # (root, generator) that first reached roots n, n + 1, ...
        for r, v in enumerate(keys):  # keys grows while the loop runs
            for s in range(n):
                j = r  # s fixes r, or r is alpha_s: patched below
                if s != r and home[s] is comps[r]:
                    w = step[s](v)
                    j = index.get(w)
                    if j is None:
                        j = index[w] = len(keys)
                        keys.append(w)
                        comps.append(comps[r])
                        reached.append((r, s))
                images[s].append(j)

        p = self.num_positive = len(keys)
        if p != want:
            raise ValueError("root construction failed: %s has %d positive roots, not %d"
                             % (self.name or "the matrix", p, want))
        for s, g in enumerate(images):
            g[s] = s + p
            g += [(j + p) % (2 * p) for j in g]
        self._gen_perms = [tuple(g) for g in images]
        # _times[s-1](w) is w s; 2p >= 2 indices, so each getter returns a tuple
        self._times = [itemgetter(*g) for g in images]
        self._reached = reached
        self.identity = tuple(range(2 * p))

    def generator(self, s):
        """The element s_i for i in 1..rank."""
        if not 1 <= s <= self.rank:
            raise ValueError("generator index out of range: %r" % (s,))
        return self._gen_perms[s - 1]

    def bond(self, s, t):
        return self.matrix[s - 1][t - 1]

    # -- elementary operations ------------------------------------------

    def multiply(self, u, v):
        if len(u) != len(v) or len(u) != 2 * self.num_positive:
            raise ValueError("element belongs to a different system")
        return tuple(u[i] for i in v)

    def product(self, word):
        w = self.identity
        for s in word:
            w = self.multiply(w, self.generator(s))
        return w

    def inverse(self, w):
        inv = [0] * len(w)
        for i, j in enumerate(w):
            inv[j] = i
        return tuple(inv)

    def length(self, w):
        p = self.num_positive
        return sum(1 for i in range(p) if w[i] >= p)

    def descents_right(self, w):
        p = self.num_positive
        return tuple(s + 1 for s in range(self.rank) if w[s] >= p)

    def right_mult(self, w, s):
        if 0 < s <= self.rank:
            return self._times[s - 1](w)
        raise ValueError("generator index out of range: %r" % (s,))

    def left_mult(self, s, w):
        return itemgetter(*w)(self.generator(s))

    def reduced_word(self, w):
        """The lexicographically smallest reduced word for w.

        Peels the smallest left descent each step. A left descent s of w is
        a right descent of w^-1 and (s w)^-1 = w^-1 s, so the walk runs on
        w^-1 with right multiplication only.
        """
        out = []
        p = self.num_positive
        winv = self.inverse(w)
        while winv != self.identity:
            s = next(i + 1 for i in range(self.rank) if winv[i] >= p)
            out.append(s)
            winv = self.right_mult(winv, s)
        return tuple(out)

    def _right_steps(self):
        """down(u) for paths: the step (s, us) by each right descent s + 1 of u."""
        p, times = self.num_positive, list(enumerate(self._times))
        return lambda u: [(s, times_s(u)) for s, times_s in times if u[s] >= p]

    def reduced_words(self, w):
        """All reduced words for w, as a sorted tuple of tuples: the paths
        from w down its right descents to the identity."""
        return tuple(sorted(paths(w, self.identity, self._right_steps())))

    def count_reduced_words(self, w):
        """The number of reduced words for w, counted without listing them."""
        return count_paths(w, self.identity, self._right_steps())

    def demazure_product(self, u, v):
        """The 0-Hecke product of two elements (monotone one-sided fold)."""
        for s in self.reduced_word(v):
            us = self.right_mult(u, s)
            if self.length(us) > self.length(u):
                u = us
        return u

    # -- orders ----------------------------------------------------------

    def bruhat_leq(self, u, w):
        """Bruhat order comparison by the lifting property.

        Strips the first right descent s of w each step, from u too when it
        is a descent of u. This root-permutation route needs no enumeration,
        so it serves groups of any size; scans over a whole group use
        ElementTable.bruhat_leq on ids instead.
        """
        p = self.num_positive
        while u != w:
            if self.length(u) >= self.length(w):
                return False
            s = next(i + 1 for i in range(self.rank) if w[i] >= p)
            if u[s - 1] >= p:
                u = self.right_mult(u, s)
            w = self.right_mult(w, s)
        return True

    # -- enumeration ------------------------------------------------------

    def elements(self):
        """All group elements in (length, lex-min word) order, cached; ValueError above the cap."""
        if not self._within_cap():
            raise too_large()
        return self._enumerate()[0]

    def order(self):
        """|W|, the product of the degrees (Humphreys 3.9); enumerates nothing."""
        return math.prod(self.degrees)

    @memo
    def _within_cap(self):
        """Whether the group may be enumerated: at most ENUMERATION_CAP
        elements, whose tuples hold at most ENTRY_CAP root indices in all.
        Decided once per system: a group enumerated stays enumerated."""
        order = self.order()
        return order <= ENUMERATION_CAP and order * 2 * self.num_positive <= ENTRY_CAP

    @memo
    def _enumerate(self):
        """BFS over right multiplication from the identity, generators tried
        in order, first discovery kept: elements(), the ids
        ``right[s-1][i]`` of the right products and the dict from each key
        to its id, as a triple.

        The BFS runs on keys: key(w) is the tuple of root indices
        (w^-1(alpha_s))_s, which fixes w, so the ids and right tables are
        those of a BFS on elements. The simple roots come first, so the
        identity's key is (0, ..., rank-1), and key(ws) = g_s[key(w)]
        entrywise for the root permutation g_s of s. Each element is built
        once, as a right product of the element that discovered it.
        """
        gens, rank = self._gen_perms, self.rank
        # itemgetter of one index gives the bare index, so a rank 1 key is an int
        start = tuple(range(rank)) if rank > 1 else 0
        seen = {start: 0}
        keys = [start]
        found = []  # (discoverer's id, generator index) for ids 1, 2, ...
        right = [[] for _ in gens]
        for i, key in enumerate(keys):  # keys grows while the loop runs
            entries = itemgetter(*key) if rank > 1 else itemgetter(key)
            for s, g in enumerate(gens):
                ks = entries(g)
                j = seen.get(ks)
                if j is None:
                    j = seen[ks] = len(keys)
                    keys.append(ks)
                    found.append((i, s))
                right[s].append(j)
        order = [self.identity]
        times = self._times
        for i, s in found:
            order.append(times[s](order[i]))
        return tuple(order), right, seen

    @memo
    def id_table(self):
        """The integer-id tables of the whole group, or None above the cap (see _within_cap)."""
        return ElementTable(self) if self._within_cap() else None

    def longest_element(self, J=None):
        """The longest element of the standard parabolic subgroup on J (default: all of S)."""
        gens = range(1, self.rank + 1) if J is None else sorted(set(J))
        for s in gens:
            if not 1 <= s <= self.rank:
                raise ValueError("generator index out of range: %r" % (s,))
        p = self.num_positive
        w = self.identity
        while True:
            for s in gens:
                if w[s - 1] < p:
                    w = self.right_mult(w, s)
                    break
            else:
                return w

    # -- diagram automorphisms -------------------------------------------

    def diagram_automorphisms(self):
        """All permutations p of the generators with m(p(s),p(t)) = m(s,t).

        Returned as tuples mapping generator i (1-based) to p[i-1], in lex
        order. A partial map of the first generators grows one generator at
        a time and is kept only while it preserves every bond among the
        generators placed so far, so no failing permutation is completed.
        """
        m, maps = self.matrix, [()]
        for i in range(self.rank):
            maps = [p + (j,) for p in maps for j in range(self.rank)
                    if j not in p and all(m[j][q] == m[i][k] for k, q in enumerate(p))]
        return tuple(tuple(q + 1 for q in p) for p in maps)

    @memo
    def _twist_perms(self, twist):
        """The relabeling rho and its inverse for the twist."""
        key = normalize_twist(self, twist)
        # rho(alpha_s) = alpha_s*, and rho(g_s r) = g_s*(rho r) for the
        # generator s and root r that first reached each further root
        rho = [t - 1 for t in key]
        for r, s in self._reached:
            rho.append(self._gen_perms[key[s] - 1][rho[r]])
        rho += [j + self.num_positive for j in rho]
        return tuple(rho), self.inverse(rho)

    def apply_twist(self, w, twist):
        """The image of w under the diagram automorphism given by twist."""
        rho, rho_inv = self._twist_perms(twist)
        return tuple(rho[w[i]] for i in rho_inv)

    def __repr__(self):
        return "CoxeterSystem(%s, rank=%d)" % (self.name or "custom", self.rank)


class ElementTable:
    """Integer ids for the elements of a finite system, with Cayley tables.

    Ids follow the BFS order of ``elements()``, which is (length, lex-min
    reduced word) order: by induction on length, each element is first
    reached from its earliest shorter prefix, by the smallest letter. For
    the element w with id i and a generator s:

    - ``length[i]`` is l(w); bit s-1 of ``descents[i]`` is set when s is a
      right descent of w, and ``first_descent[i]`` is s-1 for the smallest
      (-1 for the identity); ``first_left[i]`` is the same for left descents;
    - ``start[k]`` is the first id of length k, and ``start[-1]`` is |W|;
    - ``right[s-1][i]``, ``left[s-1][i]`` and ``inverse[i]`` are the ids of
      ws, sw and w^-1.

    All are derived in whole-row passes from the right products and the key
    dict of the BFS in ``CoxeterSystem._enumerate``: w[:rank] is the key of
    w^-1, s w = (w^-1 s)^-1, s is a descent when ws has a lower id, and the
    ids of length k + 1 run up to the largest right product of length k.
    """

    def __init__(self, system):
        elements, right, keys = system._enumerate()
        self.elements, self.right = elements, right
        # w[:rank] for an element w, a bare int at rank 1 as the keys are
        key_of_inverse = itemgetter(slice(0, system.rank) if system.rank > 1 else 0)
        self.inverse = inverse = list(map(keys.__getitem__, map(key_of_inverse, elements)))
        self.left = [list(map(inverse.__getitem__, map(r.__getitem__, inverse))) for r in right]
        ids, descents = range(len(elements)), [0] * len(elements)
        for s, r in enumerate(right):
            bit = 1 << s
            descents = [d | bit if j < i else d for i, j, d in zip(ids, r, descents)]
        self.descents = descents
        self.first_descent = first = [(d & -d).bit_length() - 1 for d in descents]
        self.first_left = list(map(first.__getitem__, inverse))
        self.start = start = [0, 1]
        while start[-1] < len(ids):
            start.append(max(max(r[start[-2]:start[-1]]) for r in right) + 1)
        self.length = length = []
        for k in range(len(start) - 1):
            length += [k] * (start[k + 1] - start[k])

    def bruhat_leq(self, u, w):
        """Bruhat order on ids, by the lifting property: at most l(w) steps."""
        length = self.length
        if length[u] >= length[w]:
            return u == w
        descents, first, right = self.descents, self.first_descent, self.right
        while u != w and length[u] < length[w]:
            s = first[w]
            if descents[u] >> s & 1:
                u = right[s][u]
            w = right[s][w]
        return u == w


def too_large():
    """The error for a group above the enumeration cap."""
    return ValueError("group too large to enumerate (order > %d or more than %d table entries)"
                      % (ENUMERATION_CAP, ENTRY_CAP))


def normalize_twist(system, twist):
    """Validate a generator permutation and return it as a canonical tuple."""
    if twist is None:
        return tuple(range(1, system.rank + 1))
    twist = tuple(int(v) for v in twist)
    if sorted(twist) != list(range(1, system.rank + 1)):
        raise ValueError("invalid twist: not a permutation of 1..rank")
    for i in range(system.rank):
        for j in range(system.rank):
            if system.matrix[twist[i] - 1][twist[j] - 1] != system.matrix[i][j]:
                raise ValueError("invalid twist: does not preserve the Coxeter matrix")
    return twist


def is_involutive_twist(system, twist):
    twist = normalize_twist(system, twist)
    return all(twist[twist[i] - 1] == i + 1 for i in range(system.rank))


# -- construction ---------------------------------------------------------


def _chain_matrix(n, bonds):
    m = [[2] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 1
    for (i, j), v in bonds.items():
        m[i][j] = v
        m[j][i] = v
    return m


def coxeter_matrix_from_name(name):
    """Coxeter matrix for a standard shorthand like A5, B3, D4, H3, I2(7).

    Products are written with x, e.g. A1xA2.
    """
    name = name.strip()
    if "x" in name:
        parts = [coxeter_matrix_from_name(p) for p in name.split("x")]
        total = sum(len(p) for p in parts)
        m = [[2] * total for _ in range(total)]
        off = 0
        for p in parts:
            k = len(p)
            for i in range(k):
                for j in range(k):
                    m[off + i][off + j] = p[i][j]
            off += k
        return m
    if name.startswith("I2(") and name.endswith(")"):
        v = int(name[3:-1])
        return _chain_matrix(2, {(0, 1): v})
    family, num = name[0].upper(), name[1:]
    if not num.isdigit():
        raise ValueError("invalid matrix: unknown system name %r" % name)
    n = int(num)
    if n < 1:
        raise ValueError("invalid matrix: unknown system name %r" % name)
    bonds = {(i, i + 1): 3 for i in range(n - 1)}
    if family == "A":
        pass
    elif family in ("B", "C"):
        if n < 2:
            raise ValueError("invalid matrix: unknown system name %r" % name)
        bonds[(n - 2, n - 1)] = 4
    elif family == "D":
        if n < 3:
            raise ValueError("invalid matrix: unknown system name %r" % name)
        del bonds[(n - 2, n - 1)]
        bonds[(n - 3, n - 1)] = 3
    elif family == "E":
        if n not in (6, 7, 8):
            raise ValueError("invalid matrix: unknown system name %r" % name)
        # Bourbaki numbering: the chain 1-3-4-...-n with node 2 attached to node 4
        bonds = {(i, i + 1): 3 for i in range(2, n - 1)}
        bonds[(0, 2)] = 3
        bonds[(1, 3)] = 3
    elif family == "F":
        if n != 4:
            raise ValueError("invalid matrix: unknown system name %r" % name)
        bonds[(1, 2)] = 4
    elif family == "G":
        if n != 2:
            raise ValueError("invalid matrix: unknown system name %r" % name)
        bonds[(0, 1)] = 6
    elif family == "H":
        if n not in (2, 3, 4):
            raise ValueError("invalid matrix: unknown system name %r" % name)
        bonds[(0, 1)] = 5
    else:
        raise ValueError("invalid matrix: unknown system name %r" % name)
    return _chain_matrix(n, bonds)


def parse_matrix_text(text):
    """Parse the matrix file format: a 'rank n' line followed by n rows."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].lower().startswith("rank"):
        raise ValueError("invalid matrix: expected a 'rank n' header line")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ValueError("invalid matrix: expected a 'rank n' header line")
    if len(lines) != n + 1:
        raise ValueError("invalid matrix: expected %d rows after the header" % n)
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([int(v) for v in ln.replace(",", " ").split()])
        except ValueError:
            raise ValueError("invalid matrix: rows must contain integers")
    return rows


SYSTEM_CACHE_SIZE = 16  # systems kept by build_system, least recently used dropped


_cached_system = lru_cache(maxsize=SYSTEM_CACHE_SIZE)(CoxeterSystem)


def build_system(spec):
    """Build a CoxeterSystem from a shorthand name, matrix text, or matrix.

    Raises ValueError("infinite group ...") when a component of the Coxeter
    graph is not on the finite list, ValueError("group too large ...") for
    more than DEFAULT_ROOT_CAP positive roots, and ValueError("invalid
    matrix ...") for malformed input.
    """
    name = None
    if isinstance(spec, str):
        if "\n" in spec or spec.lower().startswith("rank"):
            matrix = parse_matrix_text(spec)
        else:
            matrix = coxeter_matrix_from_name(spec)
            name = spec.strip()
    else:
        matrix = spec
    matrix = _validate_matrix(matrix)
    return _cached_system(matrix, name)


# -- type A one-line conversions -------------------------------------------


def is_type_a_chain(system):
    m, n = system.matrix, system.rank
    return all(m[i][j] == (3 if j == i + 1 else 2) for i in range(n) for j in range(i + 1, n))


def permutation_to_element(system, oneline):
    """Element of a type A system from one-line notation (a tuple on 1..rank+1)."""
    if not is_type_a_chain(system):
        raise ValueError("one-line notation needs a type A chain system")
    n = system.rank + 1
    seq = [int(v) for v in oneline]
    if sorted(seq) != list(range(1, n + 1)):
        raise ValueError("invalid one-line notation: %r" % (oneline,))
    # peel right descents of the target permutation, then reverse the word
    word = []
    while True:
        for i in range(n - 1):
            if seq[i] > seq[i + 1]:
                word.append(i + 1)
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                break
        else:
            return system.product(word[::-1])


def element_to_permutation(system, w):
    """One-line notation for an element of a type A chain system."""
    if not is_type_a_chain(system):
        raise ValueError("one-line notation needs a type A chain system")
    n = system.rank + 1
    seq = list(range(1, n + 1))
    for s in system.reduced_word(w):
        seq[s - 1], seq[s] = seq[s], seq[s - 1]
    return tuple(seq)
