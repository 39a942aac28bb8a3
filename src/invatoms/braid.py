"""Word rewriting for reduced words and involution words.

Reduced words of a group element form a single class under the familiar
alternating-block swaps (the word property of Tits and Matsumoto).
Minimal transforming words of a twisted involution form a class under a
refined system in which the block length shrinks from the bond order to
a truncated value that depends on the prefix before the block, but only
through the twisted involution the prefix folds to. The type A
symmetric-group specializations need just one extra family of moves on
the first two letters.

The class of a word under a move rule is a node of a DAG of prefix
classes, one per system, twist, rule and base (the fold of the empty
word). A node is the class of a word under the swaps that lie wholly
inside it; it is reached from the node of the word without its last
letter a, and it is the disjoint union of pieces P.a, P the node of a
shorter class. A swap inside P.a lies wholly in P or ends at a, and swaps
preserve the fold, so the pieces are linked only by swaps ending at the
last letter: walk back m - 1 letters through the pieces, check that the
table of the node reached there holds the block, and walk the swapped
letters forward. Distinct paths from the root spell distinct words, so a
node counts its words without listing them. A DAG keeps one node per
class of involution words, shared by every query, and builds the classes
of other words per call. A class is listed by coxeter.paths, down the
pieces to the root; a shared node keeps its list once it is built while
the DAG keeps at most WORDS_KEPT words per shared node in all, so a later
class is listed from the lists of its pieces. The truncated rule gives a
node the table of its fold. A start rule adds swaps at the start only,
inside every prefix of length 2 or more, so its root gets the braid and
start tables and every other node the braid table; there the fold
decides only which nodes a DAG keeps, never which swaps apply. The
start rules are plain braid moves (no start swaps), Hu-Zhang, FPF from
s1 s3 s5 ... and the empty prefix.

The swap tables, each block mapped to its swap and keyed by their block
lengths, the pairs of generators with their bonds and the DAGs live in
the system's one store through ``coxeter.memo``; a fold's table is that
of its truncated lengths, looked up there on each call and never stored
per fold.

Words are tuples of 1-based generator indices.
"""

from . import coxeter as cx
from . import twisted as tw

# Bound on the words a DAG of prefix classes keeps listed, per shared node
# (for the truncated rule, at most one per twisted involution): its shared
# nodes keep at most WORDS_KEPT times their number words alive in all, so
# one node may keep more than WORDS_KEPT words and another none.
WORDS_KEPT = 256


def _alternating(s, t, m):
    return tuple(s if i % 2 == 0 else t for i in range(m))


@cx.memo
def _pairs(system):
    """The pairs s < t of generators with their bonds, as (s, t, m) triples."""
    rank = system.rank
    return tuple((s, t, system.bond(s, t))
                 for s in range(1, rank + 1) for t in range(s + 1, rank + 1))


@cx.memo
def _tables(system, lengths):
    """The swap table of the pairs s < t, in _pairs order, with the given
    block lengths, built once per system and shared by every fold with those
    lengths: the alternating blocks sts... and tst... of length m map to
    each other."""
    table = {}
    for (s, t, _), m in zip(_pairs(system), lengths):
        left, right = _alternating(s, t, m), _alternating(t, s, m)
        table[left], table[right] = right, left
    return table


# -- ordinary braid relations --------------------------------------------------


def _braid_start(system, twist):
    return {}


def braid_class(system, word):
    """The closure of word under the alternating-block swaps: the words of
    its node in the DAG of the start rule with no start swaps."""
    return _class(system, word, tw._twist_key(system, None), _braid_start)


# -- truncated block lengths ----------------------------------------------------


def m_star(system, s, t, theta):
    """Truncated block length for the pair s, t under a group self-map theta."""
    s, t = tw._letter(system, s), tw._letter(system, t)
    if s == t:
        raise ValueError("truncated length needs two distinct generators")
    gs, gt = system.generator(s), system.generator(t)
    return _truncate(system.bond(s, t), gs, gt, theta(gs), theta(gt))


def _truncate(m, s, t, ims, imt):
    """The bond m truncated for a map sending s and t to ims and imt: half
    of m rounded up when the map swaps s and t, one more for an even m when
    it fixes both, and m when the pair moves away."""
    if ims == s and imt == t:
        return m // 2 + 1
    if ims == t and imt == s:
        return (m + 1) // 2
    return m


def _fold_tables(system, u, twist):
    """The swap table (see _tables) after a prefix folding to u, the fold's
    id among the twisted involutions (see tw._ids)."""
    w = tw._ids(system, twist).key(u)
    # theta(s) = (w s w^-1)* is the reflection in the twisted root
    # w(alpha_s): the generator t exactly when that root is +-alpha_t,
    # and simple roots come first in the root order
    rho, p = system._twist_perms(twist)[0], system.num_positive
    image = [rho[w[s]] % p + 1 for s in range(system.rank)]
    return _tables(system, tuple(_truncate(m, s, t, image[s - 1], image[t - 1])
                                 for s, t, m in _pairs(system)))


# -- the DAG of prefix classes ----------------------------------------------------


class _Node:
    """A class of words under the swaps inside them: the words of P then a
    for each piece (P, a). ``swaps`` is the block-to-swap table after the
    prefix it spells, ``size`` its number of words (1 with no pieces: the
    root), ``kids`` maps a letter to the shared node one letter up (None
    for a node built per call). A shared node's kept word list lives in
    its DAG's ``kept`` map (see _class)."""

    __slots__ = ("fold", "swaps", "pieces", "kids", "size")

    def __init__(self, fold, kids, swaps):
        self.fold, self.kids, self.pieces, self.swaps, self.size = fold, kids, [], swaps, 1


class _PrefixClasses:
    """The DAG of prefix classes of one move rule (see the module
    docstring): the root folds to the id ``base`` and has the table
    ``root_swaps``, a node of fold u the table ``swaps(u)``, and ``dact``
    gives the Demazure step of a fold by a letter. ``nodes`` lists the
    shared nodes, each after the nodes its pieces hang from, ``kept``
    maps the root and each shared node that keeps its words to their list,
    and ``held`` counts the words kept besides the root's."""

    def __init__(self, system, dact, base, root_swaps, swaps):
        self.system, self.dact, self.swaps = system, dact, swaps
        self.root = _Node(base, {}, root_swaps)
        self.nodes, self.kept, self.held = [self.root], {self.root: [()]}, 0

    def node(self, word):
        """The node of the class of word, a tuple of valid letters. Nodes
        of other words than involution words live in a per-call map from
        (node, letter) to node, dropped on return: every node keeps its
        pieces, so the one returned still reaches the root."""
        extra = {}
        node = self.root
        for a in word:
            node = self._child(node, a, extra)
        return node

    def _child(self, node, a, extra):
        # a shared kid, else a per-call one (possibly over a shared node), else a new node
        got = node.kids.get(a) if node.kids is not None else None
        return got or extra.get((node, a)) or self._build(node, a, extra)

    def _build(self, node, a, extra):
        fold = self.dact[node.fold][a - 1]
        # the class of an involution word: every prefix is one too, and a
        # letter that rises from a shared node keeps the class shared
        shared = node.kids is not None and fold != node.fold
        new = _Node(fold, {} if shared else None, self.swaps(fold))
        todo = [(node, a)]
        while todo:
            p, b = todo.pop()
            links, key = (p.kids, b) if shared else (extra, (p, b))
            if links.get(key) is new:
                continue
            links[key] = new
            new.pieces.append((p, b))
            self._linked(p, b, extra, todo)
        new.size = sum(p.size for p, _ in new.pieces)
        if shared:  # after the nodes that the swaps made on the way
            self.nodes.append(new)
        return new

    def _linked(self, p, b, extra, out):
        """Append to out the pieces one swap ending at the last letter away
        from the piece (p, b)."""
        other = p.swaps.get((b,))
        if other is not None:
            out.append((p, other[0]))
        bonds = self.system.matrix[b - 1]
        ends = [(q, (c, b)) for q, c in p.pieces if c != b]
        while ends:  # walk back through the pieces, alternating the letters
            r, block = ends.pop()
            other = r.swaps.get(block)
            if other is not None:
                q = r
                for o in other[:-1]:
                    q = self._child(q, o, extra)
                out.append((q, other[-1]))
            if len(block) < bonds[block[-2] - 1]:
                x = block[1]
                ends.extend((q, (x,) + block) for q, y in r.pieces if y == x)


@cx.memo
def _prefix_classes(system, twist, rule=None, base=None):
    """The DAG of prefix classes of a move rule, one per twist, rule and
    base, the fold of the empty word (the identity when None). Rule None is
    the truncated swaps; a start rule maps (system, twist) to its table."""
    ids = tw._ids(system, twist)
    if rule is None:
        start, swaps = {}, lambda u: _fold_tables(system, u, twist)
    else:
        braid = _tables(system, tuple(m for _, _, m in _pairs(system)))
        start, swaps = rule(system, twist), lambda u: braid
    root = ids.member(system.identity if base is None else base)
    return _PrefixClasses(system, ids.dact, root, {**swaps(root), **start}, swaps)


def _class(system, word, twist, rule=None, base=None):
    """The words of the node of word in the DAG of the rule, as a set: its
    paths down the pieces P.a, each the step (a - 1, P) of coxeter.paths, to
    the nodes in the DAG's kept map. A shared node that the walk passes
    keeps the list it gets while the DAG's kept words, the root's aside,
    stay within WORDS_KEPT per shared node: its words count in ``held``
    when it joins the walk's keep set, before any list is built, so one
    walk cannot overshoot the bound. A per-call node keeps none."""
    dag = _prefix_classes(system, twist, rule, base)
    top, kept, keep = dag.node(tw._word(system, word)), dag.kept, set()
    if top in kept:  # listed before: no walk
        return set(kept[top])

    def down(n):
        if n in kept:
            return ()
        if n.kids is not None and dag.held + n.size <= WORDS_KEPT * len(dag.nodes):
            dag.held += n.size
            keep.add(n)
        return [(a - 1, p) for p, a in n.pieces]

    return set(cx.paths(top, kept, down, keep))


# -- involution braid relations --------------------------------------------------


def involution_braid_class(system, word, twist=None):
    """The closure of word under the prefix-truncated block swaps: the words
    of its node in the DAG of prefix classes (see the module docstring)."""
    return _class(system, word, tw._twist_key(system, twist))


def _empty_prefix_start(system, twist):
    return _fold_tables(system, tw._ids(system, twist).root, twist)


def empty_prefix_class(system, word, twist=None):
    """Closure under ordinary braid moves plus truncated blocks at the start only.

    The generic class needs truncated moves after arbitrary prefixes; this
    weaker closure exists to measure how far the initial moves alone reach.
    """
    return _class(system, word, tw._twist_key(system, twist), _empty_prefix_start)


# -- symmetric group specializations ----------------------------------------------


def _require_type_a(system):
    if not cx.is_type_a_chain(system):
        raise ValueError("system is not a type A chain")


def _hu_zhang_start(system, twist):
    return {p: p[::-1] for i in range(1, system.rank) for p in ((i, i + 1), (i + 1, i))}


def hu_zhang_class(system, word):
    """Closure under braid moves plus swapping an adjacent-generator initial pair."""
    _require_type_a(system)
    return _class(system, word, tw._twist_key(system, None), _hu_zhang_start)


def _fpf_start(system, twist):
    return {(a, a + d): (a, a - d) for a in range(2, system.rank, 2) for d in (1, -1)}


def fpf_class_words(system, word):
    """Closure under braid moves plus toggling the second letter across an even first."""
    _require_type_a(system)
    if (system.rank + 1) % 2:
        raise ValueError("fixed-point-free words need an even symmetric group")
    base = system.product(range(1, system.rank + 1, 2))
    return _class(system, word, tw._twist_key(system, None), _fpf_start, base)


# -- fully commutative elements ------------------------------------------------------


def is_fully_commutative(system, w):
    """Whether no reduced word of w contains a full block of bond order over 2.

    A block of bond order m sits inside some reduced word exactly when a
    right-weak-order prefix has both block letters as right descents, so
    the test walks the prefix ideal down the right descents, each prefix
    once by its images w[:rank] of the simple roots, and stops at the
    first prefix with two bonded descents.
    """
    rank = system.rank
    seen, todo = {w[:rank]}, [w]
    while todo:
        u = todo.pop()
        des = system.descents_right(u)
        if any(system.bond(s, t) > 2 for i, s in enumerate(des) for t in des[i + 1:]):
            return False
        for s in des:
            v = system.right_mult(u, s)
            if v[:rank] not in seen:
                seen.add(v[:rank])
                todo.append(v)
    return True


def _by_word(failures):
    """Failures by (length, lex-min word) of x: a no-op within the cap."""
    return sorted(failures, key=lambda f: (len(f["x"]), f["x"]))


def check_fc_atoms(system, twist=None):
    """Check that fully commutative twisted involutions have a lone atom.

    The atom must be fully commutative and its reduced words must be as
    many as the transforming words, which are the ascent chains to x.
    Needs every generator to satisfy m(s, s*) > 2 or s* = s;
    the report carries a flag for that hypothesis instead of failing, so
    violating twists can be examined.

    The walk keeps to the fully commutative ids, which are closed under
    steps down (a step down from x is the prefix xs or the factor s*xs of
    x): it grows them a level at a time up the Demazure steps, testing an
    id only when all its steps down are kept.
    """
    twist = tw._twist_key(system, twist)
    hypothesis_ok = all(system.bond(s, twist[s - 1]) != 2 for s in range(1, system.rank + 1))
    ids = tw._ids(system, twist)
    # chains[i]: the ascent chains to the kept id i, i.e. its involution
    # words, counted through each step down
    chains, level, failures = {ids.root: 1}, {ids.root: system.identity}, []
    while level:
        above = {}  # each id one step up, with its element if it is kept
        for i, x in level.items():
            for s, z in enumerate(ids.dact[i]):
                if z != i and z not in above:
                    steps, above[z] = ids.steps[z], None
                    if all(v in chains for _, v in steps):
                        w = tw._rtimes(system, x, s + 1, twist)
                        if is_fully_commutative(system, w):
                            chains[z], above[z] = sum(chains[v] for _, v in steps), w
            ats = tw.atoms(system, x, twist=twist)
            if len(ats) != 1:
                problem = "atoms: %d" % len(ats)
            elif not is_fully_commutative(system, ats[0]):
                problem = "atom not fully commutative"
            elif system.count_reduced_words(ats[0]) != chains[i]:
                problem = "words differ from the atom's reduced words"
            else:
                continue
            failures.append({"x": list(system.reduced_word(x)), "problem": problem})
        level = {z: w for z, w in above.items() if w is not None}
    return cx.report(system, len(chains), _by_word(failures), hypothesis_ok=hypothesis_ok)


def check_braid_classes(system, twist=None):
    """Check that the transforming-word rewriting moves span each word set.

    For every twisted involution y the class of its lex-min involution word
    must hold every involution word of y and no other word. Nothing is
    listed: the class is y's node in the DAG of prefix classes, whose paths
    from the root are its words, and the involution words of y are the
    ascent chains from the identity to y, counted shorter y first. All
    chains to y have length hat(y), so the least one extends the least
    chain of a step down. A path counts as an involution word when each of
    its pieces rises; the report counts the words of y the class misses and
    the words it holds beyond them. Returns a JSON-ready report.
    """
    twist = tw._twist_key(system, twist)
    ids, dag = tw._ids(system, twist), _prefix_classes(system, twist)
    # below[z]: the number of chains to z, the least one, its node and the
    # ascents of z not yet passed, so z is dropped after the last id above it
    below, rising, failures = {}, {dag.root: 1}, []
    for checked, x in enumerate(ids.order(), 1):
        steps = ids.steps[x]
        chains, word, node = 1, (), dag.root
        if steps:
            chains = sum(below[z][0] for _, z in steps)
            word, z = min((below[z][1] + (s + 1,), z) for s, z in steps)
            node = dag._child(below[z][2], word[-1], {})  # shared: an involution word
        for _, z in steps:
            below[z][3] -= 1
            if not below[z][3]:
                del below[z]
        below[x] = [chains, word, node, system.rank - len(steps)]
        # the paths to each new node whose pieces all rise; a node's pieces
        # hang from nodes made before it
        for n in dag.nodes[len(rising):]:
            rising[n] = sum(rising[p] for p, a in n.pieces
                            if ids.dact[p.fold][a - 1] == n.fold != p.fold)
        good = rising[node]
        if good != node.size or good != chains:
            failures.append({"x": list(system.reduced_word(ids.element(x))),
                             "missing": chains - good, "extra": node.size - good})
    return cx.report(system, checked, _by_word(failures))
