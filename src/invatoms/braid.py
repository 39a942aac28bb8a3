"""Word rewriting for reduced words and involution words.

Reduced words of a group element form a single class under the familiar
alternating-block swaps. Minimal transforming words of a twisted
involution form a class under a refined system in which the block length
shrinks from the bond order to a truncated value that depends on the
prefix before the block, but only through the twisted involution the
prefix folds to. The type A symmetric-group specializations need just
one extra family of moves on the first two letters.

The class of a word under the truncated swaps is built from suffix
classes rather than by a search over whole words. A swap either starts at
the first letter a or lies wholly after it, and the swaps after a depend
only on the fold u o a of the prefix and on the rest of the word. So the
class of a suffix q after a prefix folding to u is a union of pieces
a.C(u o a, tail): C(u o a, tail) is the class of tail after a prefix
folding to u o a, found the same way, and the pieces are linked by the
swaps at the first letter from the table of u. Classes are memoised per
fold within one call; swaps preserve the prefix fold and are undone by
the opposite swap, so a suffix lies in at most one class per fold. The
whole-word move function involution_braid_neighbors is what the classes
are tested against.

Words are tuples of 1-based generator indices.
"""

from . import coxeter as cx
from . import twisted as tw


def _alternating(s, t, m):
    return tuple(s if i % 2 == 0 else t for i in range(m))


def _word(letters):
    return tuple(int(a) for a in letters)


def _blocks(triples):
    """The block-swap table of (s, t, m) triples: the alternating blocks
    sts... and tst... of length m swap. Keyed by first letter, each entry a
    tuple of (block, other block) pairs."""
    table = {}
    for s, t, m in triples:
        left, right = _alternating(s, t, m), _alternating(t, s, m)
        table[s] = table.get(s, ()) + ((left, right),)
        table[t] = table.get(t, ()) + ((right, left),)
    return table


def _swaps(word, j, blocks, out):
    """Append to out every word one table swap at position j away from word."""
    for block, other in blocks.get(word[j], ()):
        m = len(block)
        if word[j:j + m] == block:
            out.append(word[:j] + other + word[j + m:])


def _pairs(system):
    rank = system.rank
    return [(s, t) for s in range(1, rank + 1) for t in range(s + 1, rank + 1)]


# -- ordinary braid relations --------------------------------------------------


def _braid_blocks(system):
    return _blocks((s, t, system.bond(s, t)) for s, t in _pairs(system))


def _braid_moves(word, blocks):
    out = []
    for j in range(len(word)):
        _swaps(word, j, blocks, out)
    return out


def braid_class(system, word):
    """The closure of word under the alternating-block swaps."""
    blocks = _braid_blocks(system)
    return cx.closure(_word(word), lambda u: _braid_moves(u, blocks))


# -- truncated block lengths ----------------------------------------------------


def m_star(system, s, t, theta):
    """Truncated block length for the pair s, t under a group self-map theta."""
    m = system.bond(s, t)
    if m < 2:
        raise ValueError("truncated length needs two distinct generators")
    gs, gt = system.generator(s), system.generator(t)
    return _truncate(m, gs, gt, theta(gs), theta(gt))


def _truncate(m, s, t, ims, imt):
    """The bond m truncated for a map sending s and t to ims and imt."""
    if {ims, imt} != {s, t}:
        return m
    if m % 2:
        return (m + 1) // 2
    if ims == s:
        return m // 2 + 1
    return m // 2


def theta_prefix(system, prefix, twist=None):
    """The automorphism g -> (u g u^-1)* for u the fold of the prefix."""
    twist = tw._twist_key(system, twist)
    u = tw.dact_word(system, system.identity, prefix, twist)
    uinv = system.inverse(u)

    def theta(g):
        return system.apply_twist(system.multiply(system.multiply(u, g), uinv), twist)

    theta.base = u
    return theta


def _truncated_blocks(system, u, twist):
    """The block-swap table after a prefix folding to u (cached per fold):
    u is the fold's id within the cap and its root permutation above it."""
    cache = tw._caches(system, twist).setdefault("m_star", {})
    blocks = cache.get(u)
    if blocks is None:
        ids = tw._ids(system, twist)
        w = u if ids is None else ids.elements[u]
        # theta(s) = (w s w^-1)* is the reflection in the twisted root
        # w(alpha_s): the generator t exactly when that root is +-alpha_t,
        # and simple roots come first in the root order
        rho, p = system._twist_perms(twist)[0], system.num_positive
        image = [rho[w[s]] % p + 1 for s in range(system.rank)]
        blocks = cache[u] = _blocks(
            (s, t, _truncate(system.bond(s, t), s, t, image[s - 1], image[t - 1]))
            for s, t in _pairs(system))
    return blocks


def _prefix_fold(system, twist):
    """The fold of the empty prefix and the Demazure step by a letter: on ids
    within the cap, on root permutations above it."""
    ids = tw._ids(system, twist)
    if ids is None:
        return system.identity, lambda u, a: tw._dact(system, u, a, twist)
    dact = ids.dact
    return 0, lambda u, a: dact[u][a - 1]


# -- involution braid relations --------------------------------------------------


def involution_braid_neighbors(system, word, twist=None):
    """Words one prefix-truncated block swap away from word: the whole-word
    move function that the suffix classes are tested against."""
    twist = tw._twist_key(system, twist)
    word = _word(word)
    u, step = _prefix_fold(system, twist)
    out = []
    for j, a in enumerate(word):
        _swaps(word, j, _truncated_blocks(system, u, twist), out)
        u = step(u, a)
    return out


def involution_braid_class(system, word, twist=None):
    """The closure of word under the prefix-truncated block swaps, built from
    memoised suffix classes (see the module docstring)."""
    twist = tw._twist_key(system, twist)
    start, step = _prefix_fold(system, twist)
    cache = tw._caches(system, twist).setdefault("m_star", {})
    memo = {}  # fold -> the suffix classes found under it

    def suffix_class(u, q):
        if not q:
            return {()}
        classes = memo.setdefault(u, [])
        for c in classes:
            if q in c:
                return c
        blocks = cache.get(u) or _truncated_blocks(system, u, twist)
        out = set()
        todo = [q]
        while todo:
            w = todo.pop()
            if w in out:
                continue
            a = w[0]
            tails = suffix_class(step(u, a), w[1:])
            out.update([(a,) + t for t in tails])
            for block, other in blocks.get(a, ()):
                m = len(block)
                if m == 1:  # a and the other letter fold u alike: the piece moves whole
                    todo.append(other + w[1:])
                    continue
                if len(w) < m:  # the block does not fit
                    continue
                b, rest = block[1], block[1:]
                k = m - 1
                for t in tails:
                    if t[0] == b and t[:k] == rest:
                        v = other + t[k:]
                        if v not in out:
                            todo.append(v)
        classes.append(out)
        return out

    try:
        return suffix_class(start, _word(word))
    finally:
        memo.clear()


def _start_class(system, word, start_blocks):
    """Closure of word under braid moves anywhere plus start_blocks swaps at
    the start of the word."""
    blocks = _braid_blocks(system)

    def neighbors(u):
        out = _braid_moves(u, blocks)
        if u:
            _swaps(u, 0, start_blocks, out)
        return out

    return cx.closure(_word(word), neighbors)


def empty_prefix_class(system, word, twist=None):
    """Closure under ordinary braid moves plus truncated blocks at the start only.

    The generic class needs truncated moves after arbitrary prefixes; this
    weaker closure exists to measure how far the initial moves alone reach.
    """
    twist = tw._twist_key(system, twist)
    return _start_class(system, word, _truncated_blocks(
        system, _prefix_fold(system, twist)[0], twist))


# -- symmetric group specializations ----------------------------------------------


def _require_type_a(system):
    if not cx.is_type_a_chain(system):
        raise ValueError("system is not a type A chain")


def hu_zhang_class(system, word):
    """Closure under braid moves plus swapping an adjacent-generator initial pair."""
    _require_type_a(system)
    return _start_class(system, word, _blocks((i, i + 1, 2) for i in range(1, system.rank)))


def fpf_class_words(system, word):
    """Closure under braid moves plus toggling the second letter across an even first."""
    _require_type_a(system)
    if (system.rank + 1) % 2:
        raise ValueError("fixed-point-free words need an even symmetric group")
    swaps = {}
    for a in range(2, system.rank, 2):
        up, down = (a, a + 1), (a, a - 1)
        swaps[a] = ((down, up), (up, down))
    return _start_class(system, word, swaps)


# -- fully commutative elements ------------------------------------------------------


def is_fully_commutative(system, w):
    """Whether no reduced word of w contains a full block of bond order over 2.

    A block of bond order m sits inside some reduced word exactly when a
    right-weak-order prefix has both block letters as right descents, so
    the test walks the prefix ideal with a memo shared per system.
    """
    memo = system.__dict__.setdefault("_fc_memo", {})
    return _fc(system, w, memo)


def _fc(system, w, memo):
    known = memo.get(w)
    if known is not None:
        return known
    des = system.descents_right(w)
    result = True
    for i, s in enumerate(des):
        for t in des[i + 1:]:
            if system.bond(s, t) > 2:
                result = False
    if result:
        result = all(_fc(system, system.right_mult(w, s), memo) for s in des)
    memo[w] = result
    return result


def check_fc_atoms(system, twist=None):
    """Check that fully commutative twisted involutions have a lone atom.

    The atom must be fully commutative and its reduced words must exhaust
    the transforming words. Needs every generator to satisfy m(s, s*) > 2
    or s* = s; the report carries a flag for that hypothesis instead of
    failing, so violating twists can be examined.
    """
    twist = tw._twist_key(system, twist)
    hypothesis_ok = True
    for s in range(1, system.rank + 1):
        sstar = twist[s - 1]
        if sstar != s and system.bond(s, sstar) == 2:
            hypothesis_ok = False
    failures = []
    checked = 0
    for x in tw.enumerate_twisted(system, twist):
        if not is_fully_commutative(system, x):
            continue
        checked += 1
        ats = tw.atoms(system, x, twist=twist)
        problem = None
        if len(ats) != 1:
            problem = "atoms: %d" % len(ats)
        else:
            w = ats[0]
            if not is_fully_commutative(system, w):
                problem = "atom not fully commutative"
            elif set(tw.involution_words(system, x, twist=twist)) != set(system.reduced_words(w)):
                problem = "words differ from the atom's reduced words"
        if problem is not None:
            failures.append({"x": list(system.reduced_word(x)), "problem": problem})
    return {
        "system": system.name or "custom",
        "hypothesis_ok": hypothesis_ok,
        "pairs_checked": checked,
        "failures": failures,
    }


def check_braid_classes(system, twist=None):
    """Check that the transforming-word rewriting moves span each word set.

    For every twisted involution the closure of one transforming word under
    braid moves and truncated-block moves must equal the full word set.
    Returns a JSON-ready report.
    """
    twist = tw._twist_key(system, twist)
    failures = []
    checked = 0
    for x in tw.enumerate_twisted(system, twist):
        words = set(tw.involution_words(system, x, twist=twist))
        checked += 1
        got = involution_braid_class(system, min(words), twist)
        if got != words:
            failures.append({
                "x": list(system.reduced_word(x)),
                "missing": len(words) - len(got & words),
                "extra": len(got - words),
            })
    return {
        "system": system.name or "custom",
        "pairs_checked": checked,
        "failures": failures,
    }
