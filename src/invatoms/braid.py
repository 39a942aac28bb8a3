"""Word rewriting for reduced words and involution words.

Reduced words of a group element form a single class under the familiar
alternating-block swaps. Minimal transforming words of a twisted
involution form a class under a refined system in which the block length
shrinks from the bond order to a truncated value that depends on the
prefix before the block, but only through the twisted involution the
prefix folds to. The type A symmetric-group specializations need just
one extra family of moves on the first two letters.

Words are tuples of 1-based generator indices.
"""

from . import coxeter as cx
from . import twisted as tw


def _alternating(s, t, m):
    return tuple(s if i % 2 == 0 else t for i in range(m))


def _word(letters):
    return tuple(int(a) for a in letters)


# -- ordinary braid relations --------------------------------------------------


def braid_neighbors(system, word):
    """Words one alternating-block swap away from word."""
    word = _word(word)
    out = []
    rank = system.rank
    for s in range(1, rank + 1):
        for t in range(s + 1, rank + 1):
            m = system.bond(s, t)
            if m < 2 or m > len(word):
                continue
            left, right = _alternating(s, t, m), _alternating(t, s, m)
            for j in range(len(word) - m + 1):
                block = word[j:j + m]
                if block == left:
                    out.append(word[:j] + right + word[j + m:])
                elif block == right:
                    out.append(word[:j] + left + word[j + m:])
    return out


def braid_class(system, word):
    """The closure of word under the alternating-block swaps."""
    return cx.closure(_word(word), lambda u: braid_neighbors(system, u))


# -- truncated block lengths ----------------------------------------------------


def m_star(system, s, t, theta):
    """Truncated block length for the pair s, t under a group self-map theta."""
    m = system.bond(s, t)
    if m < 2:
        raise ValueError("truncated length needs two distinct generators")
    gs, gt = system.generator(s), system.generator(t)
    ims, imt = theta(gs), theta(gt)
    if {ims, imt} != {gs, gt}:
        return m
    if m % 2:
        return (m + 1) // 2
    if ims == gs:
        return m // 2 + 1
    return m // 2


def theta_prefix(system, prefix, twist=None):
    """The automorphism g -> (u g u^-1)* for u the fold of the prefix."""
    twist = tw._twist_key(system, twist)
    u = tw.dact_word(system, system.identity, prefix, twist)
    return _theta_for(system, u, twist)


def _theta_for(system, u, twist):
    cache = tw._caches(system, twist).setdefault("theta", {})
    theta = cache.get(u)
    if theta is None:
        uinv = system.inverse(u)

        def theta(g):
            return system.apply_twist(system.multiply(system.multiply(u, g), uinv), twist)

        theta.base = u
        cache[u] = theta
    return theta


def _m_star_for(system, u, twist):
    """Truncated lengths for every generator pair after a prefix folding to u."""
    cache = tw._caches(system, twist).setdefault("m_star", {})
    table = cache.get(u)
    if table is None:
        theta = _theta_for(system, u, twist)
        table = {}
        rank = system.rank
        for s in range(1, rank + 1):
            for t in range(s + 1, rank + 1):
                table[s, t] = m_star(system, s, t, theta)
        cache[u] = table
    return table


# -- involution braid relations --------------------------------------------------


def involution_braid_neighbors(system, word, twist=None):
    """Words one prefix-truncated block swap away from word."""
    twist = tw._twist_key(system, twist)
    word = _word(word)
    out = []
    folds = [system.identity]
    for a in word:
        folds.append(tw._dact(system, folds[-1], a, twist))
    for j in range(len(word)):
        table = _m_star_for(system, folds[j], twist)
        for (s, t), m in table.items():
            if j + m > len(word):
                continue
            left, right = _alternating(s, t, m), _alternating(t, s, m)
            block = word[j:j + m]
            if block == left:
                out.append(word[:j] + right + word[j + m:])
            elif block == right:
                out.append(word[:j] + left + word[j + m:])
    return out


def involution_braid_class(system, word, twist=None):
    """The closure of word under the prefix-truncated block swaps."""
    twist = tw._twist_key(system, twist)
    return cx.closure(_word(word),
                      lambda u: involution_braid_neighbors(system, u, twist))


def empty_prefix_class(system, word, twist=None):
    """Closure under ordinary braid moves plus truncated blocks at the start only.

    The generic class needs truncated moves after arbitrary prefixes; this
    weaker closure exists to measure how far the initial moves alone reach.
    """
    twist = tw._twist_key(system, twist)
    word = _word(word)
    table = _m_star_for(system, system.identity, twist)

    def neighbors(u):
        out = braid_neighbors(system, u)
        for (s, t), m in table.items():
            if m > len(u):
                continue
            left, right = _alternating(s, t, m), _alternating(t, s, m)
            if u[:m] == left:
                out.append(right + u[m:])
            elif u[:m] == right:
                out.append(left + u[m:])
        return out

    return cx.closure(word, neighbors)


# -- symmetric group specializations ----------------------------------------------


def _require_type_a(system):
    if not cx.is_type_a_chain(system):
        raise ValueError("system is not a type A chain")


def hu_zhang_class(system, word):
    """Closure under braid moves plus swapping an adjacent-generator initial pair."""
    _require_type_a(system)
    word = _word(word)

    def neighbors(u):
        out = braid_neighbors(system, u)
        if len(u) >= 2 and abs(u[0] - u[1]) == 1:
            out.append((u[1], u[0]) + u[2:])
        return out

    return cx.closure(word, neighbors)


def fpf_class_words(system, word):
    """Closure under braid moves plus toggling the second letter across an even first."""
    _require_type_a(system)
    if (system.rank + 1) % 2:
        raise ValueError("fixed-point-free words need an even symmetric group")
    word = _word(word)
    rank = system.rank

    def neighbors(u):
        out = braid_neighbors(system, u)
        if len(u) >= 2 and u[0] % 2 == 0 and abs(u[0] - u[1]) == 1:
            other = 2 * u[0] - u[1]
            if 1 <= other <= rank:
                out.append((u[0], other) + u[2:])
        return out

    return cx.closure(word, neighbors)


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
    for x in tw._by_word(system, tw.enumerate_twisted(system, twist)):
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
    for x in tw._by_word(system, tw.enumerate_twisted(system, twist)):
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
