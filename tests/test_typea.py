import itertools
import random
from operator import itemgetter

import pytest

import invatoms.coxeter as cx
import invatoms.orders as od
import invatoms.twisted as tw
import invatoms.typea as ta


def _compose(u, v):
    """u v on one-line tuples: v first."""
    return tuple(u[j - 1] for j in v)


def _mult_right(p, i):
    """p times the transposition of i, i+1 (swaps positions i, i+1)."""
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def _mult_left(p, i):
    """The transposition of i, i+1 times p (swaps values i, i+1)."""
    a, b = p.index(i), p.index(i + 1)
    q = list(p)
    q[a], q[b] = i + 1, i
    return tuple(q)


def _reduced_word_perm(p):
    """The lexicographically smallest reduced word of p."""
    word = []
    p = list(p)
    while True:
        inv = [0] * len(p)
        for i, v in enumerate(p, 1):
            inv[v - 1] = i
        s = next((i for i in range(1, len(p)) if inv[i - 1] > inv[i]), None)
        if s is None:
            return tuple(word)
        word.append(s)
        a, b = inv[s - 1], inv[s]
        p[a - 1], p[b - 1] = s + 1, s


def _tau_via_wreath(w):
    """tau from the wreath product formula: conjugate the product of odd
    right descents by w and push the color vector through w."""
    n2 = len(w)
    theta = ta.identity_perm(n2)
    for i in ta.right_descents_perm(w):
        if i % 2:
            theta = _mult_right(theta, i)
    conj = _compose(_compose(w, theta), ta.inverse_perm(w))
    colors = [0] * n2
    for j in range(1, n2 + 1):
        colors[w[j - 1] - 1] = (j + 1) // 2
    edges = [(a, conj[a - 1]) for a in range(1, n2 + 1) if a < conj[a - 1]]
    return (tuple(colors), tuple(sorted(edges)))


def test_permutation_arithmetic():
    assert ta.inverse_perm((2, 3, 1)) == (3, 1, 2)
    assert ta.perm_length((3, 1, 2)) == 2


def test_involution_enumeration_counts():
    assert len(ta.enumerate_involutions(4)) == 10
    assert len(ta.enumerate_involutions(5)) == 26
    assert len(ta.enumerate_involutions(6)) == 76
    assert len(ta.enumerate_involutions(4, fpf=True)) == 3
    assert len(ta.enumerate_involutions(6, fpf=True)) == 15
    assert len(ta.enumerate_involutions(8, fpf=True)) == 105


def test_negative_sizes_are_rejected():
    assert ta.enumerate_involutions(0) == ((),) and ta.fpf_base(0) == ()
    for n, fpf in [(-1, False), (-2, True), (-1, True)]:
        with pytest.raises(ValueError, match="non-negative"):
            ta.enumerate_involutions(n, fpf=fpf)
    for n in (-1, -2):
        with pytest.raises(ValueError, match="non-negative"):
            ta.fpf_base(n)


def test_cycle_and_fixed_point_readers():
    x = (3, 5, 1, 4, 2)
    assert ta.cyc(x) == ((1, 3), (2, 5), (4, 4))
    assert ta.fix(x) == (4,)
    assert ta.fpf_base(4) == (2, 1, 4, 3)
    assert ta.is_fpf_involution((2, 1, 4, 3))
    assert not ta.is_fpf_involution((3, 5, 1, 4, 2))
    with pytest.raises(ValueError, match="even size"):
        ta.fpf_base(5)


def test_fold_steps_match_the_root_permutation_route():
    system = cx.build_system("A3")
    for x10 in ta.enumerate_involutions(4):
        x = cx.permutation_to_element(system, x10)
        assert ta.hat_perm(x10) == tw.hat_length(system, x)
        for i in range(1, 4):
            lifted = cx.permutation_to_element(system, ta.dact_perm(x10, i))
            assert lifted == tw.dact(system, x, i)
            lifted = cx.permutation_to_element(system, ta.rtimes_perm(x10, i))
            assert lifted == tw.rtimes(system, x, i)


def test_hecke_image_table_against_the_generic_fold():
    system = cx.build_system("A3")
    table = ta.hecke_image_table(4)
    generic = {w: y for y, fiber in tw.hecke_table(system, system.identity).items()
               for w in fiber}
    assert len(table) == 24 and len(generic) == 24
    for w, img in table.items():
        lifted = generic[cx.permutation_to_element(system, w)]
        assert cx.element_to_permutation(system, lifted) == img


def test_hecke_image_table_folds_every_reduced_word():
    perms = list(itertools.permutations(range(1, 6)))
    for x in ta.enumerate_involutions(5):
        table = ta.hecke_image_table(5, x)
        assert sorted(table) == perms
        for w in perms:
            img = x
            for i in _reduced_word_perm(w):
                img = ta.dact_perm(img, i)
            assert table[w] == img


def test_coset_fold_is_the_full_table_on_minimal_representatives():
    # J = the right descents of the base; the packed fold of the sweeps keeps
    # the elements w with no left descent s_a for a in J, that is a left of
    # a + 1 in w, keyed by w^-1 on the letters 0..n-1
    cases = [(n, x) for n in range(1, 7) for x in ta.enumerate_involutions(n)]
    cases.append((8, ta.fpf_base(8)))
    for n, base in cases:
        J = frozenset(ta.right_descents_perm(base))
        want = {w: img for w, img in ta.hecke_image_table(n, base).items()
                if all(w.index(a) < w.index(a + 1) for a in J)}
        b = max(n - 1, 1).bit_length()
        labels, images = od._fold(n, base, b)
        got = {ta.inverse_perm(tuple(v + 1 for v in od._unpack(u, n, b))): images[k]
               for u, k in labels.items()}
        assert got == want
    assert len(want) == 2520  # 8! / 2^4 at the matching base of S8


def test_fpf_hecke_fibers_are_closed_under_left_odd_transpositions():
    for n2 in (2, 4, 6, 8):
        table = ta.hecke_image_table(n2, ta.fpf_base(n2))
        for w, img in table.items():
            for i in range(1, n2, 2):
                assert table[_mult_left(w, i)] == img


def test_atoms_by_permutations_match_the_generic_route():
    system = cx.build_system("A3")
    for x10 in ta.enumerate_involutions(4):
        for y10 in ta.enumerate_involutions(4):
            x = cx.permutation_to_element(system, x10)
            y = cx.permutation_to_element(system, y10)
            fast = set(ta.atoms_perm(y10, x10))
            generic = {cx.element_to_permutation(system, w)
                       for w in tw.atoms(system, y, x)}
            assert fast == generic
            fast = set(ta.hecke_atoms_perm(y10, x10))
            generic = {cx.element_to_permutation(system, w)
                       for w in tw.hecke_atoms(system, y, x)}
            assert fast == generic


def test_atom_counts_for_the_longest_element_are_double_factorials():
    for n in range(2, 9):
        w0 = tuple(range(n, 0, -1))
        expected = 1
        for v in range(n - 1, 0, -2):
            expected *= v
        assert len(ta.atoms_perm(w0)) == expected


def test_hecke_atom_counts_for_the_longest_element():
    expected = [1, 1, 1, 3, 7, 35, 135, 945]
    for n, count in enumerate(expected):
        if n == 0:
            continue
        w0 = tuple(range(n, 0, -1))
        assert len(ta.hecke_atoms_perm(w0)) == count


def test_fpf_hecke_atom_counts_for_the_longest_element():
    expected = {2: 2, 4: 16, 6: 320}
    for n2, count in expected.items():
        w0 = tuple(range(n2, 0, -1))
        assert len(ta.hecke_atoms_perm(w0, ta.fpf_base(n2))) == count


def test_pulled_back_atoms_are_the_fold_fibers():
    # every pair of involutions for n <= 5, and at n = 6 a seeded sample of
    # bases plus the matching base: one fold table per base
    rng = random.Random(33)
    invs = [ta.enumerate_involutions(n) for n in range(7)]
    cases = [(x, ys) for ys in invs[:6] for x in ys]
    cases += [(x, invs[6]) for x in rng.sample(invs[6], 6) + [ta.fpf_base(6)]]
    for x, ys in cases:
        fibers = {}
        for w, img in ta.hecke_image_table(len(x), x).items():
            fibers.setdefault(img, []).append(w)
        for y in ys:
            fiber = sorted(fibers.get(y, ()), key=lambda w: (ta.perm_length(w), w))
            assert ta.hecke_atoms_perm(y, x) == tuple(fiber)
            shortest = [w for w in fiber if ta.perm_length(w) == ta.perm_length(fiber[0])]
            assert ta.atoms_perm(y, x) == tuple(shortest)


def _brute_atom_sets(n, bases=None):
    # minimal length fibers of the fold table, for every start involution
    # (or the given bases)
    out = {}
    for x in bases or ta.enumerate_involutions(n):
        fibers = {}
        for w, img in ta.hecke_image_table(n, x).items():
            fibers.setdefault(img, []).append(w)
        for y, ws in fibers.items():
            lmin = min(ta.perm_length(w) for w in ws)
            out[(x, y)] = {w for w in ws if ta.perm_length(w) == lmin}
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_atom_classifiers_match_brute_force(n):
    brute = _brute_atom_sets(n)
    invs = ta.enumerate_involutions(n)
    perms = list(itertools.permutations(range(1, n + 1)))
    for x in invs:
        for y in invs:
            members = brute.get((x, y), set())
            for w in perms:
                expected = w in members
                assert ta.is_atom_general(w, x, y) == expected
                assert ta.is_atom_colored(w, x, y) == expected


def test_absolute_and_longest_classifiers():
    for n in (3, 4, 5):
        identity = tuple(range(1, n + 1))
        w0 = tuple(range(n, 0, -1))
        atoms_w0 = set(ta.atoms_perm(w0))
        for y in ta.enumerate_involutions(n):
            members = set(ta.atoms_perm(y))
            for w in itertools.permutations(range(1, n + 1)):
                assert ta.is_atom_absolute(w, y) == (w in members)
                assert ta.is_atom_general(w, identity, y) == (w in members)
        for w in itertools.permutations(range(1, n + 1)):
            assert ta.is_atom_longest(w) == (w in atoms_w0)


def test_fpf_classifier():
    for n2 in (4, 6):
        base = ta.fpf_base(n2)
        for y in ta.enumerate_involutions(n2, fpf=True):
            members = set(ta.atoms_fpf_perm(y))
            assert members == set(ta.atoms_perm(y, base))
            for w in itertools.permutations(range(1, n2 + 1)):
                assert ta.is_atom_fpf(w, y) == (w in members)


def test_standardization():
    assert ta.std((4, 9, 2)) == (2, 3, 1)
    assert ta.std((5, 5)) == (1, 2)  # ties standardize left to right
    assert ta.std(()) == ()


def test_tau_routes_agree():
    for n in (2, 4):
        for w in itertools.permutations(range(1, n + 1)):
            assert ta.tau(w) == _tau_via_wreath(w)
    with pytest.raises(ValueError, match="even size"):
        ta.tau((1, 2, 3))


def test_sigma_conjecture_at_desk_scale():
    # k_max=5 takes every pair of S5
    for k_max, pairs in ((3, 366), (5, 477)):
        report = ta.check_sigma_conjecture(n_max=5, k_max=k_max)
        assert report["pairs_checked"] == pairs
        assert report["failures"] == []


def test_sigma_test_matches_the_per_w_comparison():
    # the single comparison written out for one w at a time, through prec_leq
    def holds(w, x, y):
        images = [(w[a - 1], w[b - 1]) for a, b in ta.cyc(y)]
        return (all(g in ta.gamma_set(x) for g in images)
                and ta.prec_leq(ta.sigma(*images), ta.sigma(*ta.cyc(y))))

    involutions = sorted(ta.enumerate_involutions(4))
    true = 0
    for x in involutions:
        for y in involutions:
            for w in itertools.permutations(range(1, 5)):
                got = ta._sigma_test(x, y)(w)
                assert got == holds(w, x, y)
                true += got
    assert true


def test_colored_down_sets_match_the_whole_order_goldens():
    # node counts, summed down-set sizes and largest down-sets over tau of
    # every permutation on 2, 4 and 6 vertices, as the build of the whole
    # colored order on 2n <= 6 vertices gave them
    for n, nodes, total, largest in ((1, 2, 3, 2), (2, 24, 106, 16), (3, 720, 13836, 258)):
        betas = {ta.tau(w) for w in itertools.permutations(range(1, 2 * n + 1))}
        sizes = [len(ta._colored_down(beta)) for beta in betas]
        assert (len(betas), sum(sizes), max(sizes)) == (nodes, total, largest)


def test_colored_structures_are_consistent():
    # the colored fold mirrors the plain fold on the doubled matching
    for n in (2, 3):
        for x in ta.enumerate_involutions(n):
            for y in ta.enumerate_involutions(n):
                for w in itertools.permutations(range(1, n + 1)):
                    assert ta.is_atom_colored(w, x, y) == ta.is_atom_general(w, x, y)


def test_atoms_match_the_brute_layers_across_base_and_size_switches():
    rng = random.Random(10)
    id7 = ta.identity_perm(7)
    layers = {**_brute_atom_sets(5), **_brute_atom_sets(6), **_brute_atom_sets(7, [id7])}
    s5, s6, s7 = (ta.enumerate_involutions(n) for n in (5, 6, 7))

    def check(y, x):
        assert ta.atoms_perm(y, x) == tuple(sorted(layers.get((x, y), ())))

    # every pair of S6: each base visited twice in runs of half its targets,
    # interleaved with calls of other sizes and bases
    blocks = []
    for x in s6:
        ys = list(s6)
        rng.shuffle(ys)
        blocks += [(x, ys[:38]), (x, ys[38:])]
    rng.shuffle(blocks)
    for x, ys in blocks:
        for y in ys:
            check(y, x)
        if rng.random() < 0.3:
            check(rng.choice(s5), rng.choice(s5))
        if rng.random() < 0.1:
            check(rng.choice(s7), id7)
    # the FPF base at 2n = 6 against every involution of S6, interleaved with
    # identity-base calls
    fpf = ta.fpf_base(6)
    ys = list(s6)
    rng.shuffle(ys)
    for k, y in enumerate(ys):
        check(y, fpf)
        assert ta.atoms_fpf_perm(y) == ta.atoms_perm(y, fpf)
        if k % 5 == 0:
            check(rng.choice(s6), ta.identity_perm(6))


def test_atoms_need_involutions():
    for y, base in [((2, 3, 1), None), ((3, 1, 2, 4), None), ((1, 2, 3), (2, 3, 1)),
                    ((2, 3, 1, 4), ta.fpf_base(4)),
                    # involutions of different sizes
                    ((2, 1), (1, 2, 3)), ((1, 2, 3), (2, 1))]:
        with pytest.raises(ValueError, match="atoms need involutions"):
            ta.atoms_perm(y, base)


def _atoms_by_descent(ys, base):
    """The minimal length Hecke atoms of each involution in ys relative to
    the involution base, sorted, by the descent recursion: no closure, no
    pull-back and no fold of the group.

    A(z) is the union over right descents i of z of v s_i for v in
    A(z x s_i) with i an ascent of v. Each atom w is built once, from its
    first right descent d: the atoms of z are kept in buckets by first
    right descent, the identity in bucket 0. For v in A(z x s_i) with i an
    ascent, v s_i has first descent i exactly when v is the identity, v's
    first descent is above i, or v's first descent is i - 1 with
    v(i - 1) < v(i + 1). The buckets of each z are kept for the rest of
    the call.
    """
    n = len(base)
    memo = {}
    swap = [None] + [itemgetter(*range(i - 1), i, i - 1, *range(i + 1, n)) for i in range(1, n)]
    lbase = ta.perm_length(base)
    ident = [(ta.identity_perm(n),)] + [()] * (n - 1)

    def rec(z, lz):
        if z == base:
            return ident
        got = memo.get(z)
        if got is not None:
            return got
        out = [()] * n
        if lz > lbase:
            for i in range(1, n):
                if z[i - 1] > z[i]:
                    # the length drops by 1 on the toggle step z(i) = i + 1,
                    # by 2 otherwise
                    sub = rec(ta.rtimes_perm(z, i), lz - 2 + (z[i - 1] == i + 1))
                    g = swap[i]
                    acc = list(map(g, sub[0]))
                    for d in range(i + 1, n):
                        acc += map(g, sub[d])
                    if i > 1:
                        # v(i) < v(i - 1) < v(i + 1): i is an ascent of v
                        acc += [g(v) for v in sub[i - 1] if v[i - 2] < v[i]]
                    out[i] = acc
        memo[z] = out
        return out

    return [tuple(sorted(itertools.chain.from_iterable(rec(y, ta.perm_length(y))))) for y in ys]


def test_atom_closures_match_the_descent_recursion():
    for n in range(9):
        ys = ta.enumerate_involutions(n)
        assert [ta.atoms_perm(y) for y in ys] == _atoms_by_descent(ys, ta.identity_perm(n))
    for n2 in range(0, 11, 2):
        ys = ta.enumerate_involutions(n2, fpf=True)
        assert [ta.atoms_fpf_perm(y) for y in ys] == _atoms_by_descent(ys, ta.fpf_base(n2))
    # y with a fixed point has no atoms against the FPF base
    ys = [y for y in ta.enumerate_involutions(6) if not ta.is_fpf_involution(y)]
    assert [ta.atoms_fpf_perm(y) for y in ys] == [()] * len(ys)
    assert _atoms_by_descent(ys, ta.fpf_base(6)) == [()] * len(ys)
    assert ta.atoms_perm(()) == ((),)
    assert ta.atoms_fpf_perm(()) == ((),)
    assert ta.atoms_perm((1,)) == ((1,),)
    assert ta.atoms_perm((1, 2)) == ((1, 2),)
    assert ta.atoms_perm((2, 1)) == ((2, 1),)
    assert ta.atoms_fpf_perm((2, 1)) == ((1, 2),)
    assert ta.atoms_fpf_perm((1, 2)) == ()


def test_hecke_routes_need_involutions():
    for y, base in [((2, 3, 1), None), ((3, 1, 2, 4), None), ((1, 2, 3), (2, 3, 1)),
                    ((3,), None), ((1, 3), None),  # entries out of range
                    # involutions of different sizes
                    ((2, 1, 3), (2, 1)), ((2, 1), (1, 2, 3))]:
        with pytest.raises(ValueError, match="Hecke atoms need involutions"):
            ta.hecke_atoms_perm(y, base)
    for n, base in [(3, (2, 1)), (2, (1, 2, 3)), (3, (2, 3, 1)), (2, (1, 3))]:
        with pytest.raises(ValueError, match="Hecke images need involutions"):
            ta.hecke_image_table(n, base)
    with pytest.raises(ValueError, match="non-negative"):
        ta.hecke_image_table(-1)
    assert not ta.is_involution_perm((3,)) and not ta.is_involution_perm((1, 3))
