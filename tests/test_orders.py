import itertools
import json
import random

import pytest

import invatoms.coxeter as cx
import invatoms.orders as od
import invatoms.typea as ta

from test_typea import _compose


def test_three_letter_rewriting_class():
    # [c,a,b] ~ [b,c,a] ~ [c,b,a] with a <= b <= c
    assert od.chinese_class((3, 1, 2)) == {(3, 1, 2), (2, 3, 1), (3, 2, 1)}
    assert od.chinese_class((1, 2, 3)) == {(1, 2, 3)}
    assert od.chinese_class((2, 1)) == {(2, 1)}


def _reference_mates(window, patterns):
    # the moves' definition on the sorted letters, ties deduplicated
    pats = list(dict.fromkeys(patterns(*sorted(window))))
    return [p for p in pats if p != window] if window in pats else []


def _chinese_patterns(a, b, c):
    return [(c, a, b), (b, c, a), (c, b, a)]


def _reference_chinese(seq):
    out = []
    for i in range(len(seq) - 2):
        for pat in _reference_mates(seq[i:i + 3], _chinese_patterns):
            out.append(seq[:i] + pat + seq[i + 3:])
    return out


def _fpf_patterns(a, b, c, d):
    return [(a, d, b, c), (b, c, a, d), (b, d, a, c), (c, d, a, b)]


def _reference_quads(seq, patterns=_fpf_patterns):
    out = []
    for i in range(0, len(seq) - 3, 2):
        for pat in _reference_mates(seq[i:i + 4], patterns):
            out.append(seq[:i] + pat + seq[i + 4:])
    return out


def _reference_fpf(seq):
    out = [seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2:] for i in range(0, len(seq), 2)]
    return out + _reference_quads(seq)


# neighbour lists frozen from the sort-and-deduplicate implementation, with
# repeated letters, in order and with repeats
CHINESE_GOLDENS = {
    (2, 2, 1, 3): [(2, 1, 2, 3)],
    (1, 3, 3, 2, 2, 4): [(1, 3, 2, 3, 2, 4), (1, 3, 2, 3, 2, 4)],
    (3, 1, 2): [(2, 3, 1), (3, 2, 1)],
    (2, 1, 1): [(1, 2, 1)],
    (3, 3, 3): [],
    (2, 1, 2, 1): [(2, 2, 1, 1), (2, 2, 1, 1)],
    (4, 2, 3, 1, 5): [(3, 4, 2, 1, 5), (4, 3, 2, 1, 5), (4, 3, 1, 2, 5), (4, 3, 2, 1, 5)],
    (3, 1, 2, 2): [(2, 3, 1, 2), (3, 2, 1, 2)],
}
FPF_GOLDENS = {
    (2, 2, 1, 3): [(2, 2, 1, 3), (2, 2, 3, 1), (1, 3, 2, 2), (2, 3, 1, 2)],
    (1, 3, 3, 2, 2, 4): [(3, 1, 3, 2, 2, 4), (1, 3, 2, 3, 2, 4), (1, 3, 3, 2, 4, 2)],
    (2, 1, 4, 3): [(1, 2, 4, 3), (2, 1, 3, 4)],
    (1, 4, 2, 3): [(4, 1, 2, 3), (1, 4, 3, 2), (2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2)],
    (2, 2, 2, 2): [(2, 2, 2, 2), (2, 2, 2, 2)],
    (1, 1, 2, 2): [(1, 1, 2, 2), (1, 1, 2, 2)],
    (3, 3, 1, 1): [(3, 3, 1, 1), (3, 3, 1, 1), (1, 3, 1, 3)],
    (1, 4, 2, 3, 2, 2): [(4, 1, 2, 3, 2, 2), (1, 4, 3, 2, 2, 2), (1, 4, 2, 3, 2, 2),
                         (2, 3, 1, 4, 2, 2), (2, 4, 1, 3, 2, 2), (3, 4, 1, 2, 2, 2),
                         (1, 4, 2, 2, 2, 3)],
}


def test_window_mates_match_the_goldens_and_the_sorted_window_rule():
    for seq, want in CHINESE_GOLDENS.items():
        assert _reference_chinese(seq) == want
    for seq, want in FPF_GOLDENS.items():
        assert _reference_fpf(seq) == want
    # the mates the class closures move by, on every relative order of a
    # window, ties included
    for width, mates, patterns in ((3, od._triple_mates, _chinese_patterns),
                                   (4, od._quad_mates, _fpf_patterns)):
        for window in itertools.product(range(1, width + 1), repeat=width):
            assert mates(window) == _reference_mates(window, patterns), window
    assert od.chinese_class([3, 1.0, 2]) == {(3, 1, 2), (2, 3, 1), (3, 2, 1)}


def test_rewriting_class_of_the_running_example():
    cls = od.chinese_class((3, 5, 1, 4, 2))
    assert len(cls) == 35
    assert min(cls) == (3, 4, 2, 5, 1)
    for u in cls:
        assert set(_reference_chinese(u)) <= cls


def test_class_partition_matches_hecke_fibers():
    for n, classes in [(3, 4), (4, 10), (5, 26), (8, 764)]:
        report = od.verify_chinese(n)
        assert report["failures"] == []
        assert report["classes"] == classes
        assert report["involutions"] == classes


def test_fpf_class_matches_the_plain_closure_under_all_moves():
    # the oracle: a BFS under the swaps and moves together, no pair sorting
    rng = random.Random(13)
    for trial in range(300):
        n2 = rng.choice((2, 4, 6, 8))
        letters = range(1, n2 + 1) if trial % 3 else range(1, n2 // 2 + 2)  # ties
        seq = tuple(rng.choice(letters) for _ in range(n2))
        assert od.fpf_class(seq) == cx.closure(seq, _reference_fpf), seq


def test_fpf_rewriting_class_basics():
    assert od.fpf_class((2, 1, 4, 3)) == {(1, 2, 3, 4), (1, 2, 4, 3),
                                          (2, 1, 3, 4), (2, 1, 4, 3)}
    with pytest.raises(ValueError, match="odd length"):
        od.fpf_class((2, 1, 3))


def test_fpf_class_partition_matches_hecke_fibers():
    for n2, classes in [(2, 1), (4, 3), (6, 15)]:
        report = od.verify_fpf(n2)
        assert report["failures"] == []
        assert report["classes"] == classes


def test_class_verifier_reports_a_wrong_relation():
    # a relation is injected as relation(n, b), which gives the function from
    # a packed sequence to the packed members of its class
    def unpacked(class_of):
        return lambda n, b: lambda p: {od._pack(v, b) for v in class_of(od._unpack(p, n, b))}

    # too fine: every class a singleton; 16 of the 26 Hecke sets of S5 have
    # more than one element
    report = od._verify_classes(5, ta.identity_perm(5), unpacked(lambda u: {u}))
    assert report["involutions"] == 26
    assert len(report["failures"]) == 16
    assert all(f["class_size"] == 1 < f["hecke_size"] for f in report["failures"])
    # too coarse: one class, all of S5
    report = od._verify_classes(5, ta.identity_perm(5),
                                unpacked(lambda u: set(itertools.permutations(u))))
    assert report["classes"] == 1
    assert len(report["failures"]) == 26
    assert all(f["class_size"] == 120 for f in report["failures"])
    # wrong: the plain relation against the fixed-point-free Hecke sets
    report = od._verify_classes(6, ta.fpf_base(6), lambda n, b: od._closer(n, b, *od._CHINESE))
    assert report["involutions"] == 15
    assert len(report["failures"]) == 15
    for f in report["failures"]:
        assert ta.is_involution_perm(tuple(f["involution"]))
    # wrong: the fixed-point-free moves with one of the four patterns left
    # out, on pair-sorted sequences; all four patterns pass, and the 14 Hecke
    # sets of S8 that are a single swap orbit pass whichever one is left out
    def sorted_class(patterns):
        def class_of(u):
            start = tuple(v for i in range(0, len(u), 2) for v in sorted(u[i:i + 2]))
            return cx.closure(start, lambda v: _reference_quads(v, patterns))
        return unpacked(class_of)

    for dropped in (None, 0, 1, 2, 3):
        def patterns(a, b, c, d, dropped=dropped):
            return [p for i, p in enumerate(_fpf_patterns(a, b, c, d)) if i != dropped]

        report = od._verify_classes(8, ta.fpf_base(8), sorted_class(patterns))
        assert report["involutions"] == 105
        if dropped is None:
            assert report["failures"] == []
        else:
            assert len(report["failures"]) == 91
            assert all(f["class_size"] < f["hecke_size"] for f in report["failures"])
            assert all(f["hecke_size"] % 16 == 0 for f in report["failures"])


def test_packed_moves_and_classes_match_the_tuple_references():
    # ties, letters above 15 and up to 12 letters; from nine letters on, the
    # classes draw on three values, which keeps them small
    rng = random.Random(29)
    for trial in range(120):
        n = rng.randrange(13)
        letters = rng.sample(range(1, 60), rng.randint(1, max(n, 1)))
        seq = tuple(rng.choice(letters) for _ in range(n))
        if n > 8:
            seq = tuple(rng.choice(letters[:3]) for _ in range(n))
        assert od.chinese_class(seq) == cx.closure(seq, _reference_chinese), seq
        if n % 2 == 0:
            assert od.fpf_class(seq) == cx.closure(seq, _reference_fpf), seq


def test_window_moves_are_shared_by_the_closures_of_one_width_and_relation():
    # (3, 5, 1, 4, 2) packs 3 bits a letter; a second class of the same
    # bits, width and mates reads the dict the first one filled
    od._moves.cache_clear()
    od.chinese_class((3, 5, 1, 4, 2))
    moves = od._moves(3, 3, od._triple_mates)
    filled = dict(moves)
    assert od.chinese_class((5, 3, 1, 4, 2)) == cx.closure((5, 3, 1, 4, 2), _reference_chinese)
    assert od._moves(3, 3, od._triple_mates) is moves
    assert filled and filled.items() <= moves.items()
    od.fpf_class((1, 5, 4, 6, 2, 3))
    assert od._moves(3, 4, od._quad_mates) is not moves
    assert od._moves.cache_info().maxsize == 8


def test_fpf_class_of_size_fifty_six():
    assert len(od.fpf_class((1, 5, 4, 6, 2, 3))) == 56


def test_sweep_caps():
    with pytest.raises(ValueError, match="too large"):
        od.verify_chinese(od.CHINESE_SWEEP_CAP + 1)
    with pytest.raises(ValueError, match="too large"):
        od.verify_fpf(od.FPF_SWEEP_CAP + 2)
    with pytest.raises(ValueError, match="non-negative"):
        od.verify_chinese(-1)
    with pytest.raises(ValueError, match="non-negative"):
        od.verify_fpf(-2)
    # the sign is checked before the parity, and the parity names the size
    with pytest.raises(ValueError, match="non-negative"):
        od.verify_fpf(-1)
    with pytest.raises(ValueError, match="needs an even size, got 3"):
        od.verify_fpf(3)


def test_extremal_atoms():
    x = (4, 3, 2, 1, 5, 6)  # (1,4)(2,3) with fixed points 5, 6
    assert od.hat0(x) == (4, 1, 3, 2, 5, 6)
    assert od.hat1(x) == (3, 2, 4, 1, 5, 6)
    w0 = (6, 5, 4, 3, 2, 1)
    assert od.hat0(w0) == (6, 1, 5, 2, 4, 3)
    assert od.hat1(w0) == (4, 3, 5, 2, 6, 1)
    with pytest.raises(ValueError, match="involution"):
        od.hat0((2, 3, 1))


def test_fpf_extremal_atoms_match_the_shifted_plain_ones():
    x = (8, 3, 2, 6, 7, 4, 5, 1)  # (1,8)(2,3)(4,6)(5,7)
    assert od.hat0_fpf(x) == (1, 8, 2, 3, 4, 6, 5, 7)
    assert od.hat1_fpf(x) == (2, 3, 4, 6, 5, 7, 1, 8)
    for n2 in (4, 6):
        base = ta.fpf_base(n2)
        for y in ta.enumerate_involutions(n2, fpf=True):
            assert od.hat0_fpf(y) == _compose(od.hat0(y), base)
            assert od.hat1_fpf(y) == _compose(od.hat1(y), base)
    with pytest.raises(ValueError, match="fixed-point-free"):
        od.hat0_fpf((1, 2, 4, 3))


def test_extremal_atoms_really_are_atoms_and_extremes():
    for n in (3, 4, 5):
        for x in ta.enumerate_involutions(n):
            inverted = {ta.inverse_perm(w) for w in ta.atoms_perm(x)}
            assert od.hat0(x) in inverted
            assert od.hat1(x) in inverted
            for u in inverted:
                assert od.prec_A_leq(od.hat0(x), u)
                assert od.prec_A_leq(u, od.hat1(x))


def test_atom_class_is_interval_between_extremes():
    # the inverted atoms are exactly the up-set of the bottom atom, and
    # exactly the down-set of the top one, within the whole group
    for n in (3, 4):
        perms = list(itertools.permutations(range(1, n + 1)))
        for x in ta.enumerate_involutions(n):
            inverted = {ta.inverse_perm(w) for w in ta.atoms_perm(x)}
            ups = {u for u in perms if od.prec_A_leq(od.hat0(x), u)}
            downs = {u for u in perms if od.prec_A_leq(u, od.hat1(x))}
            assert ups == inverted
            assert downs == inverted


def test_321_avoidance():
    assert od.is_321_avoiding((3, 1, 2))
    assert not od.is_321_avoiding((3, 2, 1))
    assert od.is_321_avoiding((1, 2, 3))
    for w in itertools.permutations(range(1, 7)):
        brute = any(w[i] > w[j] > w[k]
                    for i in range(6) for j in range(i + 1, 6)
                    for k in range(j + 1, 6))
        assert od.is_321_avoiding(w) == (not brute)


def test_singleton_atom_sets_are_the_321_avoiding_involutions():
    for n in (3, 4, 5):
        for x in ta.enumerate_involutions(n):
            assert (len(ta.atoms_perm(x)) == 1) == od.is_321_avoiding(x)


def _a_inversions(u, x):
    """The rank oracle of atom_poset: the pairs of values of u, both lower
    (v <= x(v)) with the larger first, or both upper (x(v) < v) with the
    smaller first."""
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


def _fpf_embedding(u, x):
    """The rank oracle of atom_poset_fpf: the image of an inverted FPF atom
    u of x in S_{n/2}, pair by pair, each 2-cycle of x numbered by its
    place in cyc(x)."""
    phi = {pair: i for i, pair in enumerate(ta.cyc(x), 1)}
    out = []
    for i in range(0, len(u), 2):
        pair = (u[i], u[i + 1])
        if pair not in phi:
            raise ValueError("u not an atom inverse")
        out.append(phi[pair])
    return tuple(out)


def test_inversion_statistic_grades_the_poset():
    for n in (4, 5):
        for x in ta.enumerate_involutions(n):
            poset = od.atom_poset(x)
            assert set(poset.covers) == {(u, v) for u in poset.elements
                                         for v in ta._up_steps(u)}
            for u in poset.elements:
                assert poset.ranks[u] == len(_a_inversions(u, x))
            for u, v in poset.covers:
                assert poset.ranks[v] == poset.ranks[u] + 1
            assert poset.bottom == od.hat0(x)
            assert poset.top == od.hat1(x)
            rmin = min(poset.ranks.values())
            assert poset.ranks[poset.bottom] == rmin


def test_ranks_match_the_counted_statistics():
    # the ranks add the rise of each move to the rank of the bottom atom;
    # the quadratic counts are the oracle
    for n in range(9):
        for x in ta.enumerate_involutions(n):
            poset = od.atom_poset(x)
            for u in poset.elements:
                assert poset.ranks[u] == len(_a_inversions(u, x))
    for n2 in range(2, 11, 2):
        for x in ta.enumerate_involutions(n2, fpf=True):
            poset = od.atom_poset_fpf(x)
            for u in poset.elements:
                assert poset.ranks[u] == ta.perm_length(_fpf_embedding(u, x))


def test_closed_form_bottom_ranks_match_the_counted_statistics():
    for n in range(9):
        for x in ta.enumerate_involutions(n):
            assert od._bottom_rank(ta.cyc(x)) == len(_a_inversions(od.hat0(x), x))
    for n2 in range(0, 11, 2):
        for x in ta.enumerate_involutions(n2, fpf=True):
            assert ta.perm_length(_fpf_embedding(od.hat0_fpf(x), x)) == 0


def test_bottom_rank_need_not_vanish():
    # (1,2)(3,4) has bottom atom [2,1,4,3] with one ordered pair inverted
    poset = od.atom_poset((2, 1, 4, 3))
    assert poset.ranks[poset.bottom] == 1


def test_inversion_set_rejects_non_atoms():
    with pytest.raises(ValueError, match="u not an atom inverse"):
        _fpf_embedding((1, 2, 3, 4), (3, 4, 1, 2))


def _weak_leq_right(system, u, w):
    """Right weak order: u <= w iff l(u) + l(u^-1 w) = l(w)."""
    rest = system.multiply(system.inverse(u), w)
    return system.length(u) + system.length(rest) == system.length(w)


def test_fpf_reachability_order_matches_the_fpf_atom_order():
    pairs = 0
    for n2 in (2, 4, 6, 8):
        for x in ta.enumerate_involutions(n2, fpf=True):
            poset = od.atom_poset_fpf(x)
            for u in poset.elements:
                for v in poset.elements:
                    pairs += 1
                    assert od.prec_Afpf_leq(u, v) == poset.leq(u, v)
    assert pairs == 2789  # one at 2n = 2, 2788 for 2n = 4, 6, 8
    with pytest.raises(ValueError, match="odd length"):
        od.prec_Afpf_leq((1, 2, 3), (1, 2, 3))


def test_fpf_posets_are_graded_lattices_embedding_in_weak_order():
    system = cx.build_system("A2")
    for x in ta.enumerate_involutions(6, fpf=True):
        poset = od.atom_poset_fpf(x)
        assert od.poset_is_lattice(poset)
        assert set(poset.covers) == {(u, v) for u in poset.elements
                                     for v in ta._up_steps_fpf(u)}
        images = {}
        for u in poset.elements:
            phi = _fpf_embedding(u, x)
            assert poset.ranks[u] == ta.perm_length(phi)
            images[u] = phi
        # cover edges map to weak order covers
        for u, v in poset.covers:
            a = cx.permutation_to_element(system, images[u])
            b = cx.permutation_to_element(system, images[v])
            assert _weak_leq_right(system, a, b)
        # the image is the full lower weak-order interval under the top
        top = cx.permutation_to_element(system, images[poset.top])
        interval = {w for w in system.elements() if _weak_leq_right(system, w, top)}
        assert {cx.permutation_to_element(system, p) for p in images.values()} == interval


def test_every_lower_weak_interval_appears_as_an_fpf_atom_order():
    # the interval below w in S3 matches the atom order of the matching
    # that pairs w(i) with n + i
    w = (3, 1, 2)
    x = (5, 6, 4, 3, 1, 2)  # the matching (3,4)(1,5)(2,6)
    poset = od.atom_poset_fpf(x)
    system = cx.build_system("A2")
    wel = cx.permutation_to_element(system, w)
    interval = {v for v in system.elements() if _weak_leq_right(system, v, wel)}
    images = {cx.permutation_to_element(system, _fpf_embedding(u, x))
              for u in poset.elements}
    assert images == interval
    assert _fpf_embedding(poset.top, x) == w


FIG1_NODES = [
    (6, 1, 5, 2, 4, 3), (5, 6, 1, 2, 4, 3), (5, 2, 6, 1, 4, 3),
    (5, 2, 4, 6, 1, 3), (5, 2, 4, 3, 6, 1), (4, 5, 2, 3, 6, 1),
    (4, 3, 5, 2, 6, 1), (4, 3, 5, 6, 1, 2), (4, 3, 6, 1, 5, 2),
    (4, 6, 1, 3, 5, 2), (6, 1, 4, 3, 5, 2), (6, 1, 4, 5, 2, 3),
    (4, 5, 2, 6, 1, 3), (4, 6, 1, 5, 2, 3), (4, 5, 6, 1, 2, 3),
]

FIG1_COVERS = [
    ((6, 1, 5, 2, 4, 3), (5, 6, 1, 2, 4, 3)),
    ((5, 6, 1, 2, 4, 3), (5, 2, 6, 1, 4, 3)),
    ((5, 2, 6, 1, 4, 3), (5, 2, 4, 6, 1, 3)),
    ((5, 2, 4, 6, 1, 3), (5, 2, 4, 3, 6, 1)),
    ((5, 2, 4, 3, 6, 1), (4, 5, 2, 3, 6, 1)),
    ((4, 5, 2, 3, 6, 1), (4, 3, 5, 2, 6, 1)),
    ((4, 3, 5, 6, 1, 2), (4, 3, 5, 2, 6, 1)),
    ((4, 3, 6, 1, 5, 2), (4, 3, 5, 6, 1, 2)),
    ((4, 6, 1, 3, 5, 2), (4, 3, 6, 1, 5, 2)),
    ((6, 1, 4, 3, 5, 2), (4, 6, 1, 3, 5, 2)),
    ((6, 1, 4, 5, 2, 3), (6, 1, 4, 3, 5, 2)),
    ((6, 1, 5, 2, 4, 3), (6, 1, 4, 5, 2, 3)),
    ((5, 2, 4, 6, 1, 3), (4, 5, 2, 6, 1, 3)),
    ((4, 6, 1, 5, 2, 3), (4, 6, 1, 3, 5, 2)),
    ((6, 1, 4, 5, 2, 3), (4, 6, 1, 5, 2, 3)),
    ((4, 6, 1, 5, 2, 3), (4, 5, 6, 1, 2, 3)),
    ((4, 5, 6, 1, 2, 3), (4, 5, 2, 6, 1, 3)),
    ((4, 5, 2, 6, 1, 3), (4, 5, 2, 3, 6, 1)),
]


def test_atom_order_of_the_reversal_in_s6():
    poset = od.atom_poset((6, 5, 4, 3, 2, 1))
    assert sorted(poset.elements) == sorted(FIG1_NODES)
    assert sorted(poset.covers) == sorted(FIG1_COVERS)
    assert poset.bottom == (6, 1, 5, 2, 4, 3)
    assert poset.top == (4, 3, 5, 2, 6, 1)


FIG2_NODES = [
    (1, 8, 2, 6, 3, 10, 4, 7, 5, 9),
    (2, 6, 1, 8, 3, 10, 4, 7, 5, 9),
    (1, 8, 2, 6, 4, 7, 3, 10, 5, 9),
    (2, 6, 1, 8, 4, 7, 3, 10, 5, 9),
    (1, 8, 2, 6, 4, 7, 5, 9, 3, 10),
    (2, 6, 4, 7, 1, 8, 3, 10, 5, 9),
    (2, 6, 1, 8, 4, 7, 5, 9, 3, 10),
    (2, 6, 4, 7, 1, 8, 5, 9, 3, 10),
]

FIG2_COVERS = [
    ((1, 8, 2, 6, 3, 10, 4, 7, 5, 9), (1, 8, 2, 6, 4, 7, 3, 10, 5, 9)),
    ((1, 8, 2, 6, 4, 7, 3, 10, 5, 9), (1, 8, 2, 6, 4, 7, 5, 9, 3, 10)),
    ((1, 8, 2, 6, 4, 7, 5, 9, 3, 10), (2, 6, 1, 8, 4, 7, 5, 9, 3, 10)),
    ((2, 6, 1, 8, 4, 7, 5, 9, 3, 10), (2, 6, 4, 7, 1, 8, 5, 9, 3, 10)),
    ((2, 6, 4, 7, 1, 8, 3, 10, 5, 9), (2, 6, 4, 7, 1, 8, 5, 9, 3, 10)),
    ((2, 6, 1, 8, 4, 7, 3, 10, 5, 9), (2, 6, 4, 7, 1, 8, 3, 10, 5, 9)),
    ((2, 6, 1, 8, 3, 10, 4, 7, 5, 9), (2, 6, 1, 8, 4, 7, 3, 10, 5, 9)),
    ((1, 8, 2, 6, 3, 10, 4, 7, 5, 9), (2, 6, 1, 8, 3, 10, 4, 7, 5, 9)),
    ((1, 8, 2, 6, 4, 7, 3, 10, 5, 9), (2, 6, 1, 8, 4, 7, 3, 10, 5, 9)),
    ((2, 6, 1, 8, 4, 7, 3, 10, 5, 9), (2, 6, 1, 8, 4, 7, 5, 9, 3, 10)),
]


def test_fpf_atom_order_of_the_ten_letter_example():
    x = (8, 6, 10, 7, 9, 2, 4, 1, 5, 3)  # (1,8)(2,6)(3,10)(4,7)(5,9)
    poset = od.atom_poset_fpf(x)
    assert sorted(poset.elements) == sorted(FIG2_NODES)
    assert sorted(poset.covers) == sorted(FIG2_COVERS)
    assert poset.bottom == (1, 8, 2, 6, 3, 10, 4, 7, 5, 9)
    assert poset.top == (2, 6, 4, 7, 1, 8, 5, 9, 3, 10)


def test_poset_rejects_non_involutions():
    with pytest.raises(ValueError, match="involution"):
        od.atom_poset((2, 3, 1))
    with pytest.raises(ValueError, match="fixed-point-free"):
        od.atom_poset_fpf((1, 2, 4, 3))


_BAD_INPUTS = [(1, 1), (2, 2, 1), (0, 1), (3, 1), (-1, 2), (2, 3, 1)]
_NOT_AN_INVOLUTION = {"atoms": "atoms need involutions",
                      "extremal": "extremal atoms need an involution",
                      "fpf": "x is not fixed-point-free"}
_ODD_SIZE = "fixed-point-free involutions need even size"
_ONE_ATOM = {"elements": [[1, 2, 4, 3]], "covers": [], "bottom": [1, 2, 4, 3],
             "top": [1, 2, 4, 3], "ranks": [0]}
# each query -> its outcome on the bad inputs, then on (1, 2, 4, 3) and (2, 1, 3):
# a string is a ValueError's whole message, anything else the answer
_INPUT_OUTCOMES = {
    ta.atoms_perm: [_NOT_AN_INVOLUTION["atoms"]] * 6 + [((1, 2, 4, 3),), ((2, 1, 3),)],
    ta.atoms_fpf_perm: [_NOT_AN_INVOLUTION["atoms"], _ODD_SIZE] + [_NOT_AN_INVOLUTION["atoms"]] * 3
    + [_ODD_SIZE, (), _ODD_SIZE],
    od.atom_poset: [_NOT_AN_INVOLUTION["extremal"]] * 6 + [
        _ONE_ATOM, {**_ONE_ATOM, **dict.fromkeys(("bottom", "top"), [2, 1, 3]),
                    "elements": [[2, 1, 3]]}],
    od.hat0: [_NOT_AN_INVOLUTION["extremal"]] * 6 + [(1, 2, 4, 3), (2, 1, 3)],
    od.hat1: [_NOT_AN_INVOLUTION["extremal"]] * 6 + [(1, 2, 4, 3), (2, 1, 3)],
    od.atom_poset_fpf: [_NOT_AN_INVOLUTION["fpf"]] * 8,
    od.hat0_fpf: [_NOT_AN_INVOLUTION["fpf"]] * 8,
    od.hat1_fpf: [_NOT_AN_INVOLUTION["fpf"]] * 8,
}


@pytest.mark.parametrize("query", list(_INPUT_OUTCOMES), ids=lambda f: f.__name__)
def test_type_a_queries_pin_their_answer_or_error_on_each_input(query):
    for x, want in zip(_BAD_INPUTS + [(1, 2, 4, 3), (2, 1, 3)], _INPUT_OUTCOMES[query]):
        if isinstance(want, str):
            with pytest.raises(ValueError) as err:
                query(x)
            assert str(err.value) == want, x
        else:
            got = query(x)
            assert (od.poset_to_json(got) if isinstance(got, od.AtomPoset) else got) == want, x


def test_poset_exports():
    poset = od.atom_poset((4, 3, 2, 1))
    blob = od.poset_to_json(poset)
    json.dumps(blob)
    assert blob["bottom"] == list(poset.bottom)
    assert blob["top"] == list(poset.top)
    assert len(blob["ranks"]) == len(blob["elements"])
    dot = od.poset_to_dot(poset)
    assert dot.startswith("digraph atoms {")
    assert "rankdir=BT;" in dot
    assert '"4132"' in dot
    assert dot.count("->") == len(poset.covers)


def test_poset_leq_matches_cover_reachability():
    poset = od.atom_poset((6, 5, 4, 3, 2, 1))
    for u in poset.elements:
        assert poset.leq(poset.bottom, u)
        assert poset.leq(u, poset.top)
    assert not poset.leq(poset.top, poset.bottom)
    poset = od.atom_poset((4, 3, 2, 1))
    with pytest.raises(ValueError, match="u is not an element of the atom order"):
        poset.leq((1, 2, 3, 4), poset.top)


def _closure_poset(bottom, bottom_rank, moves):
    # one closure, then the elements and the covers sorted by rank
    ranks = {bottom: bottom_rank}
    covers = []

    def up(u):
        for v, rise in moves(u):
            covers.append((u, v))
            ranks[v] = ranks[u] + rise
        return [v for v, _ in moves(u)]

    cx.closure(bottom, up)
    elements = tuple(sorted(ranks, key=lambda u: (ranks[u], u)))
    tops = [u for u in elements if not moves(u)]
    return elements, tuple(sorted(covers, key=lambda e: (ranks[e[0]], e))), tops, ranks


def test_layered_posets_match_the_sorted_closure():
    cases = [(x, False) for x in ta.enumerate_involutions(8)]
    cases += [(x, True) for n2 in (8, 10) for x in ta.enumerate_involutions(n2, fpf=True)]
    assert len(cases) == 764 + 105 + 945
    for x, fpf in cases:
        if fpf:
            poset = od.atom_poset_fpf(x)
            bottom = od.hat0_fpf(x)
            want = _closure_poset(bottom, ta.perm_length(_fpf_embedding(bottom, x)),
                                  od._ranked_moves_fpf(x))
        else:
            poset = od.atom_poset(x)
            bottom = od.hat0(x)
            want = _closure_poset(bottom, len(_a_inversions(bottom, x)), od._ranked_moves(x))
        assert (poset.elements, poset.covers, [poset.top], poset.ranks) == want
        assert poset.bottom == bottom


def test_build_rejects_a_move_that_skips_a_rank():
    # 1 -> 2 -> 3 is graded, but the extra move 1 -> 3 skips rank 2
    moves = {(1,): [(2,), (3,)], (2,): [(3,)], (3,): []}
    with pytest.raises(RuntimeError, match="does not rise by one along moves"):
        od._build_poset((1,), 1, lambda u: [(v, v[0] - u[0]) for v in moves[u]])


def test_build_rejects_an_order_with_two_maximal_elements():
    moves = {(1,): [(2,), (3,)], (2,): [], (3,): []}
    with pytest.raises(RuntimeError, match="not bounded above"):
        od._build_poset((1,), 1, lambda u: [(v, 1) for v in moves[u]])


def test_relative_hecke_inverses_scatter_across_classes():
    # the absolute Hecke set of [3,5,1,4,2], read off the fold table,
    # inverts onto one whole class, but the relative Hecke atoms from
    # [3,5,1,4,2] to [4,5,3,1,2] do not
    y = (3, 5, 1, 4, 2)
    fiber = sorted(w for w, img in ta.hecke_image_table(5).items() if img == y)
    assert sorted(ta.hecke_atoms_perm(y)) == fiber
    absolute = set(map(ta.inverse_perm, fiber))
    assert len(absolute) == 3
    assert od.chinese_class(min(absolute)) == absolute

    x = (3, 5, 1, 4, 2)
    target = (4, 5, 3, 1, 2)
    relative = [ta.inverse_perm(w) for w in ta.hecke_atoms_perm(target, x)]
    by_class = {}
    for u in relative:
        by_class.setdefault(min(od.chinese_class(u)), []).append(u)
    counts = {key: len(v) for key, v in by_class.items()}
    assert counts == {
        (1, 2, 4, 3, 5): 1,
        (1, 2, 4, 5, 3): 1,
        (1, 3, 4, 2, 5): 3,
        (1, 3, 4, 5, 2): 1,
        (1, 4, 2, 5, 3): 1,
        (1, 4, 3, 5, 2): 1,
    }
