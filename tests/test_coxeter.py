import hashlib
import itertools
import math
import random
import time

import pytest

import invatoms.braid as br
import invatoms.coxeter as cx
import invatoms.twisted as tw

# degrees of the basic invariants (Humphreys, Reflection Groups and Coxeter
# Groups, section 3.7): |W| is their product, |Phi+| the sum of d - 1
DEGREES = {
    "A1": (2,), "A2": (2, 3), "A5": (2, 3, 4, 5, 6),
    "B2": (2, 4), "B3": (2, 4, 6), "B5": (2, 4, 6, 8, 10), "C3": (2, 4, 6),
    "D4": (2, 4, 4, 6), "D5": (2, 4, 5, 6, 8),
    "E6": (2, 5, 6, 8, 9, 12), "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12), "G2": (2, 6), "H3": (2, 6, 10), "H4": (2, 12, 20, 30),
    "I2(5)": (2, 5), "I2(8)": (2, 8),
}


def test_orders_of_standard_systems():
    for name, order in [("A3", 24), ("B3", 48), ("H3", 120), ("D4", 192),
                        ("A1xA1", 4), ("I2(7)", 14), ("G2", 12)]:
        assert cx.build_system(name).order() == order


def test_longest_element_length_equals_positive_root_count():
    for name in ["A3", "B3", "H3", "D4"]:
        system = cx.build_system(name)
        w0 = system.longest_element()
        assert system.length(w0) == system.num_positive
        assert tuple(system.descents_right(w0)) == tuple(range(1, system.rank + 1))


def test_generators_satisfy_the_defining_relations():
    system = cx.build_system("B3")
    for s in range(1, 4):
        gs = system.generator(s)
        assert system.multiply(gs, gs) == system.identity
        for t in range(1, 4):
            if s == t:
                continue
            st = system.multiply(gs, system.generator(t))
            w = system.identity
            for _ in range(system.bond(s, t)):
                w = system.multiply(w, st)
            assert w == system.identity


@pytest.mark.parametrize("name", ["A1", "B3", "I2(5)"])
def test_right_mult_is_the_product_with_a_generator(name):
    system = cx.build_system(name)
    for w in system.elements():
        for s in range(1, system.rank + 1):
            ws = system.right_mult(w, s)
            assert type(ws) is tuple and ws == system.multiply(w, system.generator(s))


def test_longest_element_of_s4_has_sixteen_reduced_words():
    system = cx.build_system("A3")
    words = system.reduced_words(system.longest_element())
    assert len(words) == 16
    assert all(len(w) == 6 for w in words)
    assert all(system.product(w) == system.longest_element() for w in words)


def test_reduced_word_is_lexicographically_minimal():
    system = cx.build_system("B3")
    for w in system.elements():
        words = system.reduced_words(w)
        assert system.reduced_word(w) == min(words)
        assert all(len(e) == system.length(w) for e in words)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_reduced_words_are_the_words_of_length_l_with_product_w(name):
    system = cx.build_system(name)
    letters = range(1, system.rank + 1)
    by_product = {}
    for k in range(system.num_positive + 1):
        for word in itertools.product(letters, repeat=k):  # in lex order
            w = system.product(word)
            if system.length(w) == k:
                by_product.setdefault(w, []).append(word)
    assert len(by_product) == system.order()
    for w in system.elements():
        assert system.reduced_words(w) == tuple(by_product[w])


@pytest.mark.parametrize("name", ["B4", "H3"])
def test_reduced_words_are_one_braid_class(name, monkeypatch):
    # the word property (Bjorner-Brenti 3.3.1): the reduced words of w are
    # the braid class of any one of them, listed by a BFS closure
    fast = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    assert fast.id_table() is not None
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 100)  # B4 has order 384, H3 120
    slow = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    assert slow.id_table() is None
    # all but the longest elements: w0 of B4 alone has 24,024 reduced words
    for w in fast.elements():
        if fast.length(w) > fast.length(fast.longest_element()) - 4:
            continue
        words = slow.reduced_words(w)
        assert words == tuple(sorted(br.braid_class(fast, fast.reduced_word(w))))
        assert fast.reduced_words(w) == words
        assert all(fast.product(e) == w for e in words)


def test_reduced_words_of_a_long_element_need_no_recursion():
    # 500 levels of the path lister, deeper than the default recursion limit
    system = cx.build_system("I2(500)")
    assert system.reduced_words(system.longest_element()) == ((1, 2) * 250, (2, 1) * 250)
    assert system.count_reduced_words(system.longest_element()) == 2


# the reduced words of w0 in S_n are as many as the standard Young tableaux
# of staircase shape (Stanley 1984): C(n, 2)! / prod (2k - 1)^(n - k)
@pytest.mark.parametrize("name, count", [
    ("A2", 2), ("A3", 16), ("A4", 768), ("A5", 292864), ("A6", 1100742656)])
def test_reduced_words_of_the_longest_element_of_s_n(name, count):
    system = cx.build_system(name)
    w0 = system.longest_element()
    assert system.count_reduced_words(w0) == count
    if count <= 10 ** 4:
        assert len(system.reduced_words(w0)) == count


@pytest.mark.parametrize("name", ["B3", "H3"])
def test_path_counts_are_the_lengths_of_the_path_lists(name):
    system = cx.build_system(name)
    down = system._right_steps()
    for w in system.elements():
        count = cx.count_paths(w, system.identity, down)
        assert count == len(cx.paths(w, system.identity, down)) == system.count_reduced_words(w)


def _subword_leq(system, u, v):
    # subword property of Bruhat order, checked on one fixed reduced word of v
    word = system.reduced_word(v)
    lu = system.length(u)
    for k in range(len(word) + 1):
        for pick in itertools.combinations(word, k):
            if len(pick) == lu and system.product(pick) == u:
                return True
    return lu == 0 and u == system.identity


def test_bruhat_order_matches_the_subword_oracle():
    system = cx.build_system("A3")
    elements = system.elements()
    for u in elements:
        for v in elements:
            assert system.bruhat_leq(u, v) == _subword_leq(system, u, v)


def test_demazure_product_absorbs_descents():
    system = cx.build_system("A3")
    w0 = system.longest_element()
    for w in system.elements():
        assert system.demazure_product(w0, w) == w0
        assert system.demazure_product(w, w) != system.identity or w == system.identity


def test_demazure_product_via_reduced_words():
    # folding the concatenation letter by letter agrees with the pairwise product
    system = cx.build_system("B2")
    for u in system.elements():
        for v in system.elements():
            step = u
            for s in system.reduced_word(v):
                c = system.right_mult(step, s)
                step = c if system.length(c) > system.length(step) else step
            assert system.demazure_product(u, v) == step


def test_one_line_conversions_round_trip():
    system = cx.build_system("A3")
    perms = list(itertools.permutations(range(1, 5)))
    seen = set()
    for p in perms:
        w = cx.permutation_to_element(system, p)
        assert cx.element_to_permutation(system, w) == p
        seen.add(w)
    assert len(seen) == 24


def test_one_line_conversion_needs_a_chain():
    system = cx.build_system("B3")
    with pytest.raises(ValueError, match="type A chain"):
        cx.permutation_to_element(system, (2, 1, 3, 4))


def test_is_type_a_chain():
    assert cx.is_type_a_chain(cx.build_system("A4"))
    assert not cx.is_type_a_chain(cx.build_system("B3"))
    assert not cx.is_type_a_chain(cx.build_system("A1xA2"))


def test_diagram_automorphism_counts():
    for name, count in [("A3", 2), ("B3", 1), ("H3", 1), ("D4", 6)]:
        assert len(cx.build_system(name).diagram_automorphisms()) == count


def _automorphisms_by_brute_force(system):
    """The oracle: every permutation of the generators, kept when it
    preserves every bond, in lex order."""
    n, m = system.rank, system.matrix
    return tuple(tuple(q + 1 for q in p) for p in itertools.permutations(range(n))
                 if all(m[p[i]][p[j]] == m[i][j] for i in range(n) for j in range(i + 1, n)))


@pytest.mark.parametrize("names", [
    ["A%d" % n for n in range(1, 9)], ["B%d" % n for n in range(2, 9)],
    ["D%d" % n for n in range(4, 9)], ["E6", "E7", "E8", "F4", "H3", "H4", "I2(5)", "I2(8)"],
    ["A1xA1", "A1xA1xA1", "A2xA2", "A1xA3", "A1xA1xA2", "B2xA1xA1", "A1xA1xA1xA1xA1"]],
    ids=["A", "B", "D", "exceptional", "products"])
def test_diagram_automorphisms_match_the_brute_force_filter(names):
    for name in names:
        system = cx.build_system(name)
        assert system.diagram_automorphisms() == _automorphisms_by_brute_force(system), name


def test_diagram_automorphisms_of_a_long_chain_complete_no_failing_map():
    # 12! permutations would take minutes; the partial maps are a handful
    system = cx.build_system("A12")
    start = time.perf_counter()
    assert system.diagram_automorphisms() == (tuple(range(1, 13)), tuple(range(12, 0, -1)))
    assert time.perf_counter() - start < 0.1


def test_apply_twist_permutes_generators():
    system = cx.build_system("A3")
    twist = (3, 2, 1)
    assert system.apply_twist(system.generator(1), twist) == system.generator(3)
    w = system.product((1, 2))
    assert system.apply_twist(w, twist) == system.product((3, 2))
    # twisting is an automorphism
    for u in system.elements():
        assert system.length(system.apply_twist(u, twist)) == system.length(u)


def test_matrix_validation_errors():
    with pytest.raises(ValueError, match="invalid matrix"):
        cx.build_system([[1, 3], [3, 1], [2, 2]])
    with pytest.raises(ValueError, match="invalid matrix"):
        cx.build_system([[1, 3], [4, 1]])
    with pytest.raises(ValueError, match="invalid matrix"):
        cx.build_system([[2, 3], [3, 1]])
    with pytest.raises(ValueError, match="invalid matrix"):
        cx.build_system("Q5")


def test_infinite_group_is_rejected():
    # the affine triangle group never closes up
    with pytest.raises(ValueError, match="infinite group"):
        cx.build_system([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


@pytest.mark.parametrize("matrix", [
    [[1, 3, 7], [3, 1, 2], [7, 2, 1]],  # a bond of 7 in rank 3
    [[1, 4, 4], [4, 1, 4], [4, 4, 1]],  # the 4-4-4 triangle group
    [[1, 0], [0, 1]],  # the infinite dihedral group
])
def test_more_infinite_groups_are_rejected(matrix):
    with pytest.raises(ValueError, match="infinite group"):
        cx.build_system(matrix)


@pytest.mark.parametrize("m", [3000, 5000, 9000])
def test_large_dihedral_roots_build_exactly(m):
    system = cx.build_system("I2(%d)" % m)
    assert system.num_positive == m
    for s in (1, 2):
        g = system.generator(s)
        assert system.multiply(g, g) == system.identity
    # s1 s2 is a rotation of order m: the lcm of its cycle lengths
    st = system.multiply(system.generator(1), system.generator(2))
    seen, cycles = set(), []
    for i in range(len(st)):
        if i not in seen:
            cycle = cx.closure(i, lambda j: (st[j],))
            seen |= cycle
            cycles.append(len(cycle))
    assert math.lcm(*cycles) == m


# E6 with its generators renumbered: a custom matrix carries no degrees
E6 = cx.coxeter_matrix_from_name("E6")
E6_RELABELLED = [[E6[a][b] for b in (5, 3, 1, 0, 2, 4)] for a in (5, 3, 1, 0, 2, 4)]
D4_BRANCH_FIRST = [[1, 3, 3, 3], [3, 1, 2, 2], [3, 2, 1, 2], [3, 2, 2, 1]]


def test_a_relabelled_e6_matrix_has_the_roots_of_e6():
    system = cx.build_system(E6_RELABELLED)
    assert system.num_positive == 36
    assert len(system.diagram_automorphisms()) == 2


def _root_digest(system):
    """A digest of the generators' root permutations and of the root
    relabelling of every diagram automorphism."""
    h = hashlib.sha256(repr(tuple(map(tuple, system._gen_perms))).encode())
    for twist in system.diagram_automorphisms():
        h.update(repr(tuple(map(tuple, system._twist_perms(twist)))).encode())
    return h.hexdigest()[:16]


# frozen from the float-coordinate root build that preceded the exact one
ROOT_DIGESTS = {
    "A1": "ed2a16f5add86688", "A2": "47fca9145adb2767", "A5": "fd91b8fdeb31ec4e",
    "B2": "a31a9ac5a5d26998", "B3": "055fddcd6f3fa12c", "B5": "ee794206f7a9d143",
    "C3": "055fddcd6f3fa12c", "D4": "230e753d8b804779", "D5": "4952869e64e16d64",
    "E6": "8460a55a7ea2be46", "E7": "dd6b81c516394b80", "E8": "be561aecee03dece",
    "F4": "bf2327818c2e7b57", "G2": "42867004ac61e0cb", "H3": "e2e0aaa980db1764",
    "H4": "6230d902324a4ec6", "I2(5)": "2e806619975a4c75", "I2(8)": "e8ad800dfb591125",
    "A1xA1": "4a44b52f7ed004bf", "A2xB2": "4688c03c685140bd", "D4xA2": "c13c856f4343bf9c",
    "H3xI2(7)xA2": "cd75bbe3719ae640", "I2(7)xI2(12)": "28e3c21debaf3db0",
    "I2(3000)": "dc6cf1143e663ed5",
    "E6 relabelled": "ad0574d3baa6fbc0", "D4 branch first": "4b4cf100777b4d42",
}


@pytest.mark.parametrize("name", sorted(set(DEGREES) | set(ROOT_DIGESTS)))
def test_root_permutations_match_the_frozen_digests(name):
    custom = {"E6 relabelled": E6_RELABELLED, "D4 branch first": D4_BRANCH_FIRST}
    assert _root_digest(cx.build_system(custom.get(name, name))) == ROOT_DIGESTS[name]


def test_numpy_integer_matrix_entries_are_accepted():
    np = pytest.importorskip("numpy")
    matrix = np.array(cx.coxeter_matrix_from_name("A3"), dtype=np.int64)
    system = cx.build_system(matrix)
    assert system.matrix == cx.build_system("A3").matrix
    assert system.order() == 24


def test_invalid_twists_are_rejected():
    system = cx.build_system("B3")
    with pytest.raises(ValueError, match="invalid twist"):
        cx.normalize_twist(system, (1, 1, 2))
    with pytest.raises(ValueError, match="invalid twist"):
        cx.normalize_twist(system, (3, 2, 1))  # does not preserve the bond pattern
    assert cx.normalize_twist(system, None) == (1, 2, 3)


def test_matrix_text_parsing():
    system = cx.build_system("rank 2\n1 5\n5 1")
    assert system.order() == 10
    with pytest.raises(ValueError, match="invalid matrix"):
        cx.parse_matrix_text("rank 2\n1 5")


@pytest.mark.parametrize("name", sorted(DEGREES))
def test_named_systems_match_their_invariants(name):
    system = cx.build_system(name)
    degrees = DEGREES[name]
    assert system.rank == len(degrees)
    assert system.num_positive == sum(d - 1 for d in degrees)
    for s in range(1, system.rank + 1):
        g = system.generator(s)
        assert system.multiply(g, g) == system.identity
        for t in range(s + 1, system.rank + 1):
            st = system.multiply(system.generator(s), system.generator(t))
            w = system.identity
            for _ in range(system.bond(s, t)):
                w = system.multiply(w, st)
            assert w == system.identity
    order = math.prod(degrees)
    if order <= cx.ENUMERATION_CAP:  # E6, E7 and E8 are above it
        assert len(system.elements()) == order


@pytest.mark.parametrize("name", sorted(DEGREES))
def test_build_system_uses_the_degrees_of_the_named_type(name):
    assert sorted(cx.build_system(name).degrees) == sorted(DEGREES[name])


def test_a_positive_root_count_off_the_degrees_fails_the_build(monkeypatch):
    monkeypatch.setattr(cx, "_component_degrees", lambda matrix, comp: (2, 4))  # B2's, not A2's
    matrix = cx.coxeter_matrix_from_name("A2")
    with pytest.raises(ValueError, match="root construction failed: A2 has 3 positive"):
        cx.CoxeterSystem(matrix, name="A2")
    # a matrix without a name is checked too
    with pytest.raises(ValueError, match="root construction failed: the matrix has 3 positive"):
        cx.CoxeterSystem(matrix)


def _finite_rank_three(a, b, c):
    """Humphreys' finite list in rank 3, on the bonds of the three pairs:
    A1^3, A1 x I2(m), A3, B3 and H3, with their degrees."""
    bonds = sorted(m for m in (a, b, c) if m != 2)
    if not bonds:
        return [2, 2, 2]
    if len(bonds) == 1 and bonds[0] != 0:
        return sorted([2, 2, bonds[0]])
    return {(3, 3): [2, 3, 4], (3, 4): [2, 4, 6], (3, 5): [2, 6, 10]}.get(tuple(bonds))


def test_rank_three_matrices_build_exactly_when_on_the_finite_list():
    finite = 0
    for a, b, c in itertools.product((0, 2, 3, 4, 5, 6, 7, 8), repeat=3):
        matrix = [[1, a, b], [a, 1, c], [b, c, 1]]
        want = _finite_rank_three(a, b, c)
        if want is None:
            with pytest.raises(ValueError, match="infinite group"):
                cx.CoxeterSystem(matrix)
            continue
        finite += 1
        system = cx.CoxeterSystem(matrix)
        assert sorted(system.degrees) == want
        assert system.order() == len(system.elements())
    assert finite == 1 + 3 * 6 + 3 + 6 + 6


@pytest.mark.parametrize("name", sorted(DEGREES))
def test_relabelled_named_graphs_give_the_named_degrees(name):
    matrix = cx.coxeter_matrix_from_name(name)
    rng = random.Random(name)
    for _ in range(3):
        p = list(range(len(matrix)))
        rng.shuffle(p)
        relabelled = [[matrix[a][b] for b in p] for a in p]
        assert sorted(cx.CoxeterSystem(relabelled).degrees) == sorted(DEGREES[name])


def test_more_positive_roots_than_the_root_cap_is_too_large():
    with pytest.raises(ValueError, match="too large: 10001 positive roots"):
        cx.build_system("I2(10001)")


@pytest.mark.parametrize("s", [0, -1, 4])
def test_products_reject_a_generator_out_of_range(s):
    system = cx.build_system("A3")
    with pytest.raises(ValueError, match="generator index out of range"):
        system.right_mult(system.identity, s)
    with pytest.raises(ValueError, match="generator index out of range"):
        system.left_mult(s, system.identity)


def test_build_system_keeps_a_bounded_number_of_systems():
    for m in range(3, 3 + cx.SYSTEM_CACHE_SIZE + 4):
        cx.build_system("I2(%d)" % m)
    info = cx._cached_system.cache_info()
    assert info.maxsize == cx.SYSTEM_CACHE_SIZE
    assert info.currsize <= cx.SYSTEM_CACHE_SIZE


def test_id_table_of_a_bare_matrix_is_decided_from_its_degrees(monkeypatch):
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 100)  # B4 has order 384
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("B4"))
    monkeypatch.setattr(system, "_enumerate", lambda: pytest.fail("enumerated"))
    assert system.id_table() is None and "coxeter._enumerate" not in system.cache_sizes()
    assert system.order() == 384
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 50000)
    assert system.id_table() is None  # decided by the first call


@pytest.mark.parametrize("name, order", [
    ("E6", 51840), ("E7", 2903040), ("E8", 696729600), ("A8", 362880)])
def test_named_types_above_the_cap_are_decided_from_their_degrees(name, order, monkeypatch):
    assert order > cx.ENUMERATION_CAP
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    monkeypatch.setattr(system, "_enumerate", lambda: pytest.fail("enumerated"))
    assert system.order() == order
    assert system.id_table() is None
    assert "coxeter._enumerate" not in system.cache_sizes()


def test_the_id_table_is_bounded_by_its_entry_count(monkeypatch):
    # I2(922): 1844 elements of 1844 root indices each, just over ENTRY_CAP
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("I2(922)"))
    monkeypatch.setattr(system, "_enumerate", lambda: pytest.fail("enumerated"))
    assert system.order() <= cx.ENUMERATION_CAP
    assert system.id_table() is None
    with pytest.raises(ValueError, match="group too large to enumerate"):
        system.elements()
    # B6, the largest table within the cap: 46080 elements of 72 entries
    assert cx.CoxeterSystem(cx.coxeter_matrix_from_name("B6"))._within_cap()
    assert cx.CoxeterSystem(cx.coxeter_matrix_from_name("I2(921)"))._within_cap()


def test_elements_above_the_cap_raise_without_enumerating(monkeypatch):
    # 2,903,040 elements of 126 entries each; a fresh system decides nothing yet
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("E7"), name="E7")
    monkeypatch.setattr(system, "_enumerate", lambda: pytest.fail("enumerated"))
    with pytest.raises(ValueError, match="group too large to enumerate"):
        system.elements()
    # the cap is decided, and neither the group nor its id table is built
    assert system.cache_sizes() == {"coxeter._within_cap": 1}
    # a group enumerated before the cap drops keeps its elements
    b4 = cx.CoxeterSystem(cx.coxeter_matrix_from_name("B4"))
    elements = b4.elements()
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 100)
    assert b4.elements() is elements and len(elements) == 384


def _id_lookup(system):
    """The id lookup oracle of a system within the cap: the function from a
    tuple to the id of the element it is, or None for a tuple that is no
    element. w[:rank] is the key of w^-1 in the key dict of the BFS (a bare
    int at rank 1), and a tuple that only starts like an element fails the
    comparison with it."""
    t, keys = system.id_table(), system._enumerate()[2]
    width, rank = len(t.elements[0]), system.rank

    def id_of(w):
        j = keys.get(w[:rank] if rank > 1 else w[0]) if len(w) == width else None
        if j is not None and t.elements[t.inverse[j]] == w:
            return t.inverse[j]
        return None

    return id_of


def _tuple_bfs(system):
    """The right BFS on root-permutation tuples, generators in order, first
    discovery kept: elements, their index and the right tables. The oracle
    of the key BFS."""
    seen = {system.identity: 0}
    order = [system.identity]
    right = [[] for _ in range(system.rank)]
    for w in order:
        for s, col in enumerate(right, 1):
            ws = system.right_mult(w, s)
            if ws not in seen:
                seen[ws] = len(order)
                order.append(ws)
            col.append(seen[ws])
    return tuple(order), seen, right


@pytest.mark.parametrize("spec", [
    "A1", "A4", "B4", "H3", "F4", "D5", "I2(7)", "A2xB2",
    # D4 with the branch node numbered 1, as a bare matrix
    [[1, 3, 3, 3], [3, 1, 2, 2], [3, 2, 1, 2], [3, 2, 2, 1]]])
def test_the_key_bfs_matches_the_tuple_bfs(spec):
    matrix = cx.coxeter_matrix_from_name(spec) if isinstance(spec, str) else spec
    system = cx.CoxeterSystem(matrix)
    elements, index, right = _tuple_bfs(system)
    assert system.elements() == elements
    id_of = _id_lookup(system)
    assert {w: id_of(w) for w in elements} == index
    assert system.id_table().right == right


def test_a_named_type_within_the_cap_gets_the_same_table():
    systems = [cx.CoxeterSystem(cx.coxeter_matrix_from_name("B4"), name="B4"),
               cx.CoxeterSystem(cx.coxeter_matrix_from_name("B4"))]
    named, custom = [system.id_table() for system in systems]
    assert len(named.elements) == 384
    assert named.elements == custom.elements
    rows = ("right", "left", "inverse", "length", "start", "descents", "first_descent",
            "first_left")
    assert [getattr(named, row) for row in rows] == [getattr(custom, row) for row in rows]


def test_element_table_agrees_with_the_root_permutations():
    # the last matrix is D4 with the branch node numbered 1
    for spec in ["A1", "A3", "B3", "A2xB2", "I2(8)", "D5", "B4", "H3", "F4",
                 [[1, 3, 3, 3], [3, 1, 2, 2], [3, 2, 1, 2], [3, 2, 2, 1]]]:
        _check_element_table(cx.build_system(spec))


def _first(letters):
    """The smallest of letters, from 0, or -1 if there are none."""
    return min(letters, default=0) - 1


def _check_element_table(system):
    t = system.id_table()
    elements = system.elements()
    by_word = sorted(elements, key=lambda w: (system.length(w), system.reduced_word(w)))
    assert list(elements) == by_word
    lengths = [system.length(w) for w in elements]
    n = len(elements)
    assert t.start == [0] + [i for i in range(1, n) if lengths[i] > lengths[i - 1]] + [n]
    chains, id_of = tw._chains(system), _id_lookup(system)
    for i, w in enumerate(elements):
        winv = system.inverse(w)
        assert t.length[i] == lengths[i]
        # the left chain of i: the letters of the lex-min word, last first
        assert chains[i] == tuple(t.left[s - 1].__getitem__ for s in reversed(system.reduced_word(w)))
        assert elements[t.inverse[i]] == winv
        assert id_of(w) == i
        assert t.first_descent[i] == _first(system.descents_right(w))
        # the left descents of w are the right descents of its inverse
        assert t.first_left[i] == _first(system.descents_right(winv))
        for s in range(1, system.rank + 1):
            assert elements[t.right[s - 1][i]] == system.right_mult(w, s)
            assert elements[t.left[s - 1][i]] == system.left_mult(s, w)
            assert (t.descents[i] >> (s - 1) & 1) == (s in system.descents_right(w))
    if len(elements) <= 48:  # the subword oracle is quadratic in |W|
        for i, w in enumerate(elements):
            for j, v in enumerate(elements):
                assert t.bruhat_leq(i, j) == _subword_leq(system, w, v)


@pytest.mark.parametrize("name, twist", [("A1", None), ("F4", (4, 3, 2, 1)), ("B4", None)])
def test_the_id_lookup_turns_away_a_tuple_that_only_starts_like_an_element(name, twist):
    # w[:rank] fixes an element w, so a tuple of w's length that starts like
    # w and differs later is no element; the key dict still finds w for it
    system = cx.build_system(name)
    t, keys, id_of = system.id_table(), system._enumerate()[2], _id_lookup(system)
    ids = tw._ids(system, tw._twist_key(system, twist))
    rank = system.rank
    for x in ids.order():
        w = t.elements[x]
        # the key of w^-1, a bare int at rank 1, which the forged tuples share
        assert t.inverse[keys[w[0] if rank == 1 else w[:rank]]] == x
        for forged in (w[:rank] + w[rank:][::-1], w[:rank] + (0,) * (len(w) - rank)):
            if forged == w:
                continue
            assert len(forged) == len(w) and forged[:rank] == w[:rank]
            assert id_of(forged) is None
            with pytest.raises(ValueError, match="not a twisted involution"):
                ids.member(forged)
        assert ids.member(w) == x
    assert id_of(t.elements[0][:-1]) is None and id_of(()) is None
    for forged in (t.elements[0][:-1], ()):
        with pytest.raises(ValueError, match="not a twisted involution"):
            ids.member(forged)


def test_the_id_lookup_gives_another_systems_elements_no_id():
    # pairs of systems whose elements are tuples of the same length: two
    # numberings of D4, and A2xB2 with A3xA1, where a few of the other's
    # elements start like an element, so the key dict finds an id for them
    bare_d4 = [[1, 3, 3, 3], [3, 1, 2, 2], [3, 2, 1, 2], [3, 2, 2, 1]]
    hits = 0
    for one, two in [("D4", bare_d4), ("A2xB2", "A3xA1")]:
        one, two = cx.build_system(one), cx.build_system(two)
        for system, foreign in [(one, two.elements()), (two, one.elements())]:
            t, keys = system.id_table(), system._enumerate()[2]
            index = dict(zip(t.elements, range(len(t.elements))))
            strangers = [w for w in foreign if w not in index]
            assert len(strangers) > len(foreign) // 5
            hits += sum(w[:system.rank] in keys for w in strangers)
            assert list(map(_id_lookup(system), foreign)) == [index.get(w) for w in foreign]
            ids = tw._ids(system, tw._twist_key(system, None))
            for w in strangers:
                with pytest.raises(ValueError, match="not a twisted involution"):
                    ids.member(w)
    assert hits >= 2


def test_id_bruhat_order_matches_the_root_permutations_on_sampled_pairs():
    # above the 48 elements of the subword oracle, against the tuple route
    rng = random.Random(8)
    for name in ("B4", "F4", "H3"):
        system = cx.build_system(name)
        t = system.id_table()
        elements = t.elements
        for _ in range(2000):
            u, w = rng.randrange(len(elements)), rng.randrange(len(elements))
            assert t.bruhat_leq(u, w) == system.bruhat_leq(elements[u], elements[w])


def test_apply_twist_validates_each_new_twist():
    system = cx.build_system("A3")
    w = system.product((1, 2))
    assert system.apply_twist(w, [3, 2, 1]) == system.apply_twist(w, (3, 2, 1))
    assert system.apply_twist(w, None) == w
    with pytest.raises(ValueError, match="invalid twist"):
        system.apply_twist(w, (2, 1, 3))
