import json
import os
import random
import time

import pytest

import invatoms.braid as br
import invatoms.cli as cli
import invatoms.coxeter as cx
import invatoms.twisted as tw
from test_coxeter import _id_lookup

EXTENDED = bool(os.environ.get("INVATOMS_EXTENDED"))


def _swap_table(triples):
    """The block-to-swap table of (s, t, m) triples: the alternating blocks
    sts... and tst... of length m swap."""
    table = {}
    for s, t, m in triples:
        left, right = tuple((s, t)[i % 2] for i in range(m)), tuple((t, s)[i % 2] for i in range(m))
        table[left], table[right] = right, left
    return table


def _pairs(system):
    rank = system.rank
    return [(s, t) for s in range(1, rank + 1) for t in range(s + 1, rank + 1)]


def _by_first_letter(table):
    first = {}
    for block, other in table.items():
        first.setdefault(block[0], []).append((block, other))
    return first


def _swaps(word, j, first, out):
    """Append to out every word one swap of the first-letter table first at
    position j away from word."""
    for block, other in first.get(word[j], ()):
        m = len(block)
        if word[j:j + m] == block:
            out.append(word[:j] + other + word[j + m:])


def _braid_closure(system, word, start=None):
    # the oracle: a BFS over whole words, braid moves anywhere plus the
    # start swaps (a block-to-swap table) at position 0
    braid = _by_first_letter(_swap_table((s, t, system.bond(s, t)) for s, t in _pairs(system)))
    start = _by_first_letter(start or {})

    def neighbors(u):
        out = []
        for j in range(len(u)):
            _swaps(u, j, braid, out)
        if u:
            _swaps(u, 0, start, out)
        return out

    return cx.closure(tuple(word), neighbors)


def test_braid_moves_in_a_single_word():
    system = cx.build_system("A2")
    assert br.braid_class(system, (1, 2, 1)) == {(1, 2, 1), (2, 1, 2)}
    b2 = cx.build_system("B2")
    assert br.braid_class(b2, (1, 2, 1, 2)) == {(1, 2, 1, 2), (2, 1, 2, 1)}


def test_braid_classes_exhaust_reduced_words():
    for name in ("A3", "B2", "H3", "I2(5)"):
        system = cx.build_system(name)
        for w in system.elements():
            words = set(system.reduced_words(w))
            assert br.braid_class(system, system.reduced_word(w)) == words


def test_braid_class_of_the_longest_element_of_s4():
    system = cx.build_system("A3")
    cls = br.braid_class(system, (1, 2, 1, 3, 2, 1))
    assert len(cls) == 16


def test_braid_classes_of_random_words_match_the_braid_closure():
    # reduced or not: most random words of length up to 8 are not reduced
    rng = random.Random(36)
    for name in ("A3", "B3", "H3", "D4", "F4", "B4", "G2", "I2(7)", "A1xA2"):
        system = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
        others = 0
        for _ in range(60):
            word = tuple(rng.randint(1, system.rank) for _ in range(rng.randint(0, 8)))
            others += system.length(system.product(word)) != len(word)
            assert br.braid_class(system, word) == _braid_closure(system, word), (name, word)
        assert others > 15


def _theta_prefix(system, prefix, twist=None):
    """The automorphism g -> (u g u^-1)* for u the fold of the prefix."""
    twist = tw._twist_key(system, twist)
    u = tw.dact_word(system, system.identity, prefix, twist)
    uinv = system.inverse(u)

    def theta(g):
        return system.apply_twist(system.multiply(system.multiply(u, g), uinv), twist)

    theta.base = u
    return theta


def test_truncated_block_length_formula_against_the_fold_oracle():
    # rank two: the truncated length is the fold length of the longest element
    for m in (2, 3, 4, 5, 6, 7):
        system = cx.build_system("I2(%d)" % m)
        w0 = system.longest_element()
        for twist in (None, (2, 1)):
            theta = _theta_prefix(system, (), twist)
            got = br.m_star(system, 1, 2, theta)
            assert got == tw.hat_length(system, w0, twist)


def test_truncated_block_length_when_the_pair_is_not_preserved():
    system = cx.build_system("A3")
    theta = _theta_prefix(system, (), (3, 2, 1))
    assert br.m_star(system, 1, 2, theta) == 3  # pair moves away, full bond
    # the commuting outer pair is swapped by the twist: single letter moves
    assert br.m_star(system, 1, 3, theta) == 1
    with pytest.raises(ValueError, match="two distinct generators"):
        br.m_star(system, 2, 2, theta)
    # the generators are checked before their bond is read
    a2 = cx.build_system("A2")
    theta = _theta_prefix(a2, ())
    for s, t in [(1, 3), (2, 0)]:
        with pytest.raises(ValueError, match="generator index out of range"):
            br.m_star(a2, s, t, theta)


@pytest.mark.parametrize("name, twist", [
    ("A4", (4, 3, 2, 1)), ("B3", None), ("D4", (3, 2, 1, 4)), ("H3", None),
    ("I2(7)", None), ("I2(8)", (2, 1))])
def test_block_tables_read_off_roots_match_the_theta_formula(name, twist, monkeypatch):
    fast = cx.build_system(name)
    index = _id_lookup(fast)
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 1)  # above it, folds are keyed by their own ids
    slow = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    key = tw._twist_key(fast, twist)
    member = tw._ids(slow, key).member
    for y in tw.enumerate_twisted(fast, twist):
        theta = _theta_prefix(fast, min(tw.involution_words(fast, y, twist=twist)), twist)
        assert theta.base == y
        want = _swap_table((s, t, br.m_star(fast, s, t, theta)) for s, t in _pairs(fast))
        assert br._fold_tables(fast, index(y), key) == want
        assert br._fold_tables(slow, member(y), key) == want


def test_prefix_conjugated_twist():
    system = cx.build_system("A3")
    theta = _theta_prefix(system, (), None)
    assert theta.base == system.identity
    for s in range(1, 4):
        assert theta(system.generator(s)) == system.generator(s)
    theta = _theta_prefix(system, (1,), None)
    assert theta.base == system.generator(1)


def test_rewriting_closure_spans_every_word_set():
    for name, twist, checked in [("A3", None, 10), ("A3", (3, 2, 1), 10),
                                 ("B2", None, 6), ("B3", None, 20),
                                 # a swapped even bond, blocks of five, a D4 twist
                                 ("I2(6)", (2, 1), 6), ("H3", None, 32),
                                 ("D4", (3, 2, 1, 4), 32)]:
        report = br.check_braid_classes(cx.build_system(name), twist)
        assert report["pairs_checked"] == checked
        assert report["failures"] == []


@pytest.mark.parametrize("name, twist", [("B4", None), ("F4", (4, 3, 2, 1))])
def test_the_tuple_route_above_the_cap_matches_the_id_route(monkeypatch, name, twist):
    fast = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    assert fast.id_table() is not None
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 100)  # B4 has order 384, F4 1152
    slow = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    assert slow.id_table() is None
    invs = tw.enumerate_twisted(fast, twist)
    assert tw.enumerate_twisted(slow, twist) == invs
    rng = random.Random(0)
    unrelated = 0
    for y in invs:
        assert tw.hat_length(slow, y, twist) == tw.hat_length(fast, y, twist)
        # each pair costs an atom pass down the down-set above the cap: sample the x
        xs = rng.sample(invs, 8) + [fast.identity, y]
        below = [tw.weak_leq_T(fast, x, y, twist) for x in xs]
        assert [tw.weak_leq_T(slow, x, y, twist) for x in xs] == below
        # atoms above the cap come from the atom pass, within it from the fibers
        for x, leq in zip(xs, below):
            got = tw.atoms(slow, y, x, twist)
            assert got == tw.atoms(fast, y, x, twist)
            assert bool(got) == leq
            unrelated += not leq
            assert (tw.involution_words(slow, y, x, twist)
                    == tw.involution_words(fast, y, x, twist))
        word = min(tw.involution_words(fast, y, twist=twist))
        assert (br.involution_braid_class(slow, word, twist)
                == br.involution_braid_class(fast, word, twist))
    assert unrelated
    # the chain counts and least chains run on ids numbered by their keys
    assert br.check_braid_classes(slow, twist) == br.check_braid_classes(fast, twist)
    # both routes reject an element that is not a twisted involution
    for system in (fast, slow):
        with pytest.raises(ValueError, match="not a twisted involution"):
            tw.hat_length(system, system.product((1, 2)), twist)


def _checker_reports(monkeypatch, name, twist, reports):
    """reports(system) with the group within the cap and with the cap lowered
    below it, for a fresh system each time."""
    fast = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    within = reports(fast)
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 10)  # A3 has order 24
    slow = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    assert slow.id_table() is None
    return within, reports(slow)


@pytest.mark.parametrize("name, twist, duality_checks", [
    ("B3", None, 333), ("A3", (3, 2, 1), 123), ("H3", None, 751),
    # the duality checks of F4 and D5 above the cap take seconds: see the
    # extended test below
    ("F4", None, None), ("F4", (4, 3, 2, 1), None),
    ("D5", None, None), ("D5", (1, 2, 3, 5, 4), None)])
def test_the_checkers_above_the_cap_match_the_id_route(monkeypatch, name, twist, duality_checks):
    def reports(system):
        out = [br.check_fc_atoms(system, twist), br.check_braid_classes(system, twist)]
        if duality_checks:
            out.append(tw.check_duality(system, system.longest_element(), twist))
        return out

    within, above = _checker_reports(monkeypatch, name, twist, reports)
    # the twist of A3 swaps the commuting s1 and s3, so lone atoms fail there
    assert (within[0]["failures"] == []) == within[0]["hypothesis_ok"]
    assert within[1]["failures"] == [] and within[1]["pairs_checked"] > 1
    if duality_checks:
        assert within[2]["pairs_checked"] == duality_checks
        assert within[2]["failures"] == []
    assert above == within


@pytest.mark.skipif(not EXTENDED, reason="set INVATOMS_EXTENDED=1 for duality above the cap")
@pytest.mark.parametrize("name, twist, duality_checks", [
    ("F4", None, 8259), ("F4", (4, 3, 2, 1), 3251),
    ("D5", None, 9785), ("D5", (1, 2, 3, 5, 4), 9785)])
def test_extended_duality_above_the_cap_matches_the_id_route(monkeypatch, name, twist,
                                                              duality_checks):
    def reports(system):
        return tw.check_duality(system, system.longest_element(), twist)

    within, above = _checker_reports(monkeypatch, name, twist, reports)
    assert within["pairs_checked"] == duality_checks and within["failures"] == []
    assert above == within


@pytest.mark.skipif(not EXTENDED, reason="set INVATOMS_EXTENDED=1 for E6's duality check")
@pytest.mark.parametrize("twist", [None, (6, 2, 5, 4, 3, 1)])
def test_extended_duality_of_e6_reads_one_atom_pass_per_top(twist):
    # above the cap: 892 twisted involutions, 102,397 comparable pairs of two
    # checks each; 2.4-4.2 s per twist on a 2-core shared Xeon (Python 3.11)
    system = cx.build_system("E6")
    assert system.id_table() is None
    start = time.perf_counter()
    report = tw.check_duality(system, system.longest_element(), twist)
    elapsed = time.perf_counter() - start
    assert report["pairs_checked"] == 1 + 892 * 7 + 2 * 102397 and report["failures"] == []
    assert elapsed < 8


def _neighbor_closure(system, word, twist):
    # the oracle: a BFS over whole words, one truncated block swap at a
    # time, each at the table of the fold of the prefix before it
    twist = tw._twist_key(system, twist)
    ids, tables = tw._ids(system, twist), {}

    def neighbors(w):
        u, out = ids.root, []
        for j, a in enumerate(w):
            if u not in tables:
                tables[u] = _by_first_letter(br._fold_tables(system, u, twist))
            _swaps(w, j, tables[u], out)
            u = ids.dact[u][a - 1]
        return out

    return cx.closure(tuple(word), neighbors)


@pytest.mark.parametrize("name, twist", [
    ("B4", None), ("F4", None), ("F4", (4, 3, 2, 1)), ("H3", None),
    ("D4", (3, 2, 1, 4)), ("A4", (4, 3, 2, 1)), ("I2(7)", None), ("I2(8)", (2, 1))])
def test_suffix_classes_match_the_neighbor_closure(name, twist):
    system = cx.build_system(name)
    for y in tw.enumerate_twisted(system, twist):
        word = min(tw.involution_words(system, y, twist=twist))
        got = br.involution_braid_class(system, word, twist)
        assert type(got) is set
        assert got == _neighbor_closure(system, word, twist)


def test_suffix_classes_of_other_words_match_the_neighbor_closure():
    rng = random.Random(5)
    for name, twist in [("B4", None), ("F4", (4, 3, 2, 1)), ("D4", (3, 2, 1, 4)),
                        ("A4", (4, 3, 2, 1)), ("I2(8)", (2, 1))]:
        system = cx.build_system(name)
        assert br.involution_braid_class(system, (), twist) == {()}
        others = 0
        for _ in range(40):
            word = tuple(rng.randint(1, system.rank) for _ in range(rng.randint(1, 8)))
            y = tw.dact_word(system, system.identity, word, twist)
            others += len(word) != tw.hat_length(system, y, twist)
            assert (br.involution_braid_class(system, word, twist)
                    == _neighbor_closure(system, word, twist))
        assert others > 20  # most random words are not involution words


def test_suffix_classes_on_the_tuple_route_match_the_neighbor_closure(monkeypatch):
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 100)  # B4 has order 384
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("B4"), name="B4")
    assert system.id_table() is None
    for y in tw.enumerate_twisted(system):
        words = [min(tw.involution_words(system, y))]
        if system.length(y) <= 9:
            # mostly not an involution word; longer ones have classes of millions
            words.append(system.reduced_word(y))
        for word in words:
            assert (br.involution_braid_class(system, word)
                    == _neighbor_closure(system, word, None))


def _shared(system, twist=None):
    return br._prefix_classes(system, tw._twist_key(system, twist))


def test_other_words_leave_the_shared_classes_unchanged():
    rng = random.Random(11)
    for name, twist in [("B4", None), ("F4", (4, 3, 2, 1))]:
        system = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
        br.check_braid_classes(system, twist)  # one shared node per twisted involution
        nodes = list(_shared(system, twist).nodes)
        others = 0
        for _ in range(60):
            word = tuple(rng.randint(1, system.rank) for _ in range(rng.randint(2, 9)))
            y = tw.dact_word(system, system.identity, word, twist)
            if len(word) != tw.hat_length(system, y, twist):
                others += 1
                assert (br.involution_braid_class(system, word, twist)
                        == _neighbor_closure(system, word, twist))
        assert others > 40
        assert _shared(system, twist).nodes == nodes
        assert all(k.kids is not None for n in nodes for k in n.kids.values())


def test_the_shared_classes_hold_one_node_per_twisted_involution():
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("F4"), name="F4")
    assert br.check_braid_classes(system)["failures"] == []
    nodes = _shared(system).nodes
    assert len(nodes) == 140
    assert sorted(n.fold for n in nodes) == sorted(tw._ids(system, (1, 2, 3, 4)).hat)


def _rule_of(system, twist, rule):
    """(class function, DAG) of a move rule: None is the truncated rule,
    else "hu-zhang" or "fpf"."""
    key = tw._twist_key(system, twist)
    if rule is None:
        return (lambda w: br.involution_braid_class(system, w, twist)), _shared(system, twist)
    if rule == "hu-zhang":
        dag = br._prefix_classes(system, key, br._hu_zhang_start)
        return (lambda w: br.hu_zhang_class(system, w)), dag
    dag = br._prefix_classes(system, key, br._fpf_start, system.product(range(1, system.rank + 1, 2)))
    return (lambda w: br.fpf_class_words(system, w)), dag


def _piece_steps(node):
    """A node's pieces P.a as the (a - 1, P) steps of coxeter.paths."""
    return [(a - 1, p) for p, a in node.pieces]


def _rising_words(system, dag, rng, count):
    """count random walks up the letters that raise the fold from the root:
    words of shared nodes."""
    words = []
    for _ in range(count):
        word, u = [], dag.root.fold
        for _ in range(rng.randint(0, 12)):
            up = [a for a in range(1, system.rank + 1) if dag.dact[u][a - 1] != u]
            if not up:
                break
            word.append(rng.choice(up))
            u = dag.dact[u][word[-1] - 1]
        words.append(tuple(word))
    return words


def test_a_class_does_not_depend_on_the_queries_before_it():
    # a class listed from the lists its sub-classes keep is the listing of
    # its node's paths and a fresh system's class, in two query orders; the
    # queries are the lex-min word of each twisted involution above the
    # base, random rising words, and random words for nodes built per call
    for name, twist, rule, extra in [
            ("F4", (4, 3, 2, 1), None, [(3, 2, 3, 1, 2), (4, 4, 1)]), ("B4", None, None, []),
            ("H3", None, None, []), ("D4", (3, 2, 1, 4), None, []),
            ("A5", None, "hu-zhang", []), ("A5", None, "fpf", [])]:
        matrix, rng = cx.coxeter_matrix_from_name(name), random.Random(2)
        probe = cx.CoxeterSystem(matrix, name=name)
        dag = _rule_of(probe, twist, rule)[1]
        base = tw._ids(probe, tw._twist_key(probe, twist)).element(dag.root.fold)
        queries = [min(tw.involution_words(probe, y, base, twist))
                   for y in tw.enumerate_twisted(probe, twist) if tw.weak_leq_T(probe, base, y, twist)]
        queries += _rising_words(probe, dag, rng, 150) + extra
        queries += [tuple(rng.randint(1, probe.rank) for _ in range(rng.randint(1, 7)))
                    for _ in range(60)]
        for order in (1, 2):
            random.Random(order).shuffle(queries)
            call, dag = _rule_of(cx.CoxeterSystem(matrix, name=name), twist, rule)
            per_call = 0
            for word in queries:
                node = dag.node(word)
                per_call += node.kids is None
                assert call(word) == set(cx.paths(node, {dag.root: [()]}, _piece_steps)), word
            for word in queries[::20] + extra:
                fresh = cx.CoxeterSystem(matrix, name=name)
                assert call(word) == _rule_of(fresh, twist, rule)[0](word)
            assert per_call > 30
            assert any(n in dag.kept for n in dag.nodes[1:])


def test_a_dag_keeps_at_most_words_kept_words_per_shared_node(monkeypatch):
    # every node below B4's w0 braid class (24,024 words) and F4's w0
    # involution class (7,616) is listed; per DAG, the kept lists besides
    # the root's are complete, hold at most WORDS_KEPT words per shared node
    # in all and are counted in held, one of them holds more than
    # WORDS_KEPT words, and a node built per call keeps none
    tops, node = [], br._PrefixClasses.node
    monkeypatch.setattr(br._PrefixClasses, "node",
                        lambda dag, word: tops.append((dag, node(dag, word))) or tops[-1][1])
    b4, f4 = (cx.CoxeterSystem(cx.coxeter_matrix_from_name(n), name=n) for n in ("B4", "F4"))
    assert len(br.braid_class(b4, b4.reduced_word(b4.longest_element()))) == 24024
    word = min(tw.involution_words(f4, f4.longest_element()))
    assert len(br.involution_braid_class(f4, word)) == 7616
    dags = {dag: [] for dag, _ in tops}
    for dag, top in tops:
        dags[dag] += cx.closure(top, lambda n: [p for p, _ in n.pieces])
    for dag, below in dags.items():
        kept = [(words, n) for n, words in dag.kept.items() if n is not dag.root]
        assert all(n.kids is not None and len(words) == n.size for words, n in kept)
        assert sum(len(words) for words, _ in kept) == dag.held <= br.WORDS_KEPT * len(dag.nodes)
        assert not any(n in dag.kept for n in below if n.kids is None)
    assert any(n.kids is None for below in dags.values() for n in below)
    assert max(len(words) for dag in dags for words in dag.kept.values()) > br.WORDS_KEPT
    assert sum(len(dag.kept) for dag in dags) > 100


@pytest.mark.parametrize("name, twist", [("B4", None), ("H3", None), ("F4", (4, 3, 2, 1))])
def test_path_counts_are_class_sizes(name, twist):
    system = cx.build_system(name)
    for y in tw.enumerate_twisted(system, twist):
        word = min(tw.involution_words(system, y, twist=twist))
        node = _shared(system, twist).node(word)
        assert node.size == len(br.involution_braid_class(system, word, twist))


def _word_set_report(system, twist):
    # the checker's oracle: list the involution words and the class of one
    failures = []
    for y in tw.enumerate_twisted(system, twist):
        words = set(tw.involution_words(system, y, twist=twist))
        got = br.involution_braid_class(system, min(words), twist)
        if got != words:
            failures.append({"x": list(system.reduced_word(y)),
                             "missing": len(words - got), "extra": len(got - words)})
    return failures


@pytest.mark.parametrize("name, twist", [
    ("A3", None), ("A3", (3, 2, 1)), ("B3", None), ("D4", (3, 2, 1, 4)), ("F4", None)])
def test_the_counting_checker_agrees_with_the_word_sets(name, twist, monkeypatch):
    system = cx.build_system(name)
    assert br.check_braid_classes(system, twist)["failures"] == _word_set_report(system, twist) == []
    # untruncated blocks: plain braid moves, which miss words wherever a
    # truncated block is needed
    monkeypatch.setattr(br, "_truncate", lambda m, s, t, ims, imt: m)
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    failures = br.check_braid_classes(system, twist)["failures"]
    assert failures == _word_set_report(system, twist) != []


def test_braid_inputs_reject_letters_outside_the_generators():
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("B4"), name="B4")
    nodes = list(_shared(system).nodes)
    for word in [(0, 1), (5,), (1, 2, -1), (1.5, 2)]:
        for call in (br.braid_class, br.involution_braid_class, br.empty_prefix_class):
            with pytest.raises(ValueError, match="out of range"):
                call(system, word)
        with pytest.raises(ValueError, match="out of range"):
            tw.dact_word(system, system.identity, word)
    assert _shared(system).nodes == nodes
    with pytest.raises(ValueError, match="out of range"):
        br.hu_zhang_class(cx.build_system("A3"), (4,))
    with pytest.raises(ValueError, match="out of range"):
        br.fpf_class_words(cx.build_system("A3"), (2, 0))


def test_plain_braid_moves_after_the_first_letter_are_not_enough():
    # under the order reversing twist of S4 the initial-block moves matter:
    # starting relations alone reach only 6 of the 8 words for the reversal
    system = cx.build_system("A3")
    twist = (3, 2, 1)
    w0 = system.longest_element()
    words = set(tw.involution_words(system, w0, twist=twist))
    assert len(words) == 8
    partial = br.empty_prefix_class(system, min(words), twist)
    assert len(partial) == 6
    assert partial < words
    assert br.involution_braid_class(system, min(words), twist) == words


def test_initial_swap_closure_spans_symmetric_group_word_sets():
    for n in (3, 4, 5):
        system = cx.build_system("A%d" % (n - 1))
        for x in tw.enumerate_twisted(system):
            words = set(tw.involution_words(system, x))
            assert br.hu_zhang_class(system, min(words)) == words


def test_initial_swap_closure_matches_the_general_rewriting():
    system = cx.build_system("A4")
    for x in tw.enumerate_twisted(system):
        words = set(tw.involution_words(system, x))
        seed = min(words)
        assert br.hu_zhang_class(system, seed) == br.involution_braid_class(system, seed)


def test_fpf_initial_move_closure():
    for n2 in (4, 6):
        system = cx.build_system("A%d" % (n2 - 1))
        base = system.product(tuple(range(1, n2, 2)))
        for y in tw.enumerate_twisted(system):
            if tw.weak_leq_T(system, base, y) and y != base:
                words = set(tw.involution_words(system, y, base))
                assert br.fpf_class_words(system, min(words)) == words


def _start_rules(system, twist):
    """(class function, start table, base) for each start rule of system
    and twist; the truncated start table comes from the theta formula."""
    rank = system.rank
    theta = _theta_prefix(system, (), twist)
    truncated = _swap_table((s, t, br.m_star(system, s, t, theta)) for s, t in _pairs(system))
    rules = [(lambda w: br.empty_prefix_class(system, w, twist), truncated, system.identity)]
    if cx.is_type_a_chain(system) and tw._twist_key(system, twist) == tuple(range(1, rank + 1)):
        hu_zhang = _swap_table((i, i + 1, 2) for i in range(1, rank))
        rules.append((lambda w: br.hu_zhang_class(system, w), hu_zhang, system.identity))
        if rank % 2:
            fpf = {(a, a + d): (a, a - d) for a in range(2, rank, 2) for d in (1, -1)}
            base = system.product(range(1, rank + 1, 2))
            rules.append((lambda w: br.fpf_class_words(system, w), fpf, base))
    return rules


def _check_start_rules(system, twist, rng, count):
    """Compare every start rule's classes with the oracle on count random
    words, then on the lex-min involution word of each twisted involution
    above its base; return the number of words that are no involution word
    from the base. Random words come first: a class is built from the
    first word queried in it."""
    others = 0
    for call, start, base in _start_rules(system, twist):
        words = [tuple(rng.randint(1, system.rank) for _ in range(rng.randint(0, 8)))
                 for _ in range(count)]
        ys = [y for y in tw.enumerate_twisted(system, twist) if tw.weak_leq_T(system, base, y, twist)]
        words += [min(tw.involution_words(system, y, base, twist)) for y in ys]
        for word in words:
            y = tw.dact_word(system, base, word, twist)
            others += len(word) != tw.hat_length(system, y, twist) - tw.hat_length(system, base, twist)
            assert call(word) == _braid_closure(system, word, start), (system.name, twist, word)
    return others


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B3", "H3", "D4"])
def test_start_classes_match_the_start_closure(name):
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    rng = random.Random(25)
    for twist in system.diagram_automorphisms():
        if cx.is_involutive_twist(system, twist):
            assert _check_start_rules(system, twist, rng, 40) > 10  # most random words


def test_start_classes_above_the_cap_match_the_start_closure(monkeypatch):
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 100)  # A5 has order 720
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("A5"), name="A5")
    assert system.id_table() is None
    assert len(_start_rules(system, None)) == 3  # empty prefix, Hu-Zhang, FPF
    assert _check_start_rules(system, None, random.Random(7), 30) > 40


def test_start_classes_share_a_dag_per_rule_and_base():
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("A5"), name="A5")
    key = tw._twist_key(system, None)
    base = system.product((1, 3, 5))
    for y in tw.enumerate_twisted(system):
        br.hu_zhang_class(system, min(tw.involution_words(system, y)))
        if tw.weak_leq_T(system, base, y):
            br.fpf_class_words(system, min(tw.involution_words(system, y, base)))
    dags = {args[1:]: dag for (name, args), dag in system._store.items()
            if name == "braid._prefix_classes" and args[0] == key}
    assert set(dags) == {(br._fpf_start, base), (br._hu_zhang_start, None)}
    assert dags[br._fpf_start, base].root.fold == _id_lookup(system)(base)
    # one shared node per class of involution words: Hu-Zhang's theorem and
    # its FPF analogue make that one per involution (76 in S6) and one per
    # FPF involution above the base (15 of them)
    assert len(dags[br._hu_zhang_start, None].nodes) == 76
    assert len(dags[br._fpf_start, base].nodes) == 15


_MEMO_TABLES = {"coxeter._within_cap", "coxeter._enumerate", "coxeter.id_table",
                "coxeter._twist_perms", "twisted._twist_key", "twisted._ids",
                "twisted._id_fibers", "twisted._chains", "braid._pairs", "braid._tables", "braid._prefix_classes"}


@pytest.mark.parametrize("name, twist", [("A3", None), ("A3", (3, 2, 1)), ("B3", None)])
def test_every_entry_point_keeps_its_tables_in_the_one_store(name, twist):
    matrix = cx.coxeter_matrix_from_name(name)
    system = cx.CoxeterSystem(matrix, name=name)
    w0, e = system.longest_element(), system.identity
    for y in tw.enumerate_twisted(system, twist):
        tw.atoms(system, y, twist=twist)
        tw.hecke_atoms(system, y, twist=twist)
        word = min(tw.involution_words(system, y, twist=twist))
        br.braid_class(system, system.reduced_word(y))
        br.involution_braid_class(system, word, twist)
        br.empty_prefix_class(system, word, twist)
        br.is_fully_commutative(system, y)
        if cx.is_type_a_chain(system) and twist is None:
            br.hu_zhang_class(system, word)
    if cx.is_type_a_chain(system):
        base = system.product((1, 3))
        br.fpf_class_words(system, min(tw.involution_words(system, w0, base)))
    central = w0 if tw.is_central_parabolic_longest(system, w0) else e
    reports = [tw.check_conjecture(system, twist), tw.check_duality(system, w0, twist),
               tw.check_central_closure(system, central, twist),
               tw.check_bruhat_descriptions(system, twist),
               br.check_fc_atoms(system, twist), br.check_braid_classes(system, twist)]
    # the flip of A3 breaks the lone atom rule's hypothesis (s1* = s3 commutes with s1)
    assert all(r["failures"] == [] for r in reports if r.get("hypothesis_ok", True))
    reference = cx.CoxeterSystem(matrix, name=name)
    reference.id_table()
    assert set(vars(system)) == set(vars(reference))
    assert set(system.cache_sizes()) == _MEMO_TABLES


def test_pair_queries_build_no_word_table_and_no_element_index():
    # atoms, Hecke atoms, involution words and braid classes read ids alone:
    # an element's id is found by its key, not in a dict keyed by element
    # tuples, and only the conjecture and Bruhat paths build left chains
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("F4"), name="F4")
    twist = (4, 3, 2, 1)
    for y in tw.enumerate_twisted(system, twist):
        tw.atoms(system, y, twist=twist)
        tw.hecke_atoms(system, y, twist=twist)
        br.involution_braid_class(system, min(tw.involution_words(system, y, twist=twist)), twist)
    assert set(system.cache_sizes()) == _MEMO_TABLES - {"twisted._chains"}
    t, width = system.id_table(), 2 * system.num_positive
    tables = vars(t).values()
    assert not [k for v in tables if isinstance(v, dict) for k in v if len(k) == width]
    assert not [v for v in tables if isinstance(v, list) and isinstance(v[-1], tuple)]
    report = tw.check_conjecture(system, twist)
    assert report == tw.check_conjecture(cx.build_system("F4"), twist)
    assert report["pairs_checked"] == 1445 and report["failures"] == []
    assert "twisted._chains" in system.cache_sizes()


def test_the_braid_check_keeps_no_tables_per_fold():
    # the swap tables are stored by their truncated block lengths alone
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("F4"), name="F4")
    assert br.check_braid_classes(system)["failures"] == []
    sizes = system.cache_sizes()
    assert "braid._fold_tables" not in sizes
    assert sizes["braid._tables"] < len(tw.enumerate_twisted(system))


def test_each_stored_value_has_one_key():
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("A3"), name="A3")
    key = tw._twist_key(system, None)
    assert br._prefix_classes(system, key) is br._prefix_classes(system, key, None, None)
    assert system.cache_sizes()["braid._prefix_classes"] == 1
    y = system.longest_element()
    got = tw.atoms(system, y, twist=None)
    assert tw.atoms(system, y, twist=(1, 2, 3)) == got
    flipped = system.apply_twist(y, (3, 2, 1))
    sizes = system.cache_sizes()
    assert sizes["twisted._ids"] == 1 and sizes["twisted._twist_key"] == 2
    # a list twist answers, and keeps nothing under itself
    assert tw.atoms(system, y, twist=[1, 2, 3]) == got
    assert system.apply_twist(y, [3, 2, 1]) == flipped
    assert system.cache_sizes() == sizes


def test_type_a_only_guards():
    b3 = cx.build_system("B3")
    with pytest.raises(ValueError, match="type A chain"):
        br.hu_zhang_class(b3, (1, 2))
    a4 = cx.build_system("A4")
    with pytest.raises(ValueError, match="even symmetric group"):
        br.fpf_class_words(a4, (2, 1))


def test_full_commutativity_matches_pattern_avoidance():
    import invatoms.orders as od
    system = cx.build_system("A4")
    for w in system.elements():
        oneline = cx.element_to_permutation(system, w)
        assert br.is_fully_commutative(system, w) == od.is_321_avoiding(oneline)


def test_full_commutativity_in_other_types():
    b2 = cx.build_system("B2")
    assert br.is_fully_commutative(b2, b2.product((1,)))
    assert br.is_fully_commutative(b2, b2.product((1, 2)))
    assert not br.is_fully_commutative(b2, b2.longest_element())


def test_full_commutativity_of_a_long_element_needs_no_recursion():
    # a prefix ideal of 598 levels, deeper than the default recursion limit
    system = cx.build_system("I2(600)")
    assert br.is_fully_commutative(system, system.product((1, 2) * 299))
    assert not br.is_fully_commutative(system, system.longest_element())


def test_fully_commutative_involutions_have_a_lone_atom():
    for name, checked in [("A4", 10), ("B3", 10)]:
        report = br.check_fc_atoms(cx.build_system(name))
        assert report["hypothesis_ok"]
        assert report["pairs_checked"] == checked
        assert report["failures"] == []


def test_the_fc_check_counts_the_words_apart_from_the_atom(monkeypatch):
    # the words are counted as ascent chains, so a reduced-word count that
    # misses a word shows; the atom's own count would agree with itself
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("B3"), name="B3")
    real = system.count_reduced_words
    monkeypatch.setattr(system, "count_reduced_words", lambda w: real(w) - 1 or real(w))
    problem = "words differ from the atom's reduced words"
    assert br.check_fc_atoms(system)["failures"] == [
        {"x": x, "problem": problem} for x in ([1, 3], [2, 1, 3, 2], [3, 2, 1, 3, 2, 3])]


def test_braid_checkers_name_a_matrix_built_system_custom():
    system = cx.build_system([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    # the matrix of A3: 10 involutions, 6 of them fully commutative
    for report, checked in [(br.check_braid_classes(system), 10),
                            (br.check_fc_atoms(system), 6)]:
        assert report["system"] == "custom"
        assert report["pairs_checked"] == checked
        assert report["failures"] == []


def test_commuting_generator_twist_breaks_the_lone_atom_rule():
    system = cx.build_system("A1xA1")
    twist = (2, 1)
    report = br.check_fc_atoms(system, twist)
    assert not report["hypothesis_ok"]
    assert report["failures"] == [{"x": [1, 2], "problem": "atoms: 2"}]
    x = system.product((1, 2))
    words = [system.reduced_word(w) for w in tw.atoms(system, x, twist=twist)]
    assert words == [(1,), (2,)]


def _fc_oracle(system, twist):
    """The fc check over every twisted involution, shorter ids first: the
    oracle of the walk over the fully commutative ones alone."""
    key = tw._twist_key(system, twist)
    hypothesis_ok = all(system.bond(s, key[s - 1]) != 2 for s in range(1, system.rank + 1))
    ids = tw._ids(system, key)
    failures, chains, checked = [], {}, 0
    for i in ids.order():
        steps = ids.steps[i]
        chains[i] = sum(chains[z] for _, z in steps) if steps else 1
        x = ids.element(i)
        if not br.is_fully_commutative(system, x):
            continue
        checked += 1
        ats = tw.atoms(system, x, twist=key)
        problem = None
        if len(ats) != 1:
            problem = "atoms: %d" % len(ats)
        elif not br.is_fully_commutative(system, ats[0]):
            problem = "atom not fully commutative"
        elif len(system.reduced_words(ats[0])) != chains[i]:
            problem = "words differ from the atom's reduced words"
        if problem is not None:
            failures.append({"x": list(system.reduced_word(x)), "problem": problem})
    return cx.report(system, checked, br._by_word(failures), hypothesis_ok=hypothesis_ok)


# every involutive twist of these systems: 23 cases
_FC_CASES = [(name, t) for name in ("A3", "B3", "A4", "H3", "D4", "F4", "D5", "E6", "I2(7)",
                                    "B4", "A5", "A1xA2")
             for t in cli.twist_list(cx.build_system(name), "auto")]


@pytest.mark.parametrize("name, twist", _FC_CASES)
def test_the_fc_walk_matches_the_whole_table_loop(name, twist):
    system = cx.build_system(name)
    assert json.dumps(br.check_fc_atoms(system, twist)) == json.dumps(_fc_oracle(system, twist))


@pytest.mark.skipif(not EXTENDED, reason="set INVATOMS_EXTENDED=1 for the E8 fc check")
def test_extended_fc_check_of_e8_walks_the_fully_commutative_ids_alone():
    # E8 is above the cap, with 696,729,600 elements; its 178 fully
    # commutative twisted involutions are numbered with their neighbours alone
    t0 = time.time()
    report = br.check_fc_atoms(cx.build_system("E8"))
    elapsed = time.time() - t0
    print("E8 fc check: %d checked, %.2fs" % (report["pairs_checked"], elapsed))
    assert report["pairs_checked"] == 178 and report["failures"] == [] and report["hypothesis_ok"]
    assert elapsed < 5
