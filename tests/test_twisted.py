from functools import partial

import pytest

import invatoms.coxeter as cx
import invatoms.twisted as tw

from test_braid import _MEMO_TABLES
from test_coxeter import _id_lookup, _subword_leq

# the group's entries in the store once a query within the cap has answered:
# the cap decision, the enumeration and the id table
_GROUP_TABLES = {"coxeter._within_cap": 1, "coxeter._enumerate": 1, "coxeter.id_table": 1}


def _filter_route(system, twist=None):
    # twisted involutions by the defining equation instead of the BFS
    key = tw._twist_key(system, twist)
    return {w for w in system.elements()
            if system.inverse(w) == system.apply_twist(w, key)}


def test_twisted_involution_counts_by_two_routes():
    for name, twist, count in [("A2", None, 4), ("A3", None, 10),
                               ("A3", (3, 2, 1), 10), ("B3", None, 20)]:
        system = cx.build_system(name)
        bfs = set(tw.enumerate_twisted(system, twist))
        assert bfs == _filter_route(system, twist)
        assert len(bfs) == count


def test_conjugation_step_and_fold_step():
    for name, twist in [("A3", None), ("A3", (3, 2, 1)), ("B3", None),
                        ("D4", (3, 2, 1, 4)), ("I2(6)", (2, 1)), ("A1xA1", (2, 1))]:
        system = cx.build_system(name)
        key = twist or tuple(range(1, system.rank + 1))
        for x in tw.enumerate_twisted(system, twist):
            for s in range(1, system.rank + 1):
                up = tw.rtimes(system, x, s, twist)
                # the definition: s* x s, or x s when s* x = x s
                sstar = system.generator(key[s - 1])
                gen = system.generator(s)
                xs = system.multiply(x, gen)
                left = system.multiply(sstar, x)
                assert up == (xs if left == xs else system.multiply(left, gen))
                folded = tw.dact(system, x, s, twist)
                assert system.apply_twist(up, key) == system.inverse(up)
                if system.length(up) > system.length(x):
                    assert folded == up
                else:
                    assert folded == x


def test_single_steps_reject_letters_outside_the_generators():
    # unchecked, letter 0 would read the last generator through index -1
    system = cx.build_system("A3")
    e = system.identity
    # and a letter that is no integer is not truncated or parsed into one
    for s in (0, -1, 4, 2.7, "3"):
        for step in (tw.rtimes, tw.dact):
            with pytest.raises(ValueError, match="generator index out of range"):
                step(system, e, s)
    assert tw.rtimes(system, e, 3) == tw.dact(system, e, 3) == system.generator(3)


def test_fold_routes_agree_on_every_pair():
    system = cx.build_system("B2")
    for twist in (None, (2, 1)):
        for x in tw.enumerate_twisted(system, twist):
            for w in system.elements():
                byword = tw.dact_word(system, x, system.reduced_word(w), twist)
                assert byword == tw.dact_element_via_demazure(system, x, w, twist)


def test_hat_length_equals_atom_length():
    for name, twist in [("A3", None), ("B3", None), ("A3", (3, 2, 1))]:
        system = cx.build_system(name)
        for y in tw.enumerate_twisted(system, twist):
            ats = tw.atoms(system, y, twist=twist)
            assert len({system.length(w) for w in ats}) == 1
            assert system.length(ats[0]) == tw.hat_length(system, y, twist)


def test_weak_order_reachability_equals_nonempty_hecke_set():
    system = cx.build_system("A3")
    for twist in (None, (3, 2, 1)):
        invs = tw.enumerate_twisted(system, twist)
        for x in invs:
            for y in invs:
                reachable = len(tw.hecke_atoms(system, y, x, twist)) > 0
                assert tw.weak_leq_T(system, x, y, twist) == reachable


def test_hecke_fibers_partition_the_group():
    for name, twist in [("A3", None), ("B3", None), ("A3", (3, 2, 1))]:
        system = cx.build_system(name)
        table = tw.hecke_table(system, system.identity, twist)
        assert set(table) == set(tw.enumerate_twisted(system, twist))
        pooled = [w for fiber in table.values() for w in fiber]
        assert len(pooled) == system.order()
        assert set(pooled) == set(system.elements())
        for y, fiber in table.items():
            assert list(fiber) == sorted(
                fiber, key=lambda w: (system.length(w), system.reduced_word(w)))
            for w in fiber:
                assert tw.dact_word(system, system.identity, system.reduced_word(w), twist) == y


def test_transforming_words_are_the_atoms_reduced_words(monkeypatch):
    # the paper's disjoint union: the words are listed as ascent chains and
    # never through the atoms, so the two sides are computed apart
    def systems():
        for name, twist in [("A3", None), ("A3", (3, 2, 1)), ("B3", None), ("H3", None),
                            ("D4", (3, 2, 1, 4))]:
            yield cx.build_system(name), twist
        yield _above_the_cap(monkeypatch, "B4")[0], None

    for system, twist in systems():
        ys = tw.enumerate_twisted(system, twist)
        for y in ys:
            for x in (x for x in ys if tw.weak_leq_T(system, x, y, twist)):
                words = tw.involution_words(system, y, x, twist)
                per_atom = [set(system.reduced_words(w)) for w in tw.atoms(system, y, x, twist)]
                pooled = set().union(*per_atom)
                assert len(pooled) == sum(map(len, per_atom))  # pairwise disjoint
                assert words == tuple(sorted(pooled))
                assert tw.count_involution_words(system, y, x, twist) == len(words)


# E6 is above the enumeration cap, so its steps rows are filled as they are
# read; A2-A7 are the counts of Hamaker, Marberg and Pawlowski
# (arXiv:1508.01823) for the involution words of w0 in S_n
@pytest.mark.parametrize("name, count", [
    ("B3", 16), ("B4", 768), ("D4", 240), ("H3", 42), ("F4", 7616), ("E6", 396644320),
    ("A2", 2), ("A3", 8), ("A4", 80), ("A5", 2688), ("A6", 236544), ("A7", 98402304)])
def test_involution_words_of_the_longest_element(name, count):
    system = cx.build_system(name)
    w0 = system.longest_element()
    assert tw.count_involution_words(system, w0) == count
    if count <= 10 ** 4:
        assert len(tw.involution_words(system, w0)) == count


@pytest.mark.parametrize("name, twist", [("A3", (3, 2, 1)), ("B3", None)])
def test_involution_words_are_the_ascent_chains(name, twist):
    # every letter sequence that climbs from x by ascents of the public
    # conjugation step, grouped by the twisted involution it ends at
    system = cx.build_system(name)
    ys = tw.enumerate_twisted(system, twist)
    letters = range(1, system.rank + 1)
    for x in ys:
        chains, level = {}, [((), x)]
        while level:
            for word, z in level:
                chains.setdefault(z, []).append(word)
            level = [(word + (s,), up) for word, z in level for s in letters
                     for up in [tw.rtimes(system, z, s, twist)]
                     if system.length(up) > system.length(z)]
        for y in ys:
            want = sorted(chains.get(y, ()))
            hat = tw.hat_length(system, y, twist) - tw.hat_length(system, x, twist)
            assert all(len(word) == hat for word in want)
            assert tw.involution_words(system, y, x, twist) == tuple(want)
            assert tw.count_involution_words(system, y, x, twist) == len(want)


# the running S5 example: x = [3,5,1,4,2] = (1,3)(2,5), y = [4,5,3,1,2] = (1,4)(2,5)
def _s5_pair():
    system = cx.build_system("A4")
    x = cx.permutation_to_element(system, (3, 5, 1, 4, 2))
    y = cx.permutation_to_element(system, (4, 5, 3, 1, 2))
    return system, x, y


def test_running_example_atoms_from_x_to_itself():
    system, x, _ = _s5_pair()
    assert tw.atoms(system, x, x) == (system.identity,)
    hecke = tw.hecke_atoms(system, x, x)
    expected = {system.identity, system.generator(2), system.generator(4),
                system.product((2, 4))}
    assert set(hecke) == expected


def test_running_example_atoms_from_x_to_y():
    system, x, y = _s5_pair()
    ats = tw.atoms(system, y, x)
    assert ats == (system.generator(3),)
    assert cx.element_to_permutation(system, ats[0]) == (1, 2, 4, 3, 5)
    words = [list(system.reduced_word(w)) for w in tw.hecke_atoms(system, y, x)]
    assert words == [[3], [2, 3], [3, 2], [4, 3],
                     [2, 3, 2], [2, 4, 3], [4, 3, 2], [2, 4, 3, 2]]
    assert tw.involution_words(system, y, x) == ((3,),)


def test_minimal_length_conjecture_checker():
    for name, twist, pairs in [("A3", None, 41), ("A3", (3, 2, 1), 41),
                               ("B3", None, 126)]:
        report = tw.check_conjecture(cx.build_system(name), twist)
        assert report["pairs_checked"] == pairs
        assert report["failures"] == []


def test_conjecture_checker_restricted_to_some_targets():
    system = cx.build_system("A3")
    full = tw.check_conjecture(system)
    invs = tw.enumerate_twisted(system)
    parts = [tw.check_conjecture(system, ys=invs[i::3]) for i in range(3)]
    assert sum(p["pairs_checked"] for p in parts) == full["pairs_checked"]
    assert all(p["failures"] == [] for p in parts)


@pytest.mark.parametrize("name, twist", [("A3", (3, 2, 1)), ("B3", None),
                                         ("I2(6)", (2, 1))])
def test_bruhat_hecke_matches_a_direct_computation(name, twist):
    # w* y <= x w from multiply, apply_twist and the subword oracle alone,
    # for every pair of twisted involutions, comparable or not
    system = cx.build_system(name)
    elements = system.elements()
    key = twist or tuple(range(1, system.rank + 1))
    star = {w: system.apply_twist(w, key) for w in elements}
    leq = {}

    def below(u, v):
        if (u, v) not in leq:
            leq[u, v] = (system.length(u) <= system.length(v)
                         and _subword_leq(system, u, v))
        return leq[u, v]

    invs = tw.enumerate_twisted(system, twist)
    for x in invs:
        for y in invs:
            direct = {w for w in elements
                      if below(system.multiply(star[w], y), system.multiply(x, w))}
            got = tw.bruhat_hecke(system, y, x, twist)
            assert set(got) == direct and len(got) == len(direct)
            assert [system.length(w) for w in got] == sorted(
                system.length(w) for w in got)
            lmin = min((system.length(w) for w in direct), default=None)
            assert set(tw.bruhat_atoms(system, y, x, twist)) == {
                w for w in direct if system.length(w) == lmin}


@pytest.mark.parametrize("name, twist", [("B4", None), ("H3", None),
                                         ("D4", (3, 2, 1, 4)), ("A4", (4, 3, 2, 1))])
def test_scans_from_the_length_floor_miss_no_hit(name, twist, monkeypatch):
    # the scan without a floor: every id w with w* y <= x w, the products
    # taken on elements and compared by ElementTable.bruhat_leq
    system = cx.build_system(name)
    t = system.id_table()
    key = twist or tuple(range(1, system.rank + 1))
    elements, index = t.elements, _id_lookup(system)
    star = [system.apply_twist(w, key) for w in elements]
    ids = tw._ids(system, key)
    lhs = {y: [index(system.multiply(v, elements[y])) for v in star] for y in ids.hat}
    rhs = {x: [index(system.multiply(elements[x], w)) for w in elements] for x in ids.hat}
    pairs = [(y, x) for y in ids.hat for x in ids.down(y)]
    unfloored = {(y, x): [w for w, (u, v) in enumerate(zip(lhs[y], rhs[x]))
                          if t.bruhat_leq(u, v)] for y, x in pairs}

    def first_run(hits):
        return [w for w in hits if t.length[w] == t.length[hits[0]]]

    # the per-y rows and the scans inside check_conjecture: a pair's first
    # scan is at its floor, and every length from there up is recorded and
    # flattened. The row of y holds y at length 0, and the chain of x maps
    # the identity to x
    seen = {}
    real, top = tw._scan, len(t.start) - 1

    def recording(table, row, chain, k):
        y, x = row(0)[0], _times(chain, [0])[0]
        if (y, x) not in seen:
            seen[y, x] = [w for j in range(k, top) for w in real(table, row, chain, j)]
            assert [v for j in range(top) for v in row(j)] == lhs[y]
        return real(table, row, chain, k)

    monkeypatch.setattr(tw, "_scan", recording)
    assert tw.check_conjecture(system, twist)["failures"] == []
    assert seen == unfloored
    for y, x in pairs:
        hits = unfloored[y, x]
        assert tw.bruhat_hecke(system, elements[y], elements[x], twist) == tuple(
            elements[w] for w in hits)
        assert tw.bruhat_atoms(system, elements[y], elements[x], twist) == tuple(
            elements[w] for w in first_run(hits))
    # the floor ceil((l(y) - l(x)) / 2) is tight: the first hit lies on it for
    # many pairs besides x = y (864 of B4's 1211 pairs), so a higher floor fails
    on_floor = [(y, x) for y, x in pairs if x != y and 2 * t.length[unfloored[y, x][0]]
                in (t.length[y] - t.length[x], t.length[y] - t.length[x] + 1)]
    assert on_floor


def _times(chain, ws):
    """The ids x w for the ids ws, by the chain of x."""
    for times in chain:
        ws = map(times, ws)
    return list(ws)


@pytest.mark.parametrize("name, twist", [("A1", None), ("A1xA2", None), ("B3", None), ("H3", None),
                                         ("A4", (4, 3, 2, 1)), ("D4", (3, 2, 1, 4)),
                                         ("F4", (4, 3, 2, 1))])
def test_a_chain_maps_each_id_to_its_product_with_the_id_read_as_x(name, twist, monkeypatch):
    # a fresh system, so its chain table holds what one sweep read alone;
    # under a twist most x are no involutions, so a chain of the word
    # forward, which gives x^-1 w, fails here
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    read, real = set(), tw._atom_pass

    def recording(*args):
        for x, us in real(*args):
            read.add(x)
            yield x, us

    monkeypatch.setattr(tw, "_atom_pass", recording)
    assert tw.check_conjecture(system, twist)["failures"] == []
    chains = tw._chains(system)
    assert set(chains) == read == set(tw._ids(system, tw._twist_key(system, twist)).order())
    t, id_of = system.id_table(), _id_lookup(system)
    for x in read:
        assert _times(chains[x], [0]) == [x]
        assert _times(chains[x], range(len(t.elements))) == [
            id_of(system.multiply(t.elements[x], w)) for w in t.elements]
    assert set(chains) == read  # reading a stored chain fills no other


@pytest.mark.parametrize("name, twist", [("F4", (4, 3, 2, 1)), ("A5", (5, 4, 3, 2, 1)),
                                         ("I2(8)", (2, 1))])
def test_star_rows_are_the_twisted_products(name, twist):
    # each length of the row of y, built from the length below it, against
    # w* y from apply_twist and multiply; lengths asked for out of order
    system = cx.build_system(name)
    t = system.id_table()
    elements, index = t.elements, _id_lookup(system)
    star = [system.apply_twist(w, twist) for w in elements]
    top = len(t.start) - 2
    for y in tw._ids(system, twist).order():
        row = tw._star_row(t, y, twist)
        for k in [top // 2] + list(range(top + 1)):
            ws = range(t.start[k], t.start[k + 1])
            assert row(k) == [index(system.multiply(star[w], elements[y])) for w in ws]


def test_the_sweep_reports_a_pair_whose_atoms_disagree(monkeypatch):
    # drop the single atom of the running example from the sweep's atom pass,
    # so the pair expects no atoms while the scan still finds s3
    system, x, y = _s5_pair()
    id_of = _id_lookup(system)
    real = tw._atom_pass

    def dropping(top, steps, left, e, hat):
        for z, us in real(top, steps, left, e, hat):
            if top == id_of(y) and z == id_of(x):
                us = us - {id_of(system.generator(3))}
            yield z, us

    monkeypatch.setattr(tw, "_atom_pass", dropping)
    report = tw.check_conjecture(system, ys=[y])
    assert report["pairs_checked"] == 17
    assert report["failures"] == [{
        "x": [2, 1, 3, 4, 3, 2],
        "y": [2, 1, 3, 2, 1, 4, 3, 2],
        "expected": [],
        "got": [[3]],
    }]


def test_the_sweep_lists_failures_in_id_order(monkeypatch):
    # the pass streams x by decreasing hat; with every atom dropped, each x
    # below y fails, and the report lists them by increasing id
    system, _, y = _s5_pair()
    t = system.id_table()
    ids = tw._ids(system, tw._twist_key(system, None))
    real = tw._atom_pass
    monkeypatch.setattr(tw, "_atom_pass", lambda *args: (
        (z, set()) for z, _ in real(*args)))
    report = tw.check_conjecture(system, ys=[y])
    assert report["pairs_checked"] == 17
    assert [f["x"] for f in report["failures"]] == [
        list(system.reduced_word(t.elements[x])) for x in sorted(ids.down(ids.member(y)))]


@pytest.mark.parametrize("name, twist", [
    ("B4", None), ("H3", None), ("F4", None), ("F4", (4, 3, 2, 1)),
    ("D4", (3, 2, 1, 4)), ("A4", (4, 3, 2, 1)), ("I2(7)", None)])
def test_the_atom_pass_matches_the_hecke_fibers(name, twist):
    # the sweep's top-down pass against the first run of each base's fiber:
    # every x in the down-set of every y, and nothing else
    system = cx.build_system(name)
    t = system.id_table()
    key = tw._twist_key(system, twist)
    ids = tw._ids(system, key)
    elements, id_of = t.elements, _id_lookup(system)
    left = [row.__getitem__ for row in t.left]
    for y in ids.hat:
        below = dict(tw._atom_pass(y, ids.steps, left, 0, ids.hat))
        assert set(below) == ids.down(y)
        for x, got in below.items():
            fiber = tw.hecke_table(system, elements[x], twist).get(elements[y], ())
            assert sorted(got) == tw._first_run(t, map(id_of, fiber))
            assert {t.length[w] for w in got} == {ids.hat[y] - ids.hat[x]}


def _closure_then_sort_pass(y, ids, left, e):
    """The oracle of the atom pass: y's down-set listed by closure and
    sorted by decreasing hat, then each set pushed down the steps."""
    below = {}
    for z in sorted(ids.down(y), key=ids.hat.__getitem__, reverse=True):
        us = below.pop(z, None) or {e}  # only y has no set yet
        for s, zs in ids.steps[z]:
            below.setdefault(zs, set()).update(map(left[s], us))
        yield z, us


def _check_the_pass_order(ids, left, e):
    for y in ids.order():
        got = list(tw._atom_pass(y, ids.steps, left, e, ids.hat))
        position = {z: i for i, (z, _) in enumerate(got)}
        # each x of the down-set once, after every id above it
        assert len(position) == len(got) and set(position) == ids.down(y)
        assert all(position[z] < position[v] for z in position for _, v in ids.steps[z])
        assert dict(got) == dict(_closure_then_sort_pass(y, ids, left, e))


@pytest.mark.parametrize("name, twist", [("B4", None), ("F4", (4, 3, 2, 1)), ("D4", (3, 2, 1, 4))])
def test_the_atom_pass_walks_its_down_set_by_decreasing_hat(monkeypatch, name, twist):
    fast = cx.build_system(name)
    t = fast.id_table()
    _check_the_pass_order(tw._ids(fast, tw._twist_key(fast, twist)),
                          [row.__getitem__ for row in t.left], 0)
    slow, _ = _above_the_cap(monkeypatch, name)
    left = [partial(slow.left_mult, s + 1) for s in range(slow.rank)]
    _check_the_pass_order(tw._ids(slow, tw._twist_key(slow, twist)), left, slow.identity)


def test_the_sweep_leaves_no_hecke_tables_behind():
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("A3"), name="A3")
    for twist in (None, (3, 2, 1)):
        report = tw.check_conjecture(system, twist)
        assert report["pairs_checked"] == 41 and report["failures"] == []
    sizes = system.cache_sizes()
    assert sizes["twisted._ids"] == 2 and "twisted._id_fibers" not in sizes


def _direct_fold(system, base, twist):
    """The Hecke fibers of base, keyed by y in the order of their first
    atoms, from folding base against every element of the group: the fold
    against w extends the fold against w s for the first right descent s."""
    t = system.id_table()
    ids = tw._ids(system, tw._twist_key(system, twist))
    images = [ids.member(base)] * len(t.elements)
    for w in range(1, len(images)):
        s = t.first_descent[w]
        images[w] = ids.dact[images[t.right[s][w]]][s]
    fibers = {}
    for w, y in enumerate(images):
        fibers.setdefault(t.elements[y], []).append(t.elements[w])
    return {y: tuple(ws) for y, ws in fibers.items()}


@pytest.mark.parametrize("name, twist", [
    ("B3", None), ("H3", None), ("B4", None), ("F4", (4, 3, 2, 1)),
    ("D4", (3, 2, 1, 4)), ("A4", (4, 3, 2, 1)), ("I2(7)", None)])
def test_fibers_pulled_back_along_x_match_a_direct_fold_of_x(name, twist):
    # every pair (x, y), x = y and x not below y among them; one fold is kept
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    involutions = tw.enumerate_twisted(system, twist)
    for x in involutions:
        fibers = _direct_fold(system, x, twist)
        assert list(tw.hecke_table(system, x, twist).items()) == list(fibers.items())
        for y in involutions:
            fiber = fibers.get(y, ())
            shortest = min(map(system.length, fiber), default=None)
            assert tw.hecke_atoms(system, y, x, twist) == fiber
            assert tw.atoms(system, y, x, twist) == tuple(
                w for w in fiber if system.length(w) == shortest)
    assert system.cache_sizes() == {"twisted._twist_key": 1, "twisted._ids": 1,
                                    "twisted._id_fibers": 1, **_GROUP_TABLES}


def _within_cap_atoms():
    """The atoms of s1 s2 s1 in B4, from the process-wide B4 within the cap.
    Taken before a test lowers the cap, which would otherwise decide that
    cached system's cap for the rest of the run."""
    b4 = cx.build_system("B4")
    return tw.atoms(b4, b4.product((1, 2, 1)))


def _check_the_cap_routes(system, within):
    """With B4 above the cap: the whole-group routes raise, atoms falls back
    to the atom pass down the numbered down-set, and no group is enumerated."""
    y = system.product((1, 2, 1))
    with pytest.raises(ValueError, match="too large"):
        tw.bruhat_hecke(system, y)
    with pytest.raises(ValueError, match="too large"):
        tw.hecke_table(system, system.identity)
    assert "coxeter._enumerate" not in system.cache_sizes()
    assert tw.atoms(system, y) == within
    assert "coxeter._enumerate" not in system.cache_sizes() and system.id_table() is None
    assert cx.build_system("B4").id_table() is not None


def _check_the_cap_without_enumerating(monkeypatch, name):
    within = _within_cap_atoms()
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 100)  # B4 has order 384
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("B4"), name=name)
    monkeypatch.setattr(system, "_enumerate", lambda: pytest.fail("enumerated"))
    _check_the_cap_routes(system, within)


def test_cap_checks_on_a_bare_matrix_decided_from_its_degrees(monkeypatch):
    _check_the_cap_without_enumerating(monkeypatch, None)


def test_cap_checks_on_a_named_type_decided_from_its_degrees(monkeypatch):
    _check_the_cap_without_enumerating(monkeypatch, "B4")


def test_the_cap_is_decided_once_per_system(monkeypatch):
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("B4"), name="B4")
    y = system.product((1, 2, 1))
    hecke, bruhat = tw.hecke_atoms(system, y), tw.bruhat_hecke(system, y)
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 100)  # B4 has order 384
    # both whole-group routes still answer from the table built within the cap
    assert tw.hecke_table(system, system.identity)[y] == hecke
    assert tw.bruhat_hecke(system, y) == bruhat


def _above_the_cap(monkeypatch, name):
    """A fresh system of the named type with the cap lowered below its order,
    and a reference system of the same type for comparing attributes."""
    monkeypatch.setattr(cx, "ENUMERATION_CAP", 100)  # B4 has order 384, F4 1152
    matrix = cx.coxeter_matrix_from_name(name)
    system, reference = (cx.CoxeterSystem(matrix, name=name) for _ in range(2))
    assert system.id_table() is None and reference.id_table() is None
    return system, reference


def _check_the_store(system, reference):
    # the ids keep their tables in the system's one store, as within the cap
    assert set(vars(system)) == set(vars(reference))
    assert set(system.cache_sizes()) <= _MEMO_TABLES


@pytest.mark.parametrize("name, twist", [("B4", (1, 2, 3, 4)), ("F4", (4, 3, 2, 1))])
def test_rows_above_the_cap_are_the_rows_within_it(monkeypatch, name, twist):
    fast = cx.build_system(name)
    elements, within = fast.id_table().elements, tw._ids(fast, twist)
    slow, reference = _above_the_cap(monkeypatch, name)
    ids = tw._ids(slow, twist)
    # the id correspondence: each group id within the cap to the id of its
    # element above it, onto every id that the table numbers
    above = {x: ids.member(elements[x]) for x in within.order()}
    assert above[within.root] == ids.root
    assert sorted(above.values()) == sorted(ids.order()) == list(range(len(above)))
    for x, y in above.items():
        assert ids.dact[y] == tuple(above[z] for z in within.dact[x])
        assert ids.steps[y] == tuple((s, above[z]) for s, z in within.steps[x])
        assert ids.hat[y] == within.hat[x]
        assert ids.element(y) == elements[x]
        assert ids.key(y) == within.key(x) == elements[x][:slow.rank]
    assert not ids._perms  # every row filled, and no root permutation kept
    _check_the_store(slow, reference)


def test_an_atoms_query_above_the_cap_numbers_only_the_down_set_and_its_neighbours(monkeypatch):
    within = _within_cap_atoms()
    system, reference = _above_the_cap(monkeypatch, "B4")
    y = system.product((1, 2, 1))
    assert tw.atoms(system, y) == within
    ids = tw._ids(system, tw._twist_key(system, None))
    down = ids.down(ids.member(y))
    # the rows of the down-set are filled, and only its conjugation steps numbered
    assert set(ids.dact) == set(ids.steps) == set(ids.hat) == down
    numbered = down | {z for x in down for z in ids.dact[x]}
    assert len(down) == 4 and len(numbered) == 12  # of B4's 76 twisted involutions
    assert set(range(len(ids._keys))) == numbered
    assert set(ids._perms) == numbered - down
    _check_the_store(system, reference)


def test_hat_length_walks_a_long_chain_without_recursion():
    # I2(5000) is above the cap; its reflection (s1 s2)^1200 s1 is 1200
    # steps down from a generator
    system = cx.build_system("I2(5000)")
    assert system.id_table() is None
    y, rotation, k = system.generator(1), system.product((1, 2)), 1200
    while k:  # y = (s1 s2)^1200 s1, by repeated squaring
        if k & 1:
            y = system.multiply(rotation, y)
        rotation, k = system.multiply(rotation, rotation), k >> 1
    assert system.length(y) == 2401 and tw.hat_length(system, y) == 1201


def test_elements_of_another_system_are_rejected_on_both_routes(monkeypatch):
    # the identity of E7 starts with that of E6: the key alone would accept it
    e6, b3, b4 = (cx.build_system(name) for name in ("E6", "B3", "B4"))
    slow, _ = _above_the_cap(monkeypatch, "B4")
    for system, other in [(e6, b3.identity), (e6, cx.build_system("E7").identity),
                          (b4, b3.identity), (slow, b3.identity), (b3, b4.identity),
                          (slow, cx.build_system("B5").identity)]:
        with pytest.raises(ValueError, match="not a twisted involution"):
            tw.hat_length(system, other)
    assert tw.hat_length(e6, e6.identity) == tw.hat_length(slow, slow.identity) == 0


def test_bruhat_descriptions_of_hecke_sets_and_atoms():
    for name, twist in [("A4", None), ("B3", None), ("A3", (3, 2, 1))]:
        report = tw.check_bruhat_descriptions(cx.build_system(name), twist)
        assert report["failures"] == []


def test_only_two_elements_conjugate_the_twist_in_s4():
    system = cx.build_system("A3")
    good = []
    for v0 in system.elements():
        try:
            tw.dual_twist(system, v0)
        except ValueError:
            continue
        good.append(v0)
    assert set(good) == {system.identity, system.longest_element()}


def test_duality_translation():
    system = cx.build_system("A3")
    for twist in (None, (3, 2, 1)):
        report = tw.check_duality(system, system.longest_element(), twist)
        assert report["pairs_checked"] == 123
        assert report["failures"] == []
    b3 = cx.build_system("B3")
    assert tw.check_duality(b3, b3.longest_element())["failures"] == []


def test_the_duality_check_keeps_one_fold_per_twist():
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name("D5"), name="D5")
    report = tw.check_duality(system, system.longest_element())
    assert report["pairs_checked"] == 9785 and report["failures"] == []
    # one fold for each of the two twists, the identity and its w0-conjugate
    # (the flip of the fork); the keys of the identity as None and as a tuple
    assert system.cache_sizes() == {"twisted._twist_key": 3, "coxeter._twist_perms": 1,
                                    "twisted._ids": 2, "twisted._id_fibers": 2, **_GROUP_TABLES}


@pytest.mark.parametrize("name, twist", [("B3", None), ("A3", (3, 2, 1))])
def test_the_duality_check_reads_the_tables_only(monkeypatch, name, twist):
    def reports(system):
        # the central closure too, where the longest element is central (B3)
        w0 = system.longest_element()
        out = [tw.check_duality(system, w0, twist)]
        if tw.is_central_parabolic_longest(system, w0):
            out.append(tw.check_central_closure(system, w0, twist))
        return out

    expected = reports(cx.build_system(name))
    assert len(expected) == (2 if name == "B3" else 1)

    def recomputed(*args, **kwargs):
        raise AssertionError("the duality check recomputed a table entry")

    for fn in ("_rtimes", "hat_length", "enumerate_twisted"):
        monkeypatch.setattr(tw, fn, recomputed)
    # the word verdicts are read off the atom verdicts, so no word is listed
    monkeypatch.setattr(cx.CoxeterSystem, "reduced_words", recomputed)
    system = cx.CoxeterSystem(cx.coxeter_matrix_from_name(name), name=name)
    assert reports(system) == expected


def test_the_duality_check_lists_a_wrong_pair_and_goes_on(monkeypatch):
    system = cx.build_system("A3")
    w0, x, real = system.longest_element(), system.product((2,)), tw.atoms

    def one_atom_short(system_, y, x_=None, twist=None):
        # drop an atom of (x, w0) under the twist conjugated by w0, the flip
        got = real(system_, y, x_, twist)
        return got[1:] if (x_, y, twist) == (x, w0, (3, 2, 1)) else got

    monkeypatch.setattr(tw, "atoms", one_atom_short)
    report = tw.check_duality(system, w0)
    assert report["pairs_checked"] == 123
    pair = {"x": [2], "y": [1, 2, 1, 3, 2, 1]}
    assert report["failures"] == [{"check": "atoms-inverse", **pair},
                                  {"check": "words-reversed", **pair}]


def test_central_longest_element_closure():
    for name in ("B2", "B3"):
        system = cx.build_system(name)
        report = tw.check_central_closure(system, system.longest_element())
        assert report["failures"] == []


def test_central_closure_rejects_non_central_elements():
    system = cx.build_system("A2")
    with pytest.raises(ValueError, match="central longest element"):
        tw.check_central_closure(system, system.longest_element())


def test_invalid_twist_is_rejected():
    system = cx.build_system("A3")
    with pytest.raises(ValueError, match="invalid twist"):
        tw.enumerate_twisted(system, (2, 1, 3))


def test_pair_queries_reject_a_y_that_is_not_a_twisted_involution():
    system = cx.build_system("A3")
    s1 = system.product((1,))
    three_cycle = cx.permutation_to_element(system, (2, 3, 1, 4))
    # s1 is an involution but not a twisted one for the twist s1 <-> s3
    for y, twist in [(three_cycle, None), (three_cycle, (3, 2, 1)), (s1, (3, 2, 1))]:
        for query in (tw.atoms, tw.hecke_atoms, tw.involution_words, tw.count_involution_words):
            with pytest.raises(ValueError, match="not a twisted involution"):
                query(system, y, twist=twist)
    # a twisted involution that the fold of x never reaches has no Hecke atoms
    assert tw.hecke_atoms(system, system.identity, s1) == ()
