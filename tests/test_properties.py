"""Seeded property tests over small random finite Coxeter systems.

Each case draws a product of named and dihedral pieces of order at most
2000, relabels its generators at random, picks a random involutive twist
and checks the word and atom identities of the paper on random pairs, the
duality and braid checks on the whole system, and the answers of the
relabelled system against those of the product it relabels.
"""

import os
import random

import pytest

import invatoms.braid as br
import invatoms.coxeter as cx
import invatoms.twisted as tw

ORDER_CAP = 2000  # the largest group order drawn
EXTENDED = bool(os.environ.get("INVATOMS_EXTENDED"))

# the named pieces with their group orders
_NAMED = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B3": 48, "B4": 384, "D4": 192,
          "F4": 1152, "H3": 120}


def _piece(rng, room, last):
    """A random named or dihedral piece of order at most room, as (name,
    order), or None when none fits. The last piece drawn, if it fits, is
    drawn again half the time, so that a twist may swap the two copies."""
    fits = [(name, order) for name, order in _NAMED.items() if order <= room]
    fits += [("I2(%d)" % m, 2 * m) for m in range(3, 13) if 2 * m <= room]
    if last in fits:
        fits += [last] * len(fits)
    return rng.choice(fits) if fits else None


def _random_system(rng):
    """A random relabelled product of one to three pieces, its order at
    most ORDER_CAP, a random involutive twist of it, the product before
    relabelling and the labelling: generator i + 1 of the relabelled
    system is generator label[i] + 1 of the product."""
    pieces, order, got = [], 1, None
    while len(pieces) < 3 and (not pieces or rng.random() < 0.6):
        got = _piece(rng, ORDER_CAP // order, got)
        if got is None:
            break
        pieces.append(got[0])
        order *= got[1]
    blocks = [cx.coxeter_matrix_from_name(name) for name in pieces]
    rank = sum(len(b) for b in blocks)
    matrix, at = [[2] * rank for _ in range(rank)], 0
    for b in blocks:
        for i, row in enumerate(b):
            matrix[at + i][at:at + len(b)] = row
        at += len(b)
    label = list(range(rank))
    rng.shuffle(label)
    relabelled = [[matrix[label[i]][label[j]] for j in range(rank)] for i in range(rank)]
    system = cx.CoxeterSystem(relabelled, name="x".join(pieces))
    assert system.order() == order
    twists = [t for t in system.diagram_automorphisms() if cx.is_involutive_twist(system, t)]
    return system, rng.choice(twists), cx.CoxeterSystem(matrix, name=system.name), label


def _relabelling(system, twist, named, label):
    """The map of words of the relabelled system onto words of the product,
    its map of elements and the twist carried over."""
    def word(letters):
        return tuple(label[a - 1] + 1 for a in letters)

    def element(w):
        return named.product(word(system.reduced_word(w)))

    carried = [0] * system.rank
    for i, t in enumerate(twist):
        carried[label[i]] = label[t - 1] + 1
    return word, element, tuple(carried)


@pytest.mark.parametrize("seed", range(24))
def test_words_atoms_and_classes_agree_on_a_random_system(seed):
    rng = random.Random(seed)
    system, twist, named, label = _random_system(rng)
    word, element, carried = _relabelling(system, twist, named, label)
    ys = tw.enumerate_twisted(system, twist)
    for y in rng.sample(ys, min(len(ys), 5)):
        below = [x for x in ys if tw.weak_leq_T(system, x, y, twist)]
        for x in [system.identity] + rng.sample(below, min(len(below), 2)):
            words = tw.involution_words(system, y, x, twist)
            assert tw.count_involution_words(system, y, x, twist) == len(words)
            atoms = tw.atoms(system, y, x, twist)
            per_atom = [system.reduced_words(a) for a in atoms]
            # the involution words are the disjoint union of the atoms' reduced words
            assert sum(map(len, per_atom)) == len(words)
            assert set().union(*per_atom) == set(words)
            for a, reduced in zip(atoms, per_atom):
                assert system.count_reduced_words(a) == len(reduced)
            if x == system.identity:
                assert br.involution_braid_class(system, min(words), twist) == set(words)
            # the product gives the same answers once the letters are mapped
            ny, nx = element(y), element(x)
            assert set(tw.involution_words(named, ny, nx, carried)) == set(map(word, words))
            assert {frozenset(named.reduced_words(a)) for a in tw.atoms(named, ny, nx, carried)} \
                == {frozenset(map(word, reduced)) for reduced in per_atom}
            assert [tw.hat_length(named, v, carried) for v in (ny, nx)] == \
                [tw.hat_length(system, v, twist) for v in (y, x)]


def _folds_lengths_and_routes_agree(seed):
    rng = random.Random(seed)
    system, twist, _, _ = _random_system(rng)
    ys = tw.enumerate_twisted(system, twist)
    pairs = []
    for y in rng.sample(ys, min(len(ys), 4)):
        below = [x for x in ys if tw.weak_leq_T(system, x, y, twist)]
        pairs += [(x, y) for x in [system.identity] + rng.sample(below, min(len(below), 2))]
    answers = []
    for x, y in pairs:
        # the fold along a reduced word is the Demazure product formula
        w = system.product(rng.randint(1, system.rank) for _ in range(rng.randint(0, 12)))
        assert tw.dact_word(system, x, system.reduced_word(w), twist) == \
            tw.dact_element_via_demazure(system, x, w, twist)
        hat = tw.hat_length(system, y, twist) - tw.hat_length(system, x, twist)
        atoms = tw.atoms(system, y, x, twist)
        assert atoms and all(system.length(a) == hat for a in atoms)
        # within the cap, every Hecke atom folds x to y
        assert all(tw.dact_element_via_demazure(system, x, w, twist) == y
                   for w in tw.hecke_atoms(system, y, x, twist))
        answers.append((atoms, tw.involution_words(system, y, x, twist), hat))
    # the routes above the cap give the same answers on a fresh system
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cx, "ENUMERATION_CAP", 1)
        fresh = cx.CoxeterSystem(system.matrix, name=system.name)
        assert fresh.id_table() is None
        assert answers == [(tw.atoms(fresh, y, x, twist), tw.involution_words(fresh, y, x, twist),
                            tw.hat_length(fresh, y, twist) - tw.hat_length(fresh, x, twist))
                           for x, y in pairs]


@pytest.mark.parametrize("seed", range(24))
def test_folds_lengths_and_routes_agree_on_a_random_system(seed):
    _folds_lengths_and_routes_agree(seed)


@pytest.mark.skipif(not EXTENDED, reason="set INVATOMS_EXTENDED=1 for 200 random systems")
def test_extended_folds_lengths_and_routes_agree_on_200_random_systems():
    for seed in range(200):
        _folds_lengths_and_routes_agree(seed)


def _checks_agree_on_both_routes(seed, duality_above_up_to):
    """The duality check through w0 and the braid check pass on a random
    system, and a fresh one with the cap patched to 1 reports the same; the
    duality check runs above the cap only up to the given group order."""
    system, twist, _, _ = _random_system(random.Random(seed))

    def reports(s, duality):
        got = [br.check_braid_classes(s, twist)]
        return got + [tw.check_duality(s, s.longest_element(), twist)] if duality else got

    within = reports(system, True)
    assert [r["failures"] for r in within] == [[], []]
    duality = system.order() <= duality_above_up_to
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cx, "ENUMERATION_CAP", 1)
        fresh = cx.CoxeterSystem(system.matrix, name=system.name)
        assert fresh.id_table() is None
        assert reports(fresh, duality) == within[:1 + duality]


@pytest.mark.parametrize("seed", range(24))
def test_duality_and_braid_checks_agree_on_both_routes_of_a_random_system(seed):
    _checks_agree_on_both_routes(seed, 1000)


@pytest.mark.skipif(not EXTENDED, reason="set INVATOMS_EXTENDED=1 for 200 random systems")
def test_extended_duality_and_braid_checks_agree_on_both_routes_of_200_random_systems():
    # seeds 0-23 among them, each with the duality check above the cap too
    for seed in range(200):
        _checks_agree_on_both_routes(seed, ORDER_CAP)
