import functools
import itertools

import pytest

from conftest import GRID_TYPES, cached_build_lattice
from oracles import (
    conjugacy_classes_by_perms,
    left_cosets,
    s3_conjugacy_class_count,
    signed_orbit_b2,
    subgroup_closure,
)
from renner import (
    InvalidType,
    SizeCapExceeded,
    WeylElement,
    cartan_matrix,
    generate_weyl,
    group_conjugacy_classes,
    parabolic,
    reflect,
    standard_weyl_order,
    weight_orbit,
)
from renner.rootsys import check_group_cap


def test_cartan_matrix_rank_two_tables():
    assert cartan_matrix("A", 2).rows == ((2, -1), (-1, 2))
    assert cartan_matrix("B", 2).rows == ((2, -1), (-2, 2))
    assert cartan_matrix("G", 2).rows == ((2, -1), (-3, 2))


def test_cartan_matrix_shapes():
    for letter, rank in [("A", 1), ("A", 5), ("B", 3), ("C", 4), ("D", 4), ("F", 4)]:
        c = cartan_matrix(letter, rank)
        assert all(c.entry(i, i) == 2 for i in range(rank))
        for i in range(rank):
            for j in range(rank):
                if i != j:
                    assert c.entry(i, j) <= 0
                    assert (c.entry(i, j) == 0) == (c.entry(j, i) == 0)


def test_cartan_matrix_d3_matches_a3_diagram():
    # D3 is A3 with the branch node first; same multiset of edges.
    d3 = cartan_matrix("D", 3)
    edges = {frozenset((i, j)) for i in range(3) for j in range(3) if d3.adjacent(i, j)}
    assert edges == {frozenset((0, 1)), frozenset((0, 2))}


@pytest.mark.parametrize(
    "letter,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("F", 3), ("F", 5), ("G", 3), ("X", 2)],
)
def test_cartan_matrix_rejects_bad_types(letter, rank):
    with pytest.raises(InvalidType):
        cartan_matrix(letter, rank)


def test_reflect_examples():
    a2 = cartan_matrix("A", 2)
    assert reflect(a2, 0, (1, 0)) == (-1, 1)
    assert reflect(a2, 1, (1, 0)) == (1, 0)  # zero pairing: fixed
    g2 = cartan_matrix("G", 2)
    assert reflect(g2, 1, (0, 1)) == (3, -1)


def test_reflect_is_involutive():
    for letter in ("A", "B", "G"):
        c = cartan_matrix(letter, 2)
        for v in itertools.product(range(-2, 3), repeat=2):
            for i in range(2):
                assert reflect(c, i, reflect(c, i, v)) == v


def test_standard_orders():
    assert standard_weyl_order("A", 2) == 6
    assert standard_weyl_order("B", 2) == 8
    assert standard_weyl_order("G", 2) == 12
    assert standard_weyl_order("A", 3) == 24
    assert standard_weyl_order("D", 4) == 192
    assert standard_weyl_order("F", 4) == 1152


def test_generate_weyl_orders_regular_seed():
    a2 = generate_weyl(cartan_matrix("A", 2), (1, 1))
    assert a2.order == 6 and a2.degree == 6
    g2 = generate_weyl(cartan_matrix("G", 2), (1, 1))
    assert g2.order == 12 and g2.degree == 12
    # A fixed seed's one-point orbit carries only the trivial image.
    trivial = generate_weyl(cartan_matrix("B", 2), (0, 0))
    assert trivial.order == trivial.degree == 1 and trivial.right == ((0,), (0,))


def test_generate_weyl_b2_fundamental_orbit():
    # Euclidean oracle: orbit of e1 under signed coordinate permutations.
    assert len(signed_orbit_b2((1, 0))) == 4
    group = generate_weyl(cartan_matrix("B", 2), (1, 0))
    assert group.degree == 4
    assert group.order == 8


def test_weight_orbit_respects_cap():
    with pytest.raises(SizeCapExceeded):
        weight_orbit(cartan_matrix("A", 5), (1,) * 5, max_size=100)
    with pytest.raises(SizeCapExceeded):
        generate_weyl(cartan_matrix("A", 5), (1,) * 5, max_order=100)


def test_elements_sorted_by_length_then_word():
    group = generate_weyl(cartan_matrix("B", 2), (1, 1))
    keys = [w.canonical_key() for w in group.elements]
    assert keys == sorted(keys)


def test_words_are_reduced_and_evaluate_back():
    group = generate_weyl(cartan_matrix("G", 2), (1, 1))
    for w in group.elements:
        assert len(w.word) == w.length
        gens = [group.generators[i] for i in w.word]
        assert functools.reduce(group.mul, gens, group.identity) == w


def test_words_are_lex_least_among_reduced():
    # Enumerate all words up to the maximal length and keep each element's
    # minimum (length, word); must agree with the stored canonical words.
    for letter in ("A", "B"):
        group = generate_weyl(cartan_matrix(letter, 2), (1, 1))
        longest = max(w.length for w in group.elements)
        best = {}
        for size in range(longest + 1):
            for word in itertools.product(range(2), repeat=size):
                el = functools.reduce(
                    group.mul, [group.generators[i] for i in word], group.identity
                )
                key = (len(word), word)
                if el not in best or key < best[el]:
                    best[el] = key
        for w in group.elements:
            assert best[w] == (w.length, w.word)


def test_coxeter_step_property():
    group = generate_weyl(cartan_matrix("B", 2), (1, 1))
    for w in group.elements:
        for g in group.generators:
            assert abs(group.mul(w, g).length - w.length) == 1


def test_group_operations():
    group = generate_weyl(cartan_matrix("A", 2), (1, 1))
    for a in group.elements:
        assert group.mul(a, group.inv(a)) == group.identity
        for b in group.elements:
            ab = group.mul(a, b)
            assert ab in group


def test_index_tables_are_the_products_with_generators():
    for letter, rank, seed in (("G", 2, (1, 1)), ("B", 3, (1, 0, 0)), ("F", 4, (1, 0, 0, 0))):
        group = generate_weyl(cartan_matrix(letter, rank), seed)
        elements = group.elements
        for i, s in enumerate(group.generators):
            for k, w in enumerate(elements):
                assert elements[group.right[i][k]] == group.mul(w, s)
                assert elements[group.left[i][k]] == group.mul(s, w)


def test_parabolic_orders():
    group = generate_weyl(cartan_matrix("G", 2), (1, 1))
    assert parabolic(group, ()).members == (group.identity,)
    assert parabolic(group, (0,)).order == 2
    assert parabolic(group, (0, 1)).order == 12
    a2 = generate_weyl(cartan_matrix("A", 2), (1, 1))
    s1 = parabolic(a2, (0,))
    assert set(s1.members) == {a2.identity, a2.generators[0]}
    # Every supported type at its first fundamental weight (a faithful, small
    # orbit) and every J: the members are the closure of the J generators,
    # in (length, word) order.
    for letter, rank in (
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
        ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("F", 4),
        ("G", 2),
    ):
        group = generate_weyl(cartan_matrix(letter, rank), (1,) + (0,) * (rank - 1))
        assert group.order == standard_weyl_order(letter, rank)
        for size in range(rank + 1):
            for J in itertools.combinations(range(rank), size):
                closure = subgroup_closure(group, [group.generators[j] for j in J])
                assert parabolic(group, J).members == tuple(
                    sorted(closure, key=WeylElement.canonical_key)
                ), (letter, rank, J)


def test_min_coset_reps_counts():
    group = generate_weyl(cartan_matrix("G", 2), (1, 1))
    assert left_cosets(parabolic(group, (0, 1)))[0] == (group.identity,)
    assert len(left_cosets(parabolic(group, ()))[0]) == 12
    assert len(left_cosets(parabolic(group, (0,)))[0]) == 6


def test_min_coset_reps_descent_characterization():
    # A rep is exactly an element whose length rises against every generator
    # of the parabolic.
    for letter in ("A", "B", "G"):
        group = generate_weyl(cartan_matrix(letter, 2), (1, 1))
        for J in [(), (0,), (1,), (0, 1)]:
            reps = set(left_cosets(parabolic(group, J))[0])
            for w in group.elements:
                rising = all(
                    group.mul(w, group.generators[j]).length == w.length + 1 for j in J
                )
                assert (w in reps) == rising


def test_min_coset_reps_tile_the_group():
    # Unique factorization w = u * v with additive lengths.
    group = generate_weyl(cartan_matrix("B", 2), (1, 1))
    for J in [(), (0,), (1,), (0, 1)]:
        sub = parabolic(group, J)
        reps = left_cosets(sub)[0]
        factorizations = {}
        for u in reps:
            for v in sub.members:
                w = group.mul(u, v)
                assert w.length == u.length + v.length
                factorizations.setdefault(w, []).append((u, v))
        assert set(factorizations) == set(group.elements)
        assert all(len(fs) == 1 for fs in factorizations.values())
        # Membership is read off the stored word, and only in the parent.
        members = set(sub.members)
        assert all((w in sub) == (w in members) for w in group.elements)
    other = generate_weyl(cartan_matrix("A", 2), (1, 1))
    assert other.identity not in parabolic(group, (0, 1))


# Published class counts of every supported full Weyl group.
WEYL_CLASS_COUNTS = {
    ("A", 1): 2, ("A", 2): 3, ("A", 3): 5, ("A", 4): 7, ("A", 5): 11,
    ("B", 2): 5, ("B", 3): 10, ("B", 4): 20,
    ("C", 2): 5, ("C", 3): 10, ("C", 4): 20,
    ("D", 3): 5, ("D", 4): 13,
    ("F", 4): 25, ("G", 2): 6,
}


def test_both_realizations_list_the_same_words():
    # BFS order is (length, lex-least word) in every faithful realization, so
    # the small orbit of the first fundamental weight and the regular orbit of
    # (1, ..., 1) list the same Coxeter elements index by index.  The face
    # layout needs no second BFS: it carries the lattice's group onto the
    # weight orbit along the BFS steps, and test_monoid checks that a BFS on
    # the weight orbit lists the same tables.
    for letter, rank in WEYL_CLASS_COUNTS:
        cartan = cartan_matrix(letter, rank)
        small = generate_weyl(cartan, (1,) + (0,) * (rank - 1))
        regular = generate_weyl(cartan, (1,) * rank)
        assert regular.degree == regular.order == small.order, (letter, rank)
        assert [w.word for w in small] == [w.word for w in regular], (letter, rank)


def test_conjugacy_classes_counts():
    a2 = generate_weyl(cartan_matrix("A", 2), (1, 1))
    assert len(group_conjugacy_classes(parabolic(a2, ()))) == 1
    assert len(group_conjugacy_classes(parabolic(a2, (0, 1)))) == s3_conjugacy_class_count()
    g2 = generate_weyl(cartan_matrix("G", 2), (1, 1))
    assert len(group_conjugacy_classes(parabolic(g2, (0, 1)))) == 6
    # Each full group realized on the orbit of the first fundamental weight,
    # which is faithful for every supported type.
    for (letter, rank), count in WEYL_CLASS_COUNTS.items():
        group = generate_weyl(cartan_matrix(letter, rank), (1,) + (0,) * (rank - 1))
        assert group.order == standard_weyl_order(letter, rank), (letter, rank)
        classes = group_conjugacy_classes(parabolic(group, range(rank)))
        assert len(classes) == count, (letter, rank)
        assert sum(len(cls) for cls in classes) == group.order, (letter, rank)


def test_conjugacy_class_sizes_sum():
    g2 = generate_weyl(cartan_matrix("G", 2), (1, 1))
    for J in [(), (0,), (0, 1)]:
        sub = parabolic(g2, J)
        classes = group_conjugacy_classes(sub)
        assert sum(len(c) for c in classes) == sub.order
        for cls in classes:
            assert cls[0] == min(cls, key=WeylElement.canonical_key)


def test_class_closure_on_index_tables_matches_permutation_products():
    # Every lambda_star parabolic of the grid: the canonical lattice of each
    # type has every subset of the simple roots as a lambda_star.
    for letter, rank in GRID_TYPES:
        lattice = cached_build_lattice(cartan_matrix(letter, rank), (1,) * rank)
        assert len(lattice) == 2**rank + 1
        for e in lattice:
            star = lattice.star_group(e)
            assert group_conjugacy_classes(star) == conjugacy_classes_by_perms(star), (
                letter, e.label
            )


def test_group_cap_from_the_closed_form_order():
    for letter, rank in WEYL_CLASS_COUNTS:
        order = standard_weyl_order(letter, rank)
        check_group_cap(letter, rank, order)
        with pytest.raises(SizeCapExceeded):
            check_group_cap(letter, rank, order - 1)
    # The last factor passes the cap, so the order is exact; otherwise the
    # product stops early and gives a lower bound.
    with pytest.raises(SizeCapExceeded, match=r"^Weyl group of order 1152 exceeds the cap 100$"):
        check_group_cap("F", 4, 100)
    with pytest.raises(SizeCapExceeded, match=r"^Weyl group of order at least 120 exceeds the cap 100$"):
        check_group_cap("A", 5, 100)
    with pytest.raises(InvalidType):
        check_group_cap("B", 1, 1000)
