import itertools
import sys
import threading

import pytest

from conftest import GRID_TYPES, cached_build_lattice, grid_patterns
from oracles import conjugate
from renner import (
    DominantWeightSpec,
    build_lattice,
    cartan_matrix,
    connected_components,
    cross_section_lattice,
    generate_weyl,
    is_admissible,
    lambda_sub_star,
    parabolic,
)
from renner.crosslat import parabolic_order


def _lattice(letter, rank, weight):
    lattice = cross_section_lattice(cartan_matrix(letter, rank), DominantWeightSpec(weight))
    return lattice.group, lattice


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        DominantWeightSpec((0, 0))
    with pytest.raises(ValueError):
        DominantWeightSpec((1, -1))
    assert DominantWeightSpec((1, 0)).j0 == frozenset({1})
    assert DominantWeightSpec((2, 3)).j0 == frozenset()


def test_weight_spec_from_j0():
    spec = DominantWeightSpec.from_j0(3, [1])
    assert spec.mu == (1, 0, 1)
    with pytest.raises(ValueError):
        DominantWeightSpec.from_j0(2, [0, 1])
    with pytest.raises(ValueError):
        DominantWeightSpec.from_j0(2, [5])


def test_connected_components():
    a3 = cartan_matrix("A", 3)
    assert connected_components(set(), a3) == ()
    assert connected_components({0, 1}, cartan_matrix("A", 2)) == (frozenset({0, 1}),)
    assert connected_components({0, 2}, a3) == (frozenset({0}), frozenset({2}))


def test_admissibility():
    a2 = cartan_matrix("A", 2)
    j0 = frozenset({1})
    assert is_admissible(frozenset(), j0, a2)
    assert is_admissible(frozenset({0}), j0, a2)
    assert not is_admissible(frozenset({1}), j0, a2)
    assert is_admissible(frozenset({0, 1}), j0, a2)


def test_canonical_rank2_lattice_has_five_idempotents():
    for letter in ("A", "B", "G"):
        _, lattice = _lattice(letter, 2, (1, 1))
        assert len(lattice) == 5
        assert [e.label for e in lattice] == ["0", "e_0", "e_1", "e_2", "1"]


def test_first_basic_rank2_lattice_has_four_idempotents():
    for letter in ("A", "B", "G"):
        _, lattice = _lattice(letter, 2, (1, 0))
        assert len(lattice) == 4
        assert [e.label for e in lattice] == ["0", "e_0", "e_1", "1"]
        stars = [e.lambda_star for e in lattice.nonzero]
        assert stars == [frozenset(), frozenset({0}), frozenset({0, 1})]


def test_lambda_sub_star_cases():
    a2 = cartan_matrix("A", 2)
    j0 = frozenset({1})
    assert lambda_sub_star(frozenset(), j0, a2) == frozenset({1})
    assert lambda_sub_star(frozenset({0}), j0, a2) == frozenset()
    assert lambda_sub_star(frozenset(), frozenset(), a2) == frozenset()


def test_first_basic_a2_stabilizer_orders():
    _, lattice = _lattice("A", 2, (1, 0))
    e0 = lattice.nonzero[0]
    assert lattice.stabilizer(e0).order == 2
    e1 = lattice.nonzero[1]
    assert lattice.stabilizer(e1).order == 1
    assert lattice.centralizer(lattice.one).order == 6
    assert lattice.stabilizer(lattice.one).order == 1


def test_g2_canonical_centralizers():
    group, lattice = _lattice("G", 2, (1, 1))
    e1 = lattice.nonzero[1]
    assert e1.lambda_star == frozenset({0})
    assert set(lattice.centralizer(e1).members) == {group.identity, group.generators[0]}
    assert lattice.stabilizer(e1).order == 1


def test_zero_conventions():
    _, lattice = _lattice("A", 2, (1, 1))
    zero = lattice.zero
    assert zero.is_zero
    assert lattice.centralizer(zero).order == 6
    assert lattice.stabilizer(zero).order == 6
    assert lattice.star_group(zero).order == 1


def test_centralizer_is_internal_product_of_star_and_stabilizer():
    for letter, weight in [("A", (1, 0)), ("B", (1, 0)), ("G", (1, 1))]:
        group, lattice = _lattice(letter, 2, weight)
        for e in lattice.nonzero:
            cent = lattice.centralizer(e)
            star = lattice.star_group(e)
            stab = lattice.stabilizer(e)
            assert cent.order == star.order * stab.order
            products = {
                group.mul(u, v) for u in star.members for v in stab.members
            }
            assert products == set(cent.members)
            # The stabilizer is normal in the centralizer.
            for w in cent.members:
                for v in stab.members:
                    assert conjugate(group, w, v) in stab


def test_lattice_order():
    _, lattice = _lattice("A", 2, (1, 1))
    zero, e0, e1, e2, one = lattice.idempotents
    assert lattice.leq(zero, e1) and lattice.leq(e0, e1) and lattice.leq(e1, one)
    assert not lattice.leq(e1, e2) and not lattice.leq(e1, e0)
    assert all(lattice.leq(lattice.nonzero[0], f) for f in lattice.nonzero)


def test_closed_form_orders_match_enumeration():
    # Every grid type and every subset J of its simple roots.
    for letter, rank in GRID_TYPES:
        cartan = cartan_matrix(letter, rank)
        group = generate_weyl(cartan, (1,) + (0,) * (rank - 1))
        for size in range(rank + 1):
            for J in itertools.combinations(range(rank), size):
                assert parabolic_order(J, cartan) == parabolic(group, J).order, (letter, J)
    # The lattice's closed-form accessors are the orders of its subgroups.
    for letter, rank, mu in grid_patterns():
        lattice = cached_build_lattice(cartan_matrix(letter, rank), mu)
        assert lattice.weyl_order == lattice.group.order
        for e in lattice:
            assert lattice.centralizer_order(e) == lattice.centralizer(e).order
            assert lattice.stabilizer_order(e) == lattice.stabilizer(e).order


def test_lazy_group_is_made_once_across_threads(monkeypatch):
    calls = []
    original = generate_weyl

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr("renner.crosslat.generate_weyl", counting)
    lattice = build_lattice(cartan_matrix("F", 4), (1, 1, 1, 1))
    assert calls == []
    barrier = threading.Barrier(8)
    seen = []

    def read():
        barrier.wait(timeout=10)
        seen.append((lattice.group, lattice.star_group(lattice.one)))

    threads = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 and len(calls) == 1
    assert len({id(group) for group, _ in seen}) == 1
    # Each request reads its parabolic anew, off the one group's tables.
    assert all(star == seen[0][1] for _, star in seen)
