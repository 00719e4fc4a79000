import pytest

from conftest import from_pairs, identity_map, zero_map
from oracles import all_partial_injections
from renner import (
    PartialInjection,
    compose,
    inverse,
    invertible_part,
    stable_domain,
)

R3 = all_partial_injections(3)


def test_enumeration_count():
    # Square-of-binomial count of partial injections on m points.
    assert len(R3) == 34
    assert len(all_partial_injections(2)) == 7


def test_constructor_validation():
    # The old tuple form fails loudly rather than being read as a code.
    with pytest.raises(TypeError):
        PartialInjection((1, 0, 2))
    for code in (
        bytes([1, 0, 2, 2]),  # the last byte is not the degree 3
        bytes([1, 4, 2, 3]),  # a target above the degree
        bytes([1, 1, 2, 3]),  # a repeated target
        b"",
    ):
        with pytest.raises(ValueError):
            PartialInjection(code)
    assert PartialInjection(bytes([1, 3, 0, 3])).to_pairs() == [[0, 1], [2, 0]]
    with pytest.raises(ValueError):
        PartialInjection.from_targets((0, 0, None))
    with pytest.raises(ValueError):
        PartialInjection.from_targets((3, None, None))
    # A byte code holds at most 255 points besides "undefined".
    assert PartialInjection.from_targets(range(255)).degree == 255
    with pytest.raises(ValueError):
        PartialInjection.from_targets(range(256))
    with pytest.raises(ValueError):
        PartialInjection.partial_identity(3, [0, 7])
    # A negative degree is refused, not read as degree 0.
    with pytest.raises(ValueError):
        PartialInjection.partial_identity(-1, [])


def _as_dict(sigma):
    return dict(map(tuple, sigma.to_pairs()))


def _from_dict(degree, mapping):
    return from_pairs(degree, mapping.items())


@pytest.mark.parametrize("degree", [3, 4])
def test_compose_and_inverse_match_a_pair_reference(degree):
    maps = all_partial_injections(degree)
    assert len(maps) == {3: 34, 4: 209}[degree]
    as_dicts = [_as_dict(sigma) for sigma in maps]
    for tau, t in zip(maps, as_dicts):
        for sigma, s in zip(maps, as_dicts):
            after = {i: t[j] for i, j in s.items() if j in t}
            assert compose(tau, sigma) == _from_dict(degree, after)
    for sigma, s in zip(maps, as_dicts):
        assert inverse(sigma) == _from_dict(degree, {j: i for i, j in s.items()})


def test_identity_and_zero_laws():
    one = identity_map(3)
    zero = zero_map(3)
    for sigma in R3:
        assert compose(one, sigma) == sigma
        assert compose(sigma, one) == sigma
        assert compose(zero, sigma) == zero
        assert compose(sigma, zero) == zero


def test_partial_identities_meet():
    e01 = PartialInjection.partial_identity(4, [0, 1])
    e12 = PartialInjection.partial_identity(4, [1, 2])
    assert compose(e01, e12) == PartialInjection.partial_identity(4, [1])
    assert compose(e12, e01) == PartialInjection.partial_identity(4, [1])


def test_inverse_examples():
    e = PartialInjection.partial_identity(5, [1, 3])
    assert inverse(e) == e
    one = identity_map(4)
    assert inverse(one) == one
    s = from_pairs(6, [(0, 4), (1, 3)])
    assert inverse(s) == from_pairs(6, [(4, 0), (3, 1)])


def test_inverse_composition_gives_partial_identities():
    for sigma in R3:
        assert compose(sigma, inverse(sigma)) == PartialInjection.partial_identity(
            3, sigma.image
        )
        assert compose(inverse(sigma), sigma) == PartialInjection.partial_identity(
            3, sigma.domain
        )


def test_inverse_semigroup_axioms_exhaustive():
    for sigma in R3:
        inv = inverse(sigma)
        assert compose(sigma, compose(inv, sigma)) == sigma
        assert compose(inv, compose(sigma, inv)) == inv
    # Uniqueness of the inverse across the whole monoid.
    for sigma in R3:
        inverses = [
            tau
            for tau in R3
            if compose(sigma, compose(tau, sigma)) == sigma
            and compose(tau, compose(sigma, tau)) == tau
        ]
        assert inverses == [inverse(sigma)]


def test_associativity_exhaustive_on_r3():
    for a in R3:
        for b in R3:
            ab = compose(a, b)
            for c in R3:
                assert compose(ab, c) == compose(a, compose(b, c))


def test_invertible_part_six_point_example():
    sigma = from_pairs(6, [(0, 4), (4, 5), (5, 0), (1, 3)])
    assert stable_domain(sigma) == frozenset({0, 4, 5})
    part = invertible_part(sigma)
    assert part == from_pairs(6, [(0, 4), (4, 5), (5, 0)])
    assert part.domain == part.image == frozenset({0, 4, 5})


def test_invertible_part_fixed_cases():
    e = PartialInjection.partial_identity(4, [1, 2])
    assert invertible_part(e) == e
    unit = PartialInjection.from_targets((2, 0, 1, 3))
    assert invertible_part(unit) == unit
    nilpotent = from_pairs(3, [(0, 1)])
    assert invertible_part(nilpotent) == zero_map(3)
    # At the byte limit: a 200-cycle beside a 55-point chain running off the
    # domain (its last point undefined), and a single 255-cycle.
    cycle = [(i, (i + 1) % 200) for i in range(200)]
    chain = [(i, i + 1) for i in range(200, 254)]
    sigma = from_pairs(255, cycle + chain)
    assert invertible_part(sigma) == from_pairs(255, cycle)
    assert stable_domain(sigma) == frozenset(range(200))
    full = PartialInjection.from_targets((i + 1) % 255 for i in range(255))
    assert invertible_part(full) == full


def naive_stable_domain(sigma):
    """Points still defined after ``degree`` steps of sigma, walked one by one."""
    stable = set()
    for start in range(sigma.degree):
        i = start
        for _ in range(sigma.degree):
            i = sigma(i)
            if i is None:
                break
        else:
            stable.add(start)
    return frozenset(stable)


def test_invertible_part_is_bijection_of_stable_domain():
    # Every partial injection on 0 to 5 points.
    for degree in range(6):
        for sigma in all_partial_injections(degree):
            naive = naive_stable_domain(sigma)
            part = invertible_part(sigma)
            assert part.domain == part.image == stable_domain(sigma) == naive
            assert part == compose(sigma, PartialInjection.partial_identity(degree, naive))


def test_pairs_roundtrip():
    for sigma in R3:
        pairs = sigma.to_pairs()
        assert pairs == sorted(pairs)
        assert from_pairs(3, [tuple(p) for p in pairs]) == sigma


def test_points_outside_the_degree_are_refused():
    s = PartialInjection.from_targets([1, 0, None])
    assert [s(i) for i in range(3)] == [1, 0, None]
    # Negative points would wrap into the code, and 3 would read its last
    # byte ("undefined").
    for point in (-1, -3, 3, 4):
        with pytest.raises(IndexError):
            s(point)
    with pytest.raises(IndexError):
        zero_map(0)(0)
