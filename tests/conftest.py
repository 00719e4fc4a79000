import itertools

import pytest

from renner import SizeCapExceeded, build_renner, cartan_matrix


def make_monoid(letter, rank, weight, **kwargs):
    return build_renner(cartan_matrix(letter, rank), weight, **kwargs)


@pytest.fixture(scope="session")
def canonical_a2():
    return make_monoid("A", 2, (1, 1))


@pytest.fixture(scope="session")
def canonical_b2():
    return make_monoid("B", 2, (1, 1))


@pytest.fixture(scope="session")
def canonical_g2():
    return make_monoid("G", 2, (1, 1))


@pytest.fixture(scope="session")
def basic_a1():
    return make_monoid("A", 1, (1,))


@pytest.fixture(scope="session")
def basic_a2():
    return make_monoid("A", 2, (1, 0))


@pytest.fixture(scope="session")
def basic_b2():
    return make_monoid("B", 2, (1, 0))


@pytest.fixture(scope="session")
def basic_g2():
    return make_monoid("G", 2, (1, 0))


@pytest.fixture(scope="session")
def acceptance_monoids(
    canonical_a2, canonical_b2, canonical_g2, basic_a2, basic_b2, basic_g2
):
    """The six monoids the acceptance criteria quantify over."""
    return [
        ("canonical A2", canonical_a2),
        ("canonical B2", canonical_b2),
        ("canonical G2", canonical_g2),
        ("first basic A2", basic_a2),
        ("first basic B2", basic_b2),
        ("first basic G2", basic_g2),
    ]


@pytest.fixture(scope="session")
def small_grid():
    """Every type of rank <= 3 with every zero pattern whose monoid has at
    most 5000 elements, as (config, monoid) pairs, and the configs above."""
    built, skipped = [], []
    for letter, rank in (
        ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
        ("D", 3), ("G", 2),
    ):
        for mu in itertools.product((1, 0), repeat=rank):
            if not any(mu):
                continue
            config = f"{letter}{rank}{mu}"
            try:
                built.append((config, make_monoid(letter, rank, mu, max_monoid_order=5000)))
            except SizeCapExceeded:
                skipped.append(config)
    return built, skipped
