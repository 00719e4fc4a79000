import functools
import itertools
import sys

import pytest

from renner import PartialInjection, SizeCapExceeded, build_lattice, build_renner, cartan_matrix
from renner import rootsys

# Every supported type whose Weyl group fits the default cap.
GRID_TYPES = [("A", r) for r in range(1, 6)] + [
    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
    ("D", 3), ("D", 4), ("F", 4), ("G", 2),
]


def grid_patterns():
    """(letter, rank, mu) for every grid type and every 0/1 weight but the
    zero weight: 147 configurations."""
    for letter, rank in GRID_TYPES:
        for mu in itertools.product((1, 0), repeat=rank):
            if any(mu):
                yield letter, rank, mu


# The six monoids of the benchmark's build-export workload, |R| 1.8k-21k,
# degree 6-48: past the grid's cap, so their exports get their own checks.
EXPORT_CONFIGS = (
    ("A3", "1,1,1"), ("B3", "1,1,1"), ("D4", "1,0,0,0"),
    ("B4", "0,0,0,1"), ("A5", "0,0,0,0,1"), ("A4", "0,1,0,1"),
)


# A lattice never changes once made (its group is made once, on first use),
# so one per configuration serves every test that asks for it, through the
# CLI (patched in) or directly.
cached_build_lattice = functools.cache(build_lattice)


def rebind_everywhere(monkeypatch, name, replacement, modules):
    """Rebind the ``rootsys`` function ``name`` to ``replacement`` in each
    of ``modules``, which must be every loaded ``renner`` module that binds
    it: a module importing the name directly would otherwise keep calling
    the original, and a check on the replacement's calls would pass unseen."""
    original = getattr(rootsys, name)
    binding = {
        key for key, module in sys.modules.items()
        if key.split(".")[0] == "renner" and getattr(module, name, None) is original
    }
    assert binding == {module.__name__ for module in modules}, sorted(binding)
    for module in modules:
        monkeypatch.setattr(module, name, replacement)


def make_monoid(letter, rank, weight, **kwargs):
    return build_renner(cartan_matrix(letter, rank), weight, **kwargs)


def zero_map(degree):
    """The empty map on ``degree`` points."""
    return PartialInjection.from_targets([None] * degree)


def mask_points(mask):
    """The points of a face given by its 0/1 mask, as ``FaceLayout.faces``
    keys it."""
    return frozenset(i for i, bit in enumerate(mask) if bit)


def identity_map(degree):
    return PartialInjection.from_targets(range(degree))


def from_pairs(degree, pairs):
    """The map sending s to t for each (s, t) in ``pairs``."""
    targets = [None] * degree
    for s, t in pairs:
        if not 0 <= s < degree or targets[s] is not None:
            raise ValueError(f"bad or repeated source {s}")
        targets[s] = t
    return PartialInjection.from_targets(targets)


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
