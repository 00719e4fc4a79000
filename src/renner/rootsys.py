"""Cartan data and Weyl groups acting on a weight orbit.

Weights are plain integer tuples in fundamental-weight coordinates.  A Weyl
group is realized concretely: the orbit of a seed weight under the simple
reflections becomes the vertex set, and every group element is stored as a
permutation of that orbit together with its Coxeter length and its lex-least
reduced word over the simple generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Optional, Sequence, TypeVar

from .errors import InvalidType, SizeCapExceeded

# Large enough for F4, the biggest Weyl group supported at desk scale.
DEFAULT_MAX_GROUP_ORDER = 1152

Weight = tuple[int, ...]
T = TypeVar("T")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_FIXED_RANK = {"F": 4, "G": 2}


def validate_type(letter: str, rank: int) -> None:
    """Raise InvalidType unless the letter and rank name a supported type."""
    if letter in _MIN_RANK:
        if rank < _MIN_RANK[letter]:
            raise InvalidType(
                f"type {letter} requires rank >= {_MIN_RANK[letter]}, got {rank}"
            )
    elif letter in _FIXED_RANK:
        if rank != _FIXED_RANK[letter]:
            raise InvalidType(f"type {letter} requires rank {_FIXED_RANK[letter]}, got {rank}")
    else:
        raise InvalidType(f"unknown type letter {letter!r} (expected one of A, B, C, D, F, G)")


def _order_factors(letter: str, rank: int) -> Sequence[int]:
    """Factors of |W|, each at least 2: (n+1)! for A_n, 2^n n! = 2*4*...*2n
    for B_n and C_n, 2^(n-1) n! = 4*6*...*2n for D_n."""
    if letter == "A":
        return range(2, rank + 2)
    if letter in ("B", "C", "D"):
        return range(4 if letter == "D" else 2, 2 * rank + 1, 2)
    return (1152,) if letter == "F" else (12,)


def standard_weyl_order(letter: str, rank: int) -> int:
    """Order of the Weyl group of the given type, from the classical tables."""
    validate_type(letter, rank)
    return math.prod(_order_factors(letter, rank))


def check_group_cap(letter: str, rank: int, max_order: int) -> None:
    """Refuse a Weyl group of more than ``max_order`` elements from its
    closed-form order.  The product stops once it passes the cap (naming
    that partial product as a lower bound), so the cost is linear in rank."""
    validate_type(letter, rank)
    factors = _order_factors(letter, rank)
    order = 1
    for k, factor in enumerate(factors, 1):
        order *= factor
        if order > max_order:
            bound = "" if k == len(factors) else "at least "
            raise SizeCapExceeded(
                f"Weyl group of order {bound}{order} exceeds the cap {max_order}"
            )


@dataclass(frozen=True)
class CartanMatrix:
    """Integer Cartan matrix.

    Row i is the simple root alpha_i written in fundamental-weight
    coordinates, so reflections act by row subtraction (see ``reflect``).
    """

    letter: str
    rank: int
    rows: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def adjacent(self, i: int, j: int) -> bool:
        """Dynkin-diagram adjacency of the simple roots i and j."""
        return i != j and self.rows[i][j] != 0


def cartan_matrix(letter: str, rank: int) -> CartanMatrix:
    """Cartan matrix of a finite type.

    >>> cartan_matrix("A", 2).rows
    ((2, -1), (-1, 2))
    >>> cartan_matrix("B", 2).rows
    ((2, -1), (-2, 2))
    >>> cartan_matrix("G", 2).rows
    ((2, -1), (-3, 2))
    """
    validate_type(letter, rank)
    m = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 2
    if letter == "D":
        # Chain on the first rank-1 nodes; the last node hangs off node rank-3.
        for i in range(rank - 2):
            m[i][i + 1] = m[i + 1][i] = -1
        m[rank - 3][rank - 1] = m[rank - 1][rank - 3] = -1
    else:
        for i in range(rank - 1):
            m[i][i + 1] = m[i + 1][i] = -1
        if letter == "B":
            m[rank - 1][rank - 2] = -2
        elif letter == "C":
            m[rank - 2][rank - 1] = -2
        elif letter == "F":
            m[2][1] = -2
        elif letter == "G":
            m[1][0] = -3
    return CartanMatrix(letter, rank, tuple(tuple(row) for row in m))


def reflect(cartan: CartanMatrix, i: int, v: Sequence[int]) -> Weight:
    """Apply the simple reflection s_i to v in fundamental-weight coordinates.

    s_i(v) = v - v[i] * alpha_i, and row i of the Cartan matrix is alpha_i in
    these coordinates.  Vectors with v[i] == 0 are fixed.

    >>> reflect(cartan_matrix("A", 2), 0, (1, 0))
    (-1, 1)
    >>> reflect(cartan_matrix("G", 2), 1, (0, 1))
    (3, -1)
    """
    c = v[i]
    row = cartan.rows[i]
    return tuple(x - c * a for x, a in zip(v, row))


def bfs_orbit(
    start: T,
    moves: Sequence[Callable[[T], T]],
    *,
    key: Optional[Callable[[T], Hashable]] = None,
    max_size: Optional[int] = None,
    what: str = "orbit",
) -> tuple[T, ...]:
    """Everything reachable from ``start`` by repeated ``moves``, in
    breadth-first discovery order (moves tried in the order given).  Items
    are told apart by ``key`` (default: the item itself) and the first one
    reaching a key is kept; growing past ``max_size`` raises SizeCapExceeded.

    >>> bfs_orbit(0, [lambda x: (x + 2) % 6, lambda x: (x + 3) % 6])
    (0, 2, 3, 4, 5, 1)
    """
    seen = {start if key is None else key(start)}
    order = [start]
    for x in order:  # grows while we iterate
        for move in moves:
            y = move(x)
            k = y if key is None else key(y)
            if k not in seen:
                if max_size is not None and len(order) >= max_size:
                    raise SizeCapExceeded(f"{what} exceeds the cap {max_size}")
                seen.add(k)
                order.append(y)
    return tuple(order)


def weight_orbit(
    cartan: CartanMatrix, seed: Sequence[int], max_size: int = DEFAULT_MAX_GROUP_ORDER
) -> tuple[Weight, ...]:
    """Orbit of ``seed`` under the Weyl group, in BFS order (seed first)."""
    start = tuple(seed)
    moves = [partial(reflect, cartan, i) for i in range(cartan.rank)]
    return bfs_orbit(start, moves, max_size=max_size, what="weight orbit")


@dataclass(frozen=True)
class WeylElement:
    """A group element: permutation of the vertex orbit, Coxeter length, and
    the lex-least reduced word (0-based generator indices)."""

    perm: tuple[int, ...]
    length: int
    word: tuple[int, ...]

    def canonical_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.length, self.word)


class WeylGroup:
    """A Weyl group realized as permutations of a weight orbit.

    ``elements`` is in BFS order from the identity, which coincides with
    sorting by (length, lex-least reduced word).  Products of elements are
    resolved through a permutation table, so every product is one of the
    stored canonical elements.
    """

    def __init__(
        self,
        cartan: CartanMatrix,
        vertex_orbit: tuple[Weight, ...],
        elements: tuple[WeylElement, ...],
        generators: tuple[WeylElement, ...],
    ):
        self.cartan = cartan
        self.vertex_orbit = vertex_orbit
        self.elements = elements
        self.generators = generators
        self.identity = elements[0]
        self._by_perm = {w.perm: w for w in elements}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def degree(self) -> int:
        return len(self.vertex_orbit)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, w: WeylElement) -> bool:
        return self._by_perm.get(w.perm) == w

    def mul(self, a: WeylElement, b: WeylElement) -> WeylElement:
        """Product a*b, acting as b first (function composition)."""
        return self._by_perm[tuple(a.perm[x] for x in b.perm)]

    def inv(self, a: WeylElement) -> WeylElement:
        p = [0] * len(a.perm)
        for i, ai in enumerate(a.perm):
            p[ai] = i
        return self._by_perm[tuple(p)]

    def conjugate(self, w: WeylElement, x: WeylElement) -> WeylElement:
        """w x w^{-1}."""
        return self.mul(self.mul(w, x), self.inv(w))

    def from_word(self, word: Iterable[int]) -> WeylElement:
        el = self.identity
        for i in word:
            el = self.mul(el, self.generators[i])
        return el


def generate_weyl(
    cartan: CartanMatrix, seed: Sequence[int], max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> WeylGroup:
    """Generate the Weyl group as permutations of the orbit of ``seed``.

    BFS from the identity assigns each element its Coxeter length and the
    lex-least reduced word: layers are expanded in discovery order with
    generators tried in increasing index, so within a layer candidates appear
    in lex order and the first word reaching an element is its minimum.
    That order, (length, lex-least word), is a property of the Coxeter
    group, so two faithful realizations list the same words index by index.

    If the seed orbit is not regular the result is the image of the Weyl
    group in the symmetric group of the orbit, which may be a proper
    quotient; callers that need faithfulness must check the order.
    """
    orbit = weight_orbit(cartan, seed, max_size=max_order)
    index = {v: k for k, v in enumerate(orbit)}
    gen_perms = [
        tuple(index[reflect(cartan, i, v)] for v in orbit) for i in range(cartan.rank)
    ]

    # Items are (perm, word) pairs told apart by the perm; the word that
    # first reaches a perm is its lex-least reduced word.
    def times(i: int, g: tuple[int, ...]) -> Callable[[tuple], tuple]:
        return lambda item: (tuple(item[0][x] for x in g), item[1] + (i,))

    start = (tuple(range(len(orbit))), ())
    moves = [times(i, g) for i, g in enumerate(gen_perms)]
    found = bfs_orbit(start, moves, key=itemgetter(0), max_size=max_order, what="Weyl group")
    elements = tuple(WeylElement(perm, len(word), word) for perm, word in found)
    by_perm = {w.perm: w for w in elements}
    generators = tuple(by_perm[g] for g in gen_perms)
    return WeylGroup(cartan, orbit, elements, generators)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a Weyl group generated by a subset of the simple
    reflections, with members sorted by (length, word)."""

    parent: WeylGroup
    generator_indices: frozenset[int]
    members: tuple[WeylElement, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def member_set(self) -> frozenset[WeylElement]:
        return frozenset(self.members)

    def __contains__(self, w: WeylElement) -> bool:
        return w in self.member_set


def parabolic(group: WeylGroup, indices: Iterable[int]) -> Subgroup:
    """Standard parabolic subgroup generated by the given simple reflections:
    the elements whose stored reduced word uses only letters of J (then every
    reduced word does).  Needs a faithful realization, as ``build_lattice``
    checks, so that the stored words are reduced in W itself."""
    J = frozenset(indices)
    return Subgroup(group, J, tuple(w for w in group.elements if J.issuperset(w.word)))


def left_cosets(sub: Subgroup) -> tuple[tuple[WeylElement, ...], dict[WeylElement, int]]:
    """Tile the parent group by the left cosets w*W_J of a parabolic.

    Returns the minimal-length member of each coset, in (length, word)
    order, and the position of every group element's coset in that list.
    """
    group = sub.parent
    coset_of: dict[WeylElement, int] = {}
    reps: list[WeylElement] = []
    for w in group.elements:  # (length, word) order: first hit is the min rep
        if w in coset_of:
            continue
        coset_of.update((group.mul(w, h), len(reps)) for h in sub.members)
        reps.append(w)
    return tuple(reps), coset_of


def min_coset_reps(group: WeylGroup, indices: Iterable[int]) -> tuple[WeylElement, ...]:
    """One element per left coset w*W_J: its unique minimal-length member.

    Listed in (length, word) order.  For J empty this is the whole group;
    for J the full index set it is just the identity.
    """
    return left_cosets(parabolic(group, indices))[0]


def group_conjugacy_classes(sub: Subgroup) -> tuple[tuple[WeylElement, ...], ...]:
    """Conjugation orbits of the subgroup acting on itself, each closed by
    ``bfs_orbit`` under conjugation by the subgroup's simple generators.

    Each class is sorted by (length, word) and classes are ordered by their
    least member, so ``cls[0]`` is the canonical representative.  The
    representation count reads it; the Munn classes do not, so the two
    check each other.
    """
    group = sub.parent
    moves = [partial(group.conjugate, group.generators[j]) for j in sorted(sub.generator_indices)]
    seen: set[WeylElement] = set()
    classes = []
    for x in sub.members:
        if x in seen:
            continue
        orbit = bfs_orbit(x, moves)
        seen.update(orbit)
        classes.append(tuple(sorted(orbit, key=WeylElement.canonical_key)))
    return tuple(classes)
