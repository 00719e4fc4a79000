"""Cartan data and Weyl groups acting on a weight orbit.

Weights are plain integer tuples in fundamental-weight coordinates.  A Weyl
group is realized concretely: the orbit of a seed weight under the simple
reflections becomes the vertex set, and every group element is stored as a
permutation of that orbit together with its Coxeter length and its lex-least
reduced word over the simple generators, and is named by its position in
the group's index tables of products with simple reflections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence, TypeVar

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

    @cached_property
    def neighbours(self) -> tuple[int, ...]:
        """Bit j of entry i is set when the simple roots i and j are
        adjacent; made once per matrix.

        >>> cartan_matrix("A", 3).neighbours
        (2, 5, 2)
        """
        rank = self.rank
        return tuple(
            sum(1 << j for j in range(rank) if self.adjacent(i, j)) for i in range(rank)
        )


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
    max_size: Optional[int] = None,
    what: str = "orbit",
) -> tuple[T, ...]:
    """Everything reachable from ``start`` by repeated ``moves``, in
    breadth-first discovery order (moves tried in the order given); growing
    past ``max_size`` raises SizeCapExceeded.

    >>> bfs_orbit(0, [lambda x: (x + 2) % 6, lambda x: (x + 3) % 6])
    (0, 2, 3, 4, 5, 1)
    """
    seen = {start}
    order = [start]
    for x in order:  # grows while we iterate
        for move in moves:
            y = move(x)
            if y not in seen:
                if max_size is not None and len(order) >= max_size:
                    raise SizeCapExceeded(f"{what} exceeds the cap {max_size}")
                seen.add(y)
                order.append(y)
    return tuple(order)


def weight_orbit(
    cartan: CartanMatrix, seed: Sequence[int], max_size: int = DEFAULT_MAX_GROUP_ORDER
) -> tuple[Weight, ...]:
    """Orbit of ``seed`` under the Weyl group, in BFS order (seed first)."""
    start = tuple(seed)
    moves = [partial(reflect, cartan, i) for i in range(cartan.rank)]
    return bfs_orbit(start, moves, max_size=max_size, what="weight orbit")


def reflection_perms(cartan: CartanMatrix, orbit: Sequence[Weight]) -> list[tuple[int, ...]]:
    """Each simple reflection s_i as a permutation of a W-stable ``orbit``:
    entry x is the position of s_i(orbit[x]).

    >>> reflection_perms(cartan_matrix("A", 2), weight_orbit(cartan_matrix("A", 2), (1, 0)))
    [(1, 0, 2), (0, 2, 1)]
    """
    vertex = {v: k for k, v in enumerate(orbit)}
    return [tuple(vertex[reflect(cartan, i, v)] for v in orbit) for i in range(cartan.rank)]


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
    sorting by (length, lex-least reduced word); an element's position there
    names it in the index tables.  ``right[i][k]`` is the position of
    w_k s_i and ``left[i][k]`` that of s_i w_k, so products with simple
    reflections are list lookups.  ``steps[k - 1]`` is the BFS tree edge
    (p, j) to element k > 0: w_k = w_p s_j with p < k.  Other products are
    resolved through the one permutation index the BFS built, so every
    product is one of the stored canonical elements.  Everything is fixed
    at construction.
    """

    def __init__(
        self,
        cartan: CartanMatrix,
        vertex_orbit: tuple[Weight, ...],
        elements: tuple[WeylElement, ...],
        index: dict[tuple[int, ...], int],
        right: tuple[tuple[int, ...], ...],
        steps: tuple[tuple[int, int], ...],
    ):
        self.cartan = cartan
        self.vertex_orbit = vertex_orbit
        self.elements = elements
        self.right = right
        self.generators = tuple(elements[row[0]] for row in right)
        self.identity = elements[0]
        self.steps = steps
        self._index = index
        # Element k > 0 is w_p s_j for its step (p, j), and s_i (w_p s_j) =
        # (s_i w_p) s_j, so each entry of left is one right lookup on an
        # entry made before it.
        left = []
        for times_s in right:
            row = [times_s[0]]  # s_i times the identity
            for p, j in steps:
                row.append(right[j][row[p]])
            left.append(tuple(row))
        self.left = tuple(left)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def degree(self) -> int:
        return len(self.vertex_orbit)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, w: WeylElement) -> bool:
        k = self._index.get(w.perm)
        return k is not None and self.elements[k] == w

    def mul(self, a: WeylElement, b: WeylElement) -> WeylElement:
        """Product a*b, acting as b first (function composition)."""
        return self.elements[self._index[tuple(a.perm[x] for x in b.perm)]]

    def inv(self, a: WeylElement) -> WeylElement:
        p = [0] * len(a.perm)
        for i, ai in enumerate(a.perm):
            p[ai] = i
        return self.elements[self._index[tuple(p)]]



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
    The BFS runs on element positions: expanding element k records
    ``right[i][k]``, the position of w_k s_i, and each new element's step.

    If the seed orbit is not regular the result is the image of the Weyl
    group in the symmetric group of the orbit, which may be a proper
    quotient; callers that need faithfulness must check the order.
    """
    orbit = weight_orbit(cartan, seed, max_size=max_order)
    gen_perms = reflection_perms(cartan, orbit)
    identity = tuple(range(len(orbit)))
    perms, words, steps = [identity], [()], []
    index = {identity: 0}
    right: list[list[int]] = [[] for _ in gen_perms]
    # w_k s_i as one C call: itemgetter(*g)(perm) is (perm[g[0]], perm[g[1]],
    # ...); a one-point orbit's only permutation is fixed by every move.
    moves = [itemgetter(*g) if len(g) > 1 else tuple for g in gen_perms]
    for k, perm in enumerate(perms):  # grows while we iterate
        for i, move in enumerate(moves):
            p = move(perm)
            j = index.get(p)
            if j is None:
                j = len(perms)
                if j >= max_order:
                    raise SizeCapExceeded(f"Weyl group exceeds the cap {max_order}")
                index[p] = j
                perms.append(p)
                words.append(words[k] + (i,))
                steps.append((k, i))
            right[i].append(j)
    elements = tuple(WeylElement(p, len(w), w) for p, w in zip(perms, words))
    return WeylGroup(cartan, orbit, elements, index, tuple(map(tuple, right)), tuple(steps))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a Weyl group generated by a subset of the simple
    reflections: its members sorted by (length, word), and their positions
    in the parent's ``elements``, ascending."""

    parent: WeylGroup
    generator_indices: frozenset[int]
    members: tuple[WeylElement, ...]
    positions: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, w: WeylElement) -> bool:
        """Read off the stored reduced word: every reduced word of a member
        uses only the generators' letters."""
        return w in self.parent and self.generator_indices.issuperset(w.word)


def parabolic(group: WeylGroup, indices: Iterable[int]) -> Subgroup:
    """Standard parabolic subgroup generated by the given simple reflections:
    the BFS closure of the identity under right multiplication by them, read
    from ``group.right``.  Moves tried in increasing index give (length,
    lex-least word) order, as in ``generate_weyl``: a reduced word of a
    member of W_J uses only letters of J, so its least reduced word over J
    is its least over all generators.  Needs a faithful realization, as the
    lattice checks, so that lengths are those of W itself."""
    J = frozenset(indices)
    positions = bfs_orbit(0, [group.right[j].__getitem__ for j in sorted(J)])
    return Subgroup(group, J, tuple(map(group.elements.__getitem__, positions)), positions)


def group_conjugacy_classes(sub: Subgroup) -> tuple[tuple[WeylElement, ...], ...]:
    """Conjugation orbits of the subgroup acting on itself, each closed by
    ``bfs_orbit`` on element positions under conjugation by the subgroup's
    simple generators: s_j w_k s_j is at ``left[j][right[j][k]]``.

    Each class is sorted by (length, word) and classes are ordered by their
    least member, so ``cls[0]`` is the canonical representative.  The
    representation count reads it; the Munn classes do not, so the two
    check each other.
    """
    group = sub.parent
    left, right, elements = group.left, group.right, group.elements

    def conjugation(j: int) -> Callable[[int], int]:
        s_times, times_s = left[j], right[j]
        return lambda k: s_times[times_s[k]]

    moves = [conjugation(j) for j in sorted(sub.generator_indices)]
    seen: set[int] = set()
    classes = []
    for k in sub.positions:  # ascending, so each class starts at its least
        if k in seen:
            continue
        orbit = bfs_orbit(k, moves)
        seen.update(orbit)
        classes.append(tuple(elements[m] for m in sorted(orbit)))
    return tuple(classes)
