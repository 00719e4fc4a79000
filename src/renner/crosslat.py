"""Cross-section lattices of J-irreducible Renner monoids.

The lattice is determined by the zero pattern J0 of a dominant weight: the
nonzero idempotents correspond to the subsets of the simple roots with no
connected Dynkin component inside J0, ordered by inclusion, below a top
element (the monoid identity) and above a zero.  Each idempotent carries its
type-map data (lambda_star, lambda_sub); its faces on the weight orbit belong
to the monoid.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import ConstructionError, FaithfulnessError
from .rootsys import (
    DEFAULT_MAX_GROUP_ORDER,
    CartanMatrix,
    Subgroup,
    WeylGroup,
    _order_factors,
    check_group_cap,
    generate_weyl,
    parabolic,
    standard_weyl_order,
)


@dataclass(frozen=True)
class DominantWeightSpec:
    """A dominant nonzero weight; the lattice reads only its zero pattern."""

    mu: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(self.mu))
        if not self.mu or all(c == 0 for c in self.mu):
            raise ValueError("weight must be nonzero")
        if any(c < 0 for c in self.mu):
            raise ValueError("weight must be dominant (no negative coordinates)")

    @property
    def j0(self) -> frozenset[int]:
        """Indices of the simple roots pairing to zero with the weight."""
        return frozenset(i for i, c in enumerate(self.mu) if c == 0)

    @classmethod
    def from_j0(cls, rank: int, zero_indices: Iterable[int]) -> "DominantWeightSpec":
        """Build the 0/1 weight whose zero pattern is the given index set."""
        zero = set(zero_indices)
        if not zero <= set(range(rank)):
            raise ValueError(f"zero-pattern indices must lie in 0..{rank - 1}")
        if len(zero) == rank:
            raise ValueError("the zero pattern cannot cover every simple root")
        return cls(tuple(0 if i in zero else 1 for i in range(rank)))


@dataclass(frozen=True)
class CrossIdempotent:
    """An idempotent of the cross-section lattice, given by its type-map
    data.  The zero idempotent has empty lambda data; the subgroup
    accessors on the lattice apply the usual conventions for it.
    """

    index: int
    label: str
    lambda_star: frozenset[int]
    lambda_sub: frozenset[int]
    is_zero: bool

    @property
    def lambda_set(self) -> frozenset[int]:
        return self.lambda_star | self.lambda_sub


def connected_components(
    subset: Iterable[int], cartan: CartanMatrix
) -> tuple[frozenset[int], ...]:
    """Connected pieces of the induced Dynkin subdiagram, by least node.

    >>> from renner.rootsys import cartan_matrix
    >>> connected_components({0, 2}, cartan_matrix("A", 3))
    (frozenset({0}), frozenset({2}))
    """
    neighbours = cartan.neighbours
    remaining = 0
    for i in subset:
        remaining |= 1 << i
    parts = []
    while remaining:
        start = (remaining & -remaining).bit_length() - 1  # the least node left
        remaining ^= 1 << start
        comp = [start]
        for i in comp:  # grows while we iterate
            found = neighbours[i] & remaining
            remaining ^= found
            while found:
                low = found & -found
                comp.append(low.bit_length() - 1)
                found ^= low
        parts.append(frozenset(comp))
    return tuple(parts)


def component_order(component: frozenset[int], cartan: CartanMatrix) -> int:
    """Order of the Weyl group of one connected piece of the Dynkin diagram,
    typed from its Cartan submatrix (Bourbaki's plates): a bond product
    a_ij a_ji of 3 is G2; one of 2 is F4 when the piece is all four nodes of
    F, else B or C (same order); a node of degree 3 is D; anything else is A.

    >>> from renner.rootsys import cartan_matrix
    >>> component_order(frozenset(range(4)), cartan_matrix("F", 4))
    1152
    >>> component_order(frozenset({0, 1}), cartan_matrix("B", 3))
    6
    """
    rows = cartan.rows
    bonds = {rows[i][j] * rows[j][i] for i in component for j in component if i != j}
    if 3 in bonds:
        letter = "G"
    elif 2 in bonds:
        letter = "F" if cartan.letter == "F" and len(component) == 4 else "B"
    elif any(sum(cartan.adjacent(i, j) for j in component) == 3 for i in component):
        letter = "D"
    else:
        letter = "A"
    return math.prod(_order_factors(letter, len(component)))


def parabolic_order(subset: Iterable[int], cartan: CartanMatrix) -> int:
    """|W_J|, the product of its connected pieces' orders; no group is made.

    >>> from renner.rootsys import cartan_matrix
    >>> d4 = cartan_matrix("D", 4)
    >>> parabolic_order({0, 1, 3}, d4), parabolic_order({0, 2, 3}, d4)
    (24, 8)
    """
    return math.prod(component_order(c, cartan) for c in connected_components(subset, cartan))


def is_admissible(subset: frozenset[int], j0: frozenset[int], cartan: CartanMatrix) -> bool:
    """True when no connected component of the subset lies inside j0."""
    return all(not comp <= j0 for comp in connected_components(subset, cartan))


def lambda_sub_star(
    lambda_star: frozenset[int], j0: frozenset[int], cartan: CartanMatrix
) -> frozenset[int]:
    """Members of j0 outside lambda_star whose reflections commute with all of
    lambda_star's, i.e. with zero Cartan pairing against every member."""
    return frozenset(
        a
        for a in j0 - lambda_star
        if all(not cartan.adjacent(a, b) for b in lambda_star)
    )


def _face_label(lambda_star: frozenset[int], rank: int) -> str:
    if len(lambda_star) == rank:
        return "1"
    if not lambda_star:
        return "e_0"
    return "e_" + "".join(str(i + 1) for i in sorted(lambda_star))


class CrossSectionLattice:
    """Idempotent cross-section of a J-irreducible Renner monoid.

    ``idempotents`` starts with the zero, then the admissible sets ordered by
    (size, indices); the top (the monoid identity) comes last.  The order on
    nonzero idempotents is lambda_star inclusion (``monoid.face_layout``
    checks that it agrees with face inclusion, the idempotent-product
    order).

    The centralizer and stabilizer orders, and so the stratum sizes and
    |R|, are closed-form products over Dynkin components, fixed at
    construction: a lattice query or a cap check makes no group.  The Weyl
    group is made when first asked for, once, under the lattice's lock; a
    parabolic subgroup is read off its tables on each request.  The lattice
    is safe to share.
    """

    def __init__(
        self,
        cartan: CartanMatrix,
        weight_spec: DominantWeightSpec,
        idempotents: tuple[CrossIdempotent, ...],
    ):
        self.cartan = cartan
        self.weight_spec = weight_spec
        self.idempotents = idempotents
        self.zero = idempotents[0]
        self.one = idempotents[-1]
        self.weyl_order = standard_weyl_order(cartan.letter, cartan.rank)
        index_sets = {J for e in self.nonzero for J in (e.lambda_set, e.lambda_sub)}
        self._orders = {J: parabolic_order(J, cartan) for J in index_sets}
        self._group: Optional[WeylGroup] = None
        self._lock = threading.Lock()
        self._verify()

    @property
    def group(self) -> WeylGroup:
        """W on the orbit of the first fundamental weight (at most 24
        points), generated on first access and checked to act faithfully,
        so that the subgroups' stored words are reduced in W itself."""
        if self._group is None:
            with self._lock:
                if self._group is None:
                    self._group = _faithful_group(self.cartan)
        return self._group

    @property
    def nonzero(self) -> tuple[CrossIdempotent, ...]:
        return self.idempotents[1:]

    def __len__(self) -> int:
        return len(self.idempotents)

    def __iter__(self):
        return iter(self.idempotents)

    def leq(self, e: CrossIdempotent, f: CrossIdempotent) -> bool:
        """Lattice order: zero below everything, else lambda_star inclusion."""
        if e.is_zero:
            return True
        if f.is_zero:
            return False
        return e.lambda_star <= f.lambda_star

    def centralizer(self, e: CrossIdempotent) -> Subgroup:
        """The units commuting with e; the whole group for e = 0."""
        if e.is_zero:
            return parabolic(self.group, range(self.cartan.rank))
        return parabolic(self.group, e.lambda_set)

    def stabilizer(self, e: CrossIdempotent) -> Subgroup:
        """The units w with w*e = e; everything kills zero, so the whole
        group for e = 0."""
        if e.is_zero:
            return parabolic(self.group, range(self.cartan.rank))
        return parabolic(self.group, e.lambda_sub)

    def star_group(self, e: CrossIdempotent) -> Subgroup:
        """The lambda_star parabolic; trivial for e = 0."""
        if e.is_zero:
            return parabolic(self.group, ())
        return parabolic(self.group, e.lambda_star)

    def centralizer_order(self, e: CrossIdempotent) -> int:
        """|W(e)|, the order of ``centralizer(e)``, in closed form."""
        return self.weyl_order if e.is_zero else self._orders[e.lambda_set]

    def stabilizer_order(self, e: CrossIdempotent) -> int:
        """|W_*(e)|, the order of ``stabilizer(e)``, in closed form."""
        return self.weyl_order if e.is_zero else self._orders[e.lambda_sub]

    def stratum_size(self, e: CrossIdempotent) -> int:
        """|W e W| = |W|^2 / (|W(e)| * |W_*(e)|), by the Renner
        decomposition; the zero's conventions (both subgroups are W) give 1."""
        w = self.weyl_order
        return (w // self.centralizer_order(e)) * (w // self.stabilizer_order(e))

    @property
    def monoid_order(self) -> int:
        """|R|, the stratum sizes summed over the lattice."""
        return sum(self.stratum_size(e) for e in self.idempotents)

    def _verify(self) -> None:
        j0 = self.weight_spec.j0
        for e in self.nonzero:
            if e.lambda_star & e.lambda_sub:
                raise ConstructionError(f"lambda data overlaps for {e.label}")
            if not e.lambda_sub <= j0:
                raise ConstructionError(f"lambda_sub escapes the zero pattern for {e.label}")


def _faithful_group(cartan: CartanMatrix) -> WeylGroup:
    """W generated on the orbit of the first fundamental weight, refused
    unless it acts faithfully there."""
    omega1 = (1,) + (0,) * (cartan.rank - 1)
    expected = standard_weyl_order(cartan.letter, cartan.rank)
    group = generate_weyl(cartan, omega1, max_order=expected)
    if group.order != expected:
        raise FaithfulnessError(
            f"Weyl group acts unfaithfully on the orbit of {omega1}: "
            f"closure has order {group.order}, expected {expected}"
        )
    return group


def cross_section_lattice(
    cartan: CartanMatrix, weight_spec: DominantWeightSpec
) -> CrossSectionLattice:
    """Build the cross-section lattice of the weight's zero pattern over the
    given Cartan type; no group is made."""
    j0 = weight_spec.j0
    rank = cartan.rank
    idems = [CrossIdempotent(0, "0", frozenset(), frozenset(), True)]
    for size in range(rank + 1):
        for chosen in combinations(range(rank), size):
            lam_star = frozenset(chosen)
            if not is_admissible(lam_star, j0, cartan):
                continue
            idems.append(
                CrossIdempotent(
                    index=len(idems),
                    label=_face_label(lam_star, rank),
                    lambda_star=lam_star,
                    lambda_sub=lambda_sub_star(lam_star, j0, cartan),
                    is_zero=False,
                )
            )
    return CrossSectionLattice(cartan, weight_spec, tuple(idems))


def build_lattice(
    cartan: CartanMatrix, mu: Sequence[int], *, max_group_order: int = DEFAULT_MAX_GROUP_ORDER
) -> CrossSectionLattice:
    """The cross-section lattice of the J-irreducible monoid with highest
    weight ``mu`` over the given Cartan type.

    Refuses a Weyl group over the cap from its closed-form order.  The
    lattice needs only the type and J0; its ``group``, on the orbit of the
    first fundamental weight, is generated and checked for faithfulness
    when a caller first reads it.
    """
    spec = DominantWeightSpec(tuple(mu))
    if len(spec.mu) != cartan.rank:
        raise ValueError(f"weight has length {len(spec.mu)}, expected rank {cartan.rank}")
    check_group_cap(cartan.letter, cartan.rank, max_group_order)
    return cross_section_lattice(cartan, spec)
