"""Cross-section lattices of J-irreducible Renner monoids.

The lattice is determined by the zero pattern J0 of a dominant weight: the
nonzero idempotents correspond to the subsets of the simple roots with no
connected Dynkin component inside J0, ordered by inclusion, below a top
element (the monoid identity) and above a zero.  Each idempotent carries its
type-map data (lambda_star, lambda_sub); its faces on the weight orbit belong
to the monoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .errors import ConstructionError, FaithfulnessError
from .rootsys import (
    DEFAULT_MAX_GROUP_ORDER,
    CartanMatrix,
    Subgroup,
    WeylGroup,
    check_group_cap,
    generate_weyl,
    parabolic,
    standard_weyl_order,
)


@dataclass(frozen=True)
class DominantWeightSpec:
    """A dominant nonzero weight; only its zero pattern matters downstream."""

    mu: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(self.mu))
        if not self.mu or all(c == 0 for c in self.mu):
            raise ValueError("weight must be nonzero")
        if any(c < 0 for c in self.mu):
            raise ValueError("weight must be dominant (no negative coordinates)")

    @cached_property
    def j0(self) -> frozenset[int]:
        """Indices of the simple roots pairing to zero with the weight."""
        return frozenset(i for i, c in enumerate(self.mu) if c == 0)

    @classmethod
    def from_weight(cls, coords: Sequence[int]) -> "DominantWeightSpec":
        return cls(tuple(coords))

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
    remaining = set(subset)
    parts = []
    while remaining:
        start = min(remaining)
        remaining.discard(start)
        comp = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in list(remaining):
                if cartan.adjacent(i, j):
                    remaining.discard(j)
                    comp.add(j)
                    stack.append(j)
        parts.append(frozenset(comp))
    return tuple(parts)


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
    nonzero idempotents is lambda_star inclusion (``build_renner`` checks
    that it agrees with face inclusion, the idempotent-product order).

    The parabolic subgroups the accessors serve (the whole group, the
    trivial group, and each idempotent's lambda_star, lambda_sub and their
    union) are built at construction, so the lattice is fixed from then on
    and safe to share.
    """

    def __init__(
        self,
        group: WeylGroup,
        weight_spec: DominantWeightSpec,
        idempotents: tuple[CrossIdempotent, ...],
    ):
        self.group = group
        self.weight_spec = weight_spec
        self.idempotents = idempotents
        self.zero = idempotents[0]
        self.min_nonzero = idempotents[1]
        self.one = idempotents[-1]
        index_sets = [frozenset(range(group.cartan.rank)), frozenset()]
        for e in self.nonzero:
            index_sets += [e.lambda_star, e.lambda_sub, e.lambda_set]
        self._parabolics = {J: parabolic(group, J) for J in dict.fromkeys(index_sets)}
        self._verify()

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

    def _parabolic(self, indices: Iterable[int]) -> Subgroup:
        return self._parabolics[frozenset(indices)]

    def centralizer(self, e: CrossIdempotent) -> Subgroup:
        """The units commuting with e; the whole group for e = 0."""
        if e.is_zero:
            return self._parabolic(range(self.group.cartan.rank))
        return self._parabolic(e.lambda_set)

    def stabilizer(self, e: CrossIdempotent) -> Subgroup:
        """The units w with w*e = e; everything kills zero, so the whole
        group for e = 0."""
        if e.is_zero:
            return self._parabolic(range(self.group.cartan.rank))
        return self._parabolic(e.lambda_sub)

    def star_group(self, e: CrossIdempotent) -> Subgroup:
        """The lambda_star parabolic; trivial for e = 0."""
        if e.is_zero:
            return self._parabolic(())
        return self._parabolic(e.lambda_star)

    def stratum_size(self, e: CrossIdempotent) -> int:
        """|W e W| = |W|^2 / (|W(e)| * |W_*(e)|), by the Renner
        decomposition; the zero's conventions (both subgroups are W) give 1."""
        w = self.group.order
        return (w // self.centralizer(e).order) * (w // self.stabilizer(e).order)

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


def cross_section_lattice(
    group: WeylGroup, weight_spec: DominantWeightSpec
) -> CrossSectionLattice:
    """Build the cross-section lattice of the weight's zero pattern over a
    faithful realization of its Weyl group (on any orbit)."""
    cartan = group.cartan
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
    return CrossSectionLattice(group, weight_spec, tuple(idems))


def build_lattice(
    cartan: CartanMatrix, mu: Sequence[int], *, max_group_order: int = DEFAULT_MAX_GROUP_ORDER
) -> CrossSectionLattice:
    """The cross-section lattice of the J-irreducible monoid with highest
    weight ``mu`` over the given Cartan type.

    Refuses a Weyl group over the cap from its closed-form order, then
    generates it on the orbit of the first fundamental weight (at most 24
    points; the lattice needs only W and J0) and checks that it acts
    faithfully, so every count read off the lattice is the monoid's.
    """
    spec = DominantWeightSpec(tuple(mu))
    if len(spec.mu) != cartan.rank:
        raise ValueError(f"weight has length {len(spec.mu)}, expected rank {cartan.rank}")
    check_group_cap(cartan.letter, cartan.rank, max_group_order)
    omega1 = (1,) + (0,) * (cartan.rank - 1)
    group = generate_weyl(cartan, omega1, max_order=max_group_order)
    expected = standard_weyl_order(cartan.letter, cartan.rank)
    if group.order != expected:
        raise FaithfulnessError(
            f"Weyl group acts unfaithfully on the orbit of {omega1}: "
            f"closure has order {group.order}, expected {expected}"
        )
    return cross_section_lattice(group, spec)
