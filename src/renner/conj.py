"""Conjugacy classifications of a Renner monoid and the associated counts.

Four equivalences are computed: unit conjugacy (orbits of sigma under
sigma -> w sigma w^{-1}), Munn conjugacy (unit conjugacy of invertible
parts), semigroup conjugacy (transitive closure of xy ~ yx), and action
conjugacy (transitive closure of the partial conjugation action).  Unit
conjugacy is computed stratum-by-stratum through coset orbits and also by
brute force; the brute-force partitions validate the structured ones in the
test suite.  The class and representation counts need only the
cross-section lattice, not the monoid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from .crosslat import CrossIdempotent, CrossSectionLattice
from .errors import ConstructionError, SizeCapExceeded
from .monoid import RennerMonoid, element_label, project
from .partialinj import (
    PartialInjection,
    compose,
    inverse,
    invertible_part,
    stable_domain,
)
from .rootsys import WeylElement, group_conjugacy_classes, left_cosets

# Pairwise oracles are O(|R|^2); keep them desk-scale by default.
DEFAULT_PAIRWISE_CAP = 2000


class UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        """Merge the classes of a and b; a class's root is its least member."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass(frozen=True)
class OrbitReport:
    """Centralizer orbits on the stabilizer cosets of one idempotent.

    ``orbit_sizes`` is aligned with ``orbit_reps`` and sums to
    ``coset_count`` (the orbits partition the cosets).
    """

    idempotent: CrossIdempotent
    coset_count: int
    orbit_count: int
    orbit_reps: tuple[WeylElement, ...]
    orbit_sizes: tuple[int, ...]


@dataclass(frozen=True)
class ConjClassification:
    """A partition of the monoid with chosen representatives.

    Every kind lists its classes in the same way: each class is represented
    by its least element in ``monoid.elements`` order, and the classes come
    in the order of those least elements.  ``strata`` holds the stratum of
    each representative for sim and munn (for munn that is the class's
    subrank); it is None per class for the pairwise semigroup/action kinds.
    """

    kind: str
    classes: tuple[frozenset[PartialInjection], ...]
    representatives: tuple[PartialInjection, ...]
    strata: tuple[Optional[CrossIdempotent], ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def partition(self) -> frozenset[frozenset[PartialInjection]]:
        return frozenset(self.classes)


def _coset_orbits(lattice: CrossSectionLattice, e: CrossIdempotent) -> OrbitReport:
    """Orbits of the centralizer on the left cosets of the stabilizer,
    acting by conjugation.  The zero stratum is the single class of 0."""
    group = lattice.group
    if e.is_zero:
        return OrbitReport(e, 1, 1, (group.identity,), (1,))
    coset_min, coset_of = left_cosets(lattice.stabilizer(e))
    uf = UnionFind(len(coset_min))
    cent_gens = [group.generators[j] for j in sorted(e.lambda_set)]
    for cid, u in enumerate(coset_min):
        for g in cent_gens:
            uf.union(cid, coset_of[group.conjugate(g, u)])
    # Each root is its orbit's least coset number, and coset_min is in
    # (length, word) order, so the roots name the orbits' least members and
    # first appear in increasing order.
    sizes = Counter(uf.find(cid) for cid in range(len(coset_min)))
    reps = tuple(coset_min[root] for root in sizes)
    return OrbitReport(e, len(coset_min), len(reps), reps, tuple(sizes.values()))


def stratum_orbit_reports(lattice: CrossSectionLattice) -> tuple[OrbitReport, ...]:
    """One report per lattice idempotent, in lattice order."""
    return tuple(_coset_orbits(lattice, e) for e in lattice.idempotents)


def count_sim_classes(lattice: CrossSectionLattice) -> int:
    """Number of unit-conjugacy classes: the orbit counts summed over the
    lattice (the zero stratum contributing one)."""
    return sum(r.orbit_count for r in stratum_orbit_reports(lattice))


def _unit_conjugation_pairs(monoid: RennerMonoid, gens_only: bool = False):
    group = monoid.group
    source = group.generators if gens_only else group.elements
    return [
        (monoid.unit_for(w), monoid.unit_for(group.inv(w))) for w in source
    ]


def sim_conjugacy_classes(monoid: RennerMonoid) -> ConjClassification:
    """Unit-conjugacy classes, one per centralizer orbit on stabilizer
    cosets: the class of u*e, for a minimal coset representative u, is its
    conjugates by the units (the zero stratum's one orbit is the class of 0)."""
    labels: list[Optional[int]] = [None] * monoid.order
    conj_pairs = _unit_conjugation_pairs(monoid)
    orbit = 0
    for e in monoid.lattice.idempotents:
        e_map = monoid.idempotent_map(e)
        for u in _coset_orbits(monoid.lattice, e).orbit_reps:
            rep = compose(monoid.unit_for(u), e_map)
            for wp, wq in conj_pairs:
                labels[monoid.index_of(compose(wp, compose(rep, wq)))] = orbit
            orbit += 1
    return _classes_by_label(monoid, labels, "sim")


def _classes_by_label(
    monoid: RennerMonoid, labels: Iterable[Hashable], kind: str, with_strata: bool = True
) -> ConjClassification:
    """Group the element indices by their labels.  Indices are taken in
    order, so the classes come in the order of their least members and each
    class's least member is its representative."""
    groups: dict[Hashable, list[int]] = {}
    for idx, label in enumerate(labels):
        groups.setdefault(label, []).append(idx)
    elements = monoid.elements
    classes = tuple(frozenset(elements[i] for i in idxs) for idxs in groups.values())
    reps = tuple(elements[idxs[0]] for idxs in groups.values())
    if with_strata:
        strata = tuple(monoid.stratum_of(rep) for rep in reps)
    else:
        strata = (None,) * len(classes)
    return ConjClassification(kind, classes, reps, strata)


def sim_classes_bruteforce(monoid: RennerMonoid) -> ConjClassification:
    """Oracle: direct orbits of sigma -> w sigma w^{-1} over the unit group
    (conjugating by the generators suffices to close the orbits)."""
    uf = UnionFind(len(monoid.elements))
    gen_pairs = _unit_conjugation_pairs(monoid, gens_only=True)
    for idx, p in enumerate(monoid.elements):
        for gp, gq in gen_pairs:
            uf.union(idx, monoid.index_of(compose(gp, compose(p, gq))))
    return _classes_by_label(monoid, map(uf.find, range(monoid.order)), "sim")


def munn_classes(monoid: RennerMonoid) -> ConjClassification:
    """Partition by subrank and the conjugacy class of the projected
    invertible part inside the realized lambda_star subgroup.

    The classes of each lambda_star parabolic are read off
    ``group_conjugacy_classes`` and realized on the face of e as u*e.  The
    least element of a class, its representative, is u*e for the least
    member u of its group class.
    """
    star_tables: dict[int, dict[PartialInjection, int]] = {}
    for e in monoid.lattice.nonzero:
        star = monoid.lattice.star_group(e)
        e_map = monoid.idempotent_map(e)
        table = {
            compose(monoid.unit_for(u), e_map): cid
            for cid, cls in enumerate(group_conjugacy_classes(star))
            for u in cls
        }
        if len(table) != star.order:
            raise ConstructionError("lambda_star subgroup does not embed on its face")
        star_tables[e.index] = table

    labels = []
    for sigma in monoid.elements:
        part = invertible_part(sigma)
        if part == monoid.zero:
            labels.append((monoid.lattice.zero.index, 0))
        else:
            e = monoid.stratum_of(part)
            labels.append((e.index, star_tables[e.index][project(monoid, part)]))
    return _classes_by_label(monoid, labels, "munn")


def semigroup_conjugacy_classes(
    monoid: RennerMonoid, max_size: int = DEFAULT_PAIRWISE_CAP
) -> ConjClassification:
    """Transitive closure of the primary relation pairing xy with yx, by
    union-find over all ordered pairs."""
    n = len(monoid.elements)
    if n > max_size:
        raise SizeCapExceeded(f"pairwise closure over {n} elements exceeds cap {max_size}")
    uf = UnionFind(n)
    index = monoid.index_of
    elements = monoid.elements
    for x in elements:
        for y in elements:
            uf.union(index(compose(x, y)), index(compose(y, x)))
    return _classes_by_label(monoid, map(uf.find, range(n)), "semigroup", with_strata=False)


def action_conjugacy_classes(
    monoid: RennerMonoid, max_size: int = DEFAULT_PAIRWISE_CAP
) -> ConjClassification:
    """Transitive closure of the partial conjugation action: sigma moves x
    to sigma x sigma^{-1} whenever the stable domain of x sits inside the
    domain of sigma."""
    n = len(monoid.elements)
    if n > max_size:
        raise SizeCapExceeded(f"pairwise closure over {n} elements exceeds cap {max_size}")
    uf = UnionFind(n)
    index = monoid.index_of
    elements = monoid.elements
    inverses = [inverse(s) for s in elements]
    stable = [stable_domain(x) for x in elements]
    for xi, x in enumerate(elements):
        needed = stable[xi]
        for si, s in enumerate(elements):
            if needed <= s.domain:
                uf.union(xi, index(compose(s, compose(x, inverses[si]))))
    return _classes_by_label(monoid, map(uf.find, range(n)), "action", with_strata=False)


def irreducible_rep_count(lattice: CrossSectionLattice) -> int:
    """Number of inequivalent irreducible representations over a field of
    characteristic zero: conjugacy classes of the lambda_star parabolic
    summed over the lattice, the zero stratum contributing one.

    Computed from the lattice alone.  It shares ``group_conjugacy_classes``
    with ``munn_classes``, so the independent checks on the Munn partition
    are the semigroup/action closures and the rook-monoid count formula.
    """
    total = 1
    for e in lattice.nonzero:
        total += len(group_conjugacy_classes(lattice.star_group(e)))
    return total


def munn_count_rook(points: int) -> int:
    """Munn class count of the rook monoid on the given number of points:
    the integer partitions of every r up to that number, summed.

    >>> [munn_count_rook(m) for m in range(5)]
    [1, 2, 4, 7, 12]
    """
    if points < 0:
        raise ValueError("the number of points must be nonnegative")
    parts = [1] + [0] * points
    for k in range(1, points + 1):
        for n in range(k, points + 1):
            parts[n] += parts[n - k]
    return sum(parts)


def classification_to_json(
    monoid: RennerMonoid, classification: ConjClassification
) -> dict:
    """Export: kind, class count, and per class its stratum label, size, and
    representative (as sorted source/target pairs plus a readable label)."""
    classes = []
    for e, cls, rep in zip(
        classification.strata, classification.classes, classification.representatives
    ):
        classes.append(
            {
                "stratum": e.label if e is not None else None,
                "size": len(cls),
                "representative": rep.to_pairs(),
                "label": element_label(monoid, rep),
            }
        )
    return {
        "kind": classification.kind,
        "class_count": classification.class_count,
        "classes": classes,
    }


def orbit_report_rows(lattice: CrossSectionLattice) -> list[list]:
    """Rows (e, |W(e)|, |W_*(e)|, coset_count, n_e), one per idempotent."""
    rows = []
    for report in stratum_orbit_reports(lattice):
        e = report.idempotent
        rows.append(
            [
                e.label,
                lattice.centralizer(e).order,
                lattice.stabilizer(e).order,
                report.coset_count,
                report.orbit_count,
            ]
        )
    return rows
