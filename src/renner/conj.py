"""Conjugacy classifications of a Renner monoid and the associated counts.

Four equivalences are computed: unit conjugacy (orbits of sigma under
sigma -> w sigma w^{-1}), Munn conjugacy (unit conjugacy of invertible
parts), semigroup conjugacy (transitive closure of xy ~ yx), and action
conjugacy (transitive closure of the partial conjugation action).  Each
stratum is one equal block per face.  The first block, on the idempotent's
own face, lists the stabilizer cosets in order, so its unit-conjugacy
classes are the coset orbits; every later block is the first conjugated by
its face's transporter, so each of its elements takes the class of its
conjugate there, found by two byte-code translations.  Unit-conjugate
elements have unit-conjugate invertible parts, so each Munn label is read
once per unit-conjugacy class, from the invertible part of its least
member.  Brute force validates them in the test suite; the counts need
only the lattice.

The pairwise semigroup and action closures, and the brute-force sim oracle,
work on the elements' byte codes: a product is one ``bytes.translate`` of a
code by a table and a lookup in the monoid's code index, and the semigroup
closure visits each unordered pair once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from .crosslat import CrossIdempotent, CrossSectionLattice
from .errors import ConstructionError, SizeCapExceeded
from .monoid import RennerMonoid, element_label
from .partialinj import MAX_DEGREE, PartialInjection, inverse, invertible_part, stable_domain
from .rootsys import group_conjugacy_classes, left_cosets

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

    ``orbit_sizes`` lists the orbits in the order of their least cosets and
    sums to ``coset_count`` (the orbits partition the cosets).
    """

    idempotent: CrossIdempotent
    coset_count: int
    orbit_count: int
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


def _coset_orbits(
    lattice: CrossSectionLattice, e: CrossIdempotent
) -> tuple[OrbitReport, tuple[int, ...]]:
    """Orbits of the centralizer on the left cosets of the stabilizer,
    acting by conjugation, and the orbit of each coset, in coset order,
    named by its least coset's number.  The zero stratum is the single class
    of 0, whose element's normal form has only the identity as unit."""
    group = lattice.group
    if e.is_zero:
        return OrbitReport(e, 1, 1, (1,)), (0,)
    coset_min, coset_of = left_cosets(lattice.stabilizer(e))
    uf = UnionFind(len(coset_min))
    cent_gens = [group.generators[j] for j in sorted(e.lambda_set)]
    for cid, u in enumerate(coset_min):
        for g in cent_gens:
            uf.union(cid, coset_of[group.conjugate(g, u)])
    # Each root is its orbit's least coset number, and coset_min is in
    # (length, word) order, so the roots name the orbits' least members and
    # first appear in increasing order; munn_classes finds each class's
    # least element at its root's place in the stratum's first block.
    roots = tuple(uf.find(cid) for cid in range(len(coset_min)))
    sizes = Counter(roots)
    return OrbitReport(e, len(coset_min), len(sizes), tuple(sizes.values())), roots


def stratum_orbit_reports(lattice: CrossSectionLattice) -> tuple[OrbitReport, ...]:
    """One report per lattice idempotent, in lattice order."""
    return tuple(_coset_orbits(lattice, e)[0] for e in lattice.idempotents)


def count_sim_classes(lattice: CrossSectionLattice) -> int:
    """Number of unit-conjugacy classes: the orbit counts summed over the
    lattice (the zero stratum contributing one)."""
    return sum(r.orbit_count for r in stratum_orbit_reports(lattice))


def _sim_labels(monoid: RennerMonoid) -> list[tuple[int, int]]:
    """The unit-conjugacy class of every element, as (stratum, orbit).

    The stratum is one equal block per face of e's orbit, in that order.
    The first block, on e's own face, holds u e for the least u of each
    coset of W_*(e), in coset order, and u e ~ v e exactly when u W_*(e)
    and v W_*(e) lie in one W(e)-orbit, so it takes the coset orbits as its
    labels.  An element x of a later block, whose face is e's face moved by
    the transporter t, is unit conjugate to t^{-1} x t in the first block.
    """
    elements, index = monoid.elements, monoid.index_by_code
    pad = bytes(MAX_DEGREE - monoid.degree)  # code + pad is an element's table
    labels: list[tuple[int, int]] = [(0, 0)] * monoid.order
    for e in monoid.lattice.idempotents:
        roots = _coset_orbits(monoid.lattice, e)[1]
        stratum, faces = monoid.strata[e.index], monoid.face_orbits[e.index]
        block = len(stratum) // len(faces)
        if len(roots) != block:
            raise ConstructionError(
                f"stratum {e.label} has {block} elements per face but {len(roots)} cosets"
            )
        first = stratum[0]
        labels[first:first + block] = [(e.index, root) for root in roots]
        for k in range(1, len(faces)):
            t = monoid.unit_for(monoid.transporters[faces[k]].unit)
            t_code, t_inv_table = t.code, inverse(t).table
            for i in stratum[k * block:(k + 1) * block]:
                # The code of t^{-1} after x after t.
                code = t_code.translate(elements[i].code + pad).translate(t_inv_table)
                labels[i] = labels[index[code]]
    return labels


def sim_conjugacy_classes(monoid: RennerMonoid) -> ConjClassification:
    """Unit-conjugacy classes, one per centralizer orbit on stabilizer
    cosets, each element's orbit read off its normal form (the zero
    stratum's one orbit is the class of 0)."""
    return _classes_by_label(monoid, _sim_labels(monoid), "sim")


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


def _check_pairwise_cap(monoid: RennerMonoid) -> int:
    """The number of elements, once it is known to fit the cap."""
    n, cap = len(monoid.elements), DEFAULT_PAIRWISE_CAP
    if n > cap:
        raise SizeCapExceeded(f"pairwise closure over {n} elements exceeds cap {cap}")
    return n


def sim_classes_bruteforce(monoid: RennerMonoid) -> ConjClassification:
    """Oracle: direct orbits of sigma -> w sigma w^{-1} over the unit group
    (conjugating by the generators suffices to close the orbits), on byte
    codes."""
    index = monoid.index_by_code
    pad = bytes(MAX_DEGREE - monoid.degree)
    uf = UnionFind(monoid.order)
    # The generators are simple reflections, so each is its own inverse.
    gens = [(u.code, u.table) for u in map(monoid.unit_for, monoid.group.generators)]
    for idx, x in enumerate(monoid.elements):
        table = x.code + pad
        for code, g_table in gens:
            uf.union(idx, index[code.translate(table).translate(g_table)])
    return _classes_by_label(monoid, map(uf.find, range(monoid.order)), "sim")


def munn_classes(monoid: RennerMonoid) -> ConjClassification:
    """Partition by the unit-conjugacy class of the invertible part, so
    each class lies over one subrank (those with zero invertible part over
    the zero's).

    Unit-conjugate elements have unit-conjugate invertible parts, so the
    invertible part is taken once per sim class, of its least member: the
    element at its root's place in its stratum's first block.
    """
    sim = _sim_labels(monoid)
    elements, index, strata = monoid.elements, monoid.index_of, monoid.strata
    munn_of = {
        (e, root): sim[index(invertible_part(elements[strata[e][0] + root]))]
        for e, root in dict.fromkeys(sim)
    }
    return _classes_by_label(monoid, map(munn_of.__getitem__, sim), "munn")


def semigroup_conjugacy_classes(monoid: RennerMonoid) -> ConjClassification:
    """Transitive closure of the primary relation pairing xy with yx, by
    union-find over the unordered pairs {x, y} of distinct elements (the
    relation is symmetric, and x = y pairs xx with itself), each product a
    byte-code translation.

    Raises ``SizeCapExceeded`` above ``DEFAULT_PAIRWISE_CAP`` elements.
    """
    n = _check_pairwise_cap(monoid)
    codes = [p.code for p in monoid.elements]
    tables = [p.table for p in monoid.elements]
    index = monoid.index_by_code
    uf = UnionFind(n)
    for i in range(n):
        code_i, table_i = codes[i], tables[i]
        for j in range(i + 1, n):
            uf.union(index[codes[j].translate(table_i)], index[code_i.translate(tables[j])])
    return _classes_by_label(monoid, map(uf.find, range(n)), "semigroup", with_strata=False)


def action_conjugacy_classes(monoid: RennerMonoid) -> ConjClassification:
    """Transitive closure of the partial conjugation action: sigma moves x
    to sigma x sigma^{-1} whenever the stable domain of x sits inside the
    domain of sigma.

    The movers are grouped by domain, so the containment is tested once
    per domain, and each move is two byte-code translations.  Raises
    ``SizeCapExceeded`` above ``DEFAULT_PAIRWISE_CAP`` elements.
    """
    n = _check_pairwise_cap(monoid)
    index = monoid.index_by_code
    movers: dict[frozenset[int], list[tuple[bytes, bytes]]] = {}
    for sigma in monoid.elements:
        movers.setdefault(sigma.domain, []).append((inverse(sigma).code, sigma.table))
    uf = UnionFind(n)
    for xi, x in enumerate(monoid.elements):
        needed, table_x = stable_domain(x), x.table
        for domain, moves in movers.items():
            if needed <= domain:
                for inv, table in moves:
                    uf.union(xi, index[inv.translate(table_x).translate(table)])
    return _classes_by_label(monoid, map(uf.find, range(n)), "action", with_strata=False)


def irreducible_rep_count(lattice: CrossSectionLattice) -> int:
    """Number of inequivalent irreducible representations over a field of
    characteristic zero: conjugacy classes of the lambda_star parabolic
    summed over the lattice (the zero's is trivial, so it contributes one).

    Computed from the lattice alone; ``munn_classes`` reaches the same
    count by another route, so each checks the other.
    """
    return sum(len(group_conjugacy_classes(lattice.star_group(e))) for e in lattice)


# O(points^2) big-integer additions: 2000 points take 0.2 s, 20 000 take 25 s.
MAX_ROOK_POINTS = 2000


def munn_count_rook(points: int) -> int:
    """Munn class count of the rook monoid on the given number of points:
    the integer partitions of every r up to that number, summed.  More than
    ``MAX_ROOK_POINTS`` points raise ``SizeCapExceeded`` before any work.

    >>> [munn_count_rook(m) for m in range(5)]
    [1, 2, 4, 7, 12]
    """
    if points < 0:
        raise ValueError("the number of points must be nonnegative")
    if points > MAX_ROOK_POINTS:
        raise SizeCapExceeded(f"{points} points exceed the cap {MAX_ROOK_POINTS}")
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
