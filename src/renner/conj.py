"""Conjugacy classifications of a Renner monoid and the associated counts.

Four equivalences are computed: unit conjugacy (orbits of sigma under
sigma -> w sigma w^{-1}), Munn conjugacy (unit conjugacy of invertible
parts), semigroup conjugacy (transitive closure of xy ~ yx), and action
conjugacy (transitive closure of the partial conjugation action).

The unit-conjugacy classes of stratum e are the W(e)-orbits on the cosets
W / W_*(e).  Unit conjugacy lies inside the other three relations, so each
of them is a union of unit-conjugacy classes.  ``lattice_class_rows`` lists
all four kinds from the lattice, the weight orbit and one representative
per unit-conjugacy class, without making the monoid: sum over e of
|W / W_*(e)| cosets instead of |R| elements.  A Munn class merges the
unit-conjugacy classes whose representatives have unit-conjugate
invertible parts.  The semigroup and action classes are the Munn classes:
the paper proves that in a Renner monoid Munn conjugacy coincides with
semigroup, action and character conjugacy.  Each face and its
transporter come from ``monoid.face_layout``, which also checks the
layout against the closed-form stratum sizes; this module walks no face
orbit of its own.  This is what the ``classes`` command prints.

``sim_conjugacy_classes`` and ``munn_classes`` reach the same classes
element by element on a built monoid, and are kept as the independent
check of that route: the unit-conjugacy classes are closed by union-find
under conjugation by the simple reflections, reading no coset orbit, and
unit-conjugate elements have unit-conjugate invertible parts, so each Munn
label is read once per unit-conjugacy class, from the invertible part of
its least member.  The counts need only the lattice.

``semigroup_conjugacy_classes`` and ``action_conjugacy_classes`` close
the two relations element by element on a built monoid, so they check the
theorem rather than rely on it.  They run over the
monoid's generators A, the simple reflections and the idempotent maps of
the lattice (R = W Lambda W, so A generates R), not over all pairs of
elements: O(|R| |A|) byte-code translations instead of O(|R|^2).  Each
function's docstring proves that this gives the same closure; the
all-pairs closures stay in the test suite as oracles.  Every kind is listed
as ``ClassRow``s, one per class, for the table, CSV and JSON outputs.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from typing import Hashable, Iterable, Optional, Sequence

from .crosslat import CrossIdempotent, CrossSectionLattice
from .errors import SizeCapExceeded
from .monoid import RennerMonoid, _domain_table, element_label, face_layout, word_times_face
from .partialinj import MAX_DEGREE, PartialInjection, _stable_power, inverse, invertible_part
from .rootsys import bfs_orbit, group_conjugacy_classes

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
    in the order of those least elements.  Each class is a tuple of its
    elements in that order, so its representative comes first; ``partition``
    gives the classes as sets.  ``strata`` holds the stratum of each
    representative for sim and munn (for munn, that of its invertible part);
    it is None per class for the semigroup and action kinds.
    """

    kind: str
    classes: tuple[tuple[PartialInjection, ...], ...]
    representatives: tuple[PartialInjection, ...]
    strata: tuple[Optional[CrossIdempotent], ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def partition(self) -> frozenset[frozenset[PartialInjection]]:
        return frozenset(map(frozenset, self.classes))


@dataclass(frozen=True)
class ClassRow:
    """One class as the ``classes`` command lists it: the index of its least
    element in ``RennerMonoid.elements`` order, that element's stratum label
    (None for the semigroup and action kinds), the class size, and the least
    element's byte code and ``element_label``."""

    index: int
    stratum: Optional[str]
    size: int
    code: bytes
    label: str


def _coset_orbits(
    lattice: CrossSectionLattice,
) -> tuple[tuple[OrbitReport, tuple[int, ...], tuple[int, ...]], ...]:
    """Per idempotent, in lattice order: the orbits of the centralizer on
    the left cosets of the stabilizer, acting by conjugation; the orbit of
    each coset, in coset order, named by its least coset's number; and each
    coset's least member, as its position in (length, word) order.  The
    zero stratum is the single class of 0, whose element's normal form has
    only the identity as unit.

    Only products with simple reflections are needed, so they are read from
    the group's index tables: s w and w s for every simple reflection s and
    element w.
    """
    group = lattice.group
    left, right = group.left, group.right
    orbits = []
    for e in lattice.idempotents:
        if e.is_zero:
            orbits.append((OrbitReport(e, 1, 1, (1,)), (0,), (0,)))
            continue
        # The coset w W_*(e) is w's orbit under right multiplication by the
        # lambda_sub reflections, and in (length, word) order the first
        # member met is the least.
        moves = [right[j].__getitem__ for j in sorted(e.lambda_sub)]
        coset_of = [-1] * group.order
        coset_min: list[int] = []
        for k in range(group.order):
            if coset_of[k] < 0:
                for w in bfs_orbit(k, moves):
                    coset_of[w] = len(coset_min)
                coset_min.append(k)
        uf = UnionFind(len(coset_min))
        for j in sorted(e.lambda_set):
            # s normalizes W_*(e), so s u W_*(e) s is the coset of s u s.
            s_times, times_s = left[j], right[j]
            for cid, u in enumerate(coset_min):
                uf.union(cid, coset_of[s_times[times_s[u]]])
        # Each root is its orbit's least coset number, and coset_min is in
        # (length, word) order, so the roots name the orbits' least members
        # and first appear in increasing order.
        roots = tuple(uf.find(cid) for cid in range(len(coset_min)))
        sizes = Counter(roots)
        report = OrbitReport(e, len(coset_min), len(sizes), tuple(sizes.values()))
        orbits.append((report, roots, tuple(coset_min)))
    return tuple(orbits)


def stratum_orbit_reports(lattice: CrossSectionLattice) -> tuple[OrbitReport, ...]:
    """One report per lattice idempotent, in lattice order."""
    return tuple(report for report, _, _ in _coset_orbits(lattice))


def count_sim_classes(lattice: CrossSectionLattice) -> int:
    """Number of unit-conjugacy classes: the orbit counts summed over the
    lattice (the zero stratum contributing one)."""
    return sum(r.orbit_count for r in stratum_orbit_reports(lattice))


def _sim_roots(monoid: RennerMonoid) -> list[int]:
    """The unit-conjugacy class of every element, named by its least
    member's index: orbits of sigma -> w sigma w^{-1} over the unit group,
    closed by union-find under conjugation by the generators, on byte
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
    return [uf.find(idx) for idx in range(monoid.order)]


def sim_conjugacy_classes(monoid: RennerMonoid) -> ConjClassification:
    """Unit-conjugacy classes, element by element: the union-find of
    ``_sim_roots``, which reads no coset orbit and no face.

    The ``classes`` command lists these classes by ``lattice_class_rows``,
    without the monoid; this element-level pass is the independent check of
    that route, and library API for callers that hold a monoid."""
    return _classes_by_label(monoid, _sim_roots(monoid), "sim")


# The oracle's name, which the tests and the benchmark's recorder import:
# the element-level sim classes are the brute force.
sim_classes_bruteforce = sim_conjugacy_classes


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
    classes = tuple(tuple(map(elements.__getitem__, idxs)) for idxs in groups.values())
    reps = tuple(cls[0] for cls in classes)
    if with_strata:
        strata = tuple(monoid.stratum_of(rep) for rep in reps)
    else:
        strata = (None,) * len(classes)
    return ConjClassification(kind, classes, reps, strata)


def munn_classes(monoid: RennerMonoid) -> ConjClassification:
    """Partition by the unit-conjugacy class of the invertible part, so
    each class lies over the stratum of its members' invertible parts
    (those with zero invertible part over the zero's).

    Unit-conjugate elements have unit-conjugate invertible parts, so the
    invertible part is taken once per sim class, of its least member, the
    class's union-find root.

    The ``classes`` command lists these classes by ``lattice_class_rows``,
    without the monoid; this element-level pass is the independent check of
    that route, and library API for callers that hold a monoid.
    """
    roots = _sim_roots(monoid)
    elements, index = monoid.elements, monoid.index_of
    munn_of = {root: roots[index(invertible_part(elements[root]))] for root in dict.fromkeys(roots)}
    return _classes_by_label(monoid, map(munn_of.__getitem__, roots), "munn")


# The kinds ``lattice_class_rows`` lists, in the order ``classes`` offers them.
CLASS_KINDS = ("sim", "munn", "semigroup", "action")


def lattice_class_rows(lattice: CrossSectionLattice, kind: str) -> tuple[ClassRow, ...]:
    """The classes of one of the ``CLASS_KINDS`` of the lattice's Renner
    monoid, row for row as ``classification_rows`` reads them off the
    element-level classification of that kind, from the stabilizer cosets
    and the faces alone: no element is made beyond one representative per
    unit-conjugacy class.  The caller checks the monoid cap; ``face_layout``
    runs first, so a weight orbit past ``MAX_DEGREE`` points is refused, and
    a layout that fails a check raises, as the build's do.

    Stratum e starts at the closed-form sizes of the strata before it, and
    its first block lists u e for the least u of each coset of W_*(e), in
    coset order, with u as canonical unit.  So the unit-conjugacy class of
    the coset orbit with root r has least element at offset + r, which is u
    restricted to F_e for the root's least unit u, labelled u's word times
    e's label; every face of e's orbit carries one equal block, so its size
    is the orbit's size times |W| / |W(e)|.

    A Munn class is a union of sim classes: the sim class of the invertible
    part of its representative x, which is x restricted to its stable
    domain S, a face.  For a unit t carrying the face F_f of an idempotent f
    onto S, t^{-1} x t has domain F_f, so it is v restricted to F_f for one
    coset v W_*(f), whose orbit names the sim class.  ``face_layout``
    records f and t for every face, so a label is three byte-code
    translations and two dictionary lookups.  A Munn class takes the index,
    representative, label and stratum (that of its invertible parts) of its
    first sim class, and the summed size of all of them.

    In a Renner monoid the semigroup and action conjugacies coincide with
    Munn conjugacy (the paper's theorem), so those kinds are the Munn rows
    without a stratum, as their element-level classifications have none.
    The independent check of the theorem closes the relations themselves:
    ``semigroup_conjugacy_classes`` and ``action_conjugacy_classes`` over a
    built monoid's generators, and ``semigroup_classes_pairwise`` and
    ``action_classes_pairwise`` (``tests/oracles.py``) over every pair of
    elements.
    """
    if kind not in CLASS_KINDS:
        raise ValueError(f"no {kind!r} classes: the kinds are {', '.join(CLASS_KINDS)}")
    layout = face_layout(lattice)
    n = layout.degree
    pad = bytes(MAX_DEGREE - n)
    tables, words = layout.unit_tables, [w.word for w in lattice.group.elements]
    # The code of the identity on each idempotent's own face, the one whose
    # transporter is the identity, by the idempotent's index.
    base = {face.owner.index: face.map for face in layout.faces.values() if face.unit == 0}

    rows: list[ClassRow] = []
    # Per idempotent f, the sim row of each restriction of a unit to F_f.
    row_at: dict[int, dict[bytes, int]] = {}
    offset = 0
    for e, (_, roots, coset_min) in zip(lattice.idempotents, _coset_orbits(lattice)):
        face_count = lattice.weyl_order // lattice.centralizer_order(e)
        e_code = base[e.index]
        first_row = {}
        for root, orbit_size in Counter(roots).items():  # roots ascend
            u = coset_min[root]
            if e.is_zero:
                label = "0"
            else:
                label = word_times_face(words[u], None if e is lattice.one else e.label)
            first_row[root] = len(rows)
            rows.append(ClassRow(offset + root, e.label, orbit_size * face_count,
                                 e_code.translate(tables[u]), label))
        if kind != "sim":
            row_at[e.index] = {e_code.translate(tables[v]): first_row[root]
                               for v, root in zip(coset_min, roots)}
        offset += lattice.stratum_size(e)
    if kind == "sim":
        return tuple(rows)

    # Every face, by its mask: t restricted to F_f, the table of t^-1 and
    # the sim rows of f, for its idempotent f and its transporter t.
    at_face = {mask: (face.map, face.inverse, row_at[face.owner.index])
               for mask, face in layout.faces.items()}
    domain_of = _domain_table(n)

    merged: dict[int, ClassRow] = {}
    for row in rows:  # ascending least elements
        # The sim row of the invertible part, conjugated by the transporter
        # of its domain, the stable domain of the row's code.
        t, t_inv, rows_at_f = at_face[_stable_power(row.code).translate(domain_of)]
        label = rows_at_f[t.translate(row.code + pad).translate(t_inv)]
        first = merged.get(label)
        merged[label] = row if first is None else replace(first, size=first.size + row.size)
    if kind == "munn":
        return tuple(merged.values())
    return tuple(replace(row, stratum=None) for row in merged.values())


def semigroup_conjugacy_classes(monoid: RennerMonoid) -> ConjClassification:
    """Transitive closure of the primary relation pairing uv with vu, by
    union-find of x a with a x for every element x and generator a, each
    product a byte-code translation.

    This is the closure over all pairs.  Each generator step is a primary
    pair.  Conversely, let v = a_1 ... a_k with every a_i a generator (v = 1
    pairs uv with itself); by induction on k,

        uv = (u a_1)(a_2 ... a_k) ~ (a_2 ... a_k u) a_1 ~ a_1 (a_2 ... a_k u) = vu,

    the first step a pair whose right factor has k - 1 generators, the
    second the generator step on x = a_2 ... a_k u.

    The ``classes`` command lists these classes as the Munn classes, by the
    paper's theorem (``lattice_class_rows``); this element-level closure is
    the independent check of that theorem, and library API for callers that
    hold a monoid.
    """
    index = monoid.index_by_code
    gens = [(a.code, a.table) for a in monoid.generators]
    uf = UnionFind(monoid.order)
    for x in monoid.elements:
        code, table = x.code, x.table
        for a_code, a_table in gens:
            uf.union(index[a_code.translate(table)], index[code.translate(a_table)])
    return _classes_by_label(
        monoid, map(uf.find, range(monoid.order)), "semigroup", with_strata=False
    )


def action_conjugacy_classes(monoid: RennerMonoid) -> ConjClassification:
    """Transitive closure of the partial conjugation action: sigma moves x
    to sigma x sigma^{-1} whenever the stable domain of x sits inside the
    domain of sigma, by union-find of x with g x g^{-1} for every element
    x and every generator g whose domain holds the stable domain of x.

    This is the closure over all sigma.  Each generator move is a sigma
    move.  Conversely, sigma = u e v with u, v units and e an idempotent
    map of the lattice, so

        sigma x sigma^{-1} = u (e (v x v^{-1}) e) u^{-1},

    and the domain of sigma is v^{-1} F_e, which holds the stable domain S
    of x exactly when F_e holds v S, the stable domain of v x v^{-1}.  So
    the sigma move is the chain of unit moves taking x to v x v^{-1} (a
    unit's domain is everything, and a unit is a word in the simple
    reflections), one allowed e move, and the unit moves by u.

    The power p = x^(2^k), 2^k > degree, is defined exactly on the stable
    domain S of x and maps S onto S, so S lies in the domain D of g exactly
    when p is unchanged by the partial identity on D: one translation per
    generator.

    The ``classes`` command lists these classes as the Munn classes, by the
    paper's theorem (``lattice_class_rows``); this element-level closure is
    the independent check of that theorem, and library API for callers that
    hold a monoid.
    """
    index, n = monoid.index_by_code, monoid.degree
    moves = [
        (inverse(g).code, g.table, PartialInjection.partial_identity(n, g.domain).table)
        for g in monoid.generators
    ]
    uf = UnionFind(monoid.order)
    for xi, x in enumerate(monoid.elements):
        table, power = x.table, _stable_power(x.code)
        for inv_code, g_table, on_domain in moves:
            if power.translate(on_domain) == power:
                uf.union(xi, index[inv_code.translate(table).translate(g_table)])
    return _classes_by_label(
        monoid, map(uf.find, range(monoid.order)), "action", with_strata=False
    )


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


def classification_rows(
    monoid: RennerMonoid, classification: ConjClassification
) -> tuple[ClassRow, ...]:
    """One row per class, in the classification's order."""
    return tuple(
        ClassRow(
            monoid.index_of(rep), e.label if e is not None else None, len(cls),
            rep.code, element_label(monoid, rep),
        )
        for e, cls, rep in zip(
            classification.strata, classification.classes, classification.representatives
        )
    )


def classification_to_json(
    monoid: RennerMonoid, classification: ConjClassification
) -> dict:
    """Export: kind, class count, and per class its stratum label, size, and
    representative (as sorted source/target pairs plus a readable label)."""
    return class_rows_to_json(
        classification.kind, classification_rows(monoid, classification)
    )


def class_rows_to_json(kind: str, rows: Sequence[ClassRow]) -> dict:
    """The ``classification_to_json`` document of a listing's rows."""
    classes = [
        {
            "stratum": row.stratum,
            "size": row.size,
            "representative": PartialInjection._trusted(row.code).to_pairs(),
            "label": row.label,
        }
        for row in rows
    ]
    return {"kind": kind, "class_count": len(rows), "classes": classes}


def class_rows_json(kind: str, rows: Sequence[ClassRow]) -> str:
    """The text ``json.dumps(class_rows_to_json(kind, rows), indent=2,
    sort_keys=True)`` writes, written from the rows' byte codes: with an
    indent, ``json.dumps`` runs its pure-Python encoder, which takes longer
    than listing the classes."""
    dumps = json.dumps
    classes = []
    for row in rows:
        undefined = len(row.code) - 1
        pairs = ",\n        ".join([
            f"[\n          {i},\n          {t}\n        ]"
            for i, t in enumerate(row.code) if t != undefined
        ])
        stratum = "null" if row.stratum is None else dumps(row.stratum)
        classes.append(
            f'{{\n      "label": {dumps(row.label)},\n      "representative": '
            + (f"[\n        {pairs}\n      ]" if pairs else "[]")
            + f',\n      "size": {row.size},\n      "stratum": {stratum}\n    }}'
        )
    body = "[\n    " + ",\n    ".join(classes) + "\n  ]" if classes else "[]"
    return (
        f'{{\n  "class_count": {len(rows)},\n  "classes": {body},\n'
        f'  "kind": {dumps(kind)}\n}}'
    )


def orbit_report_rows(lattice: CrossSectionLattice) -> list[list]:
    """Rows (e, |W(e)|, |W_*(e)|, coset_count, n_e), one per idempotent."""
    rows = []
    for report in stratum_orbit_reports(lattice):
        e = report.idempotent
        rows.append(
            [
                e.label,
                lattice.centralizer_order(e),
                lattice.stabilizer_order(e),
                report.coset_count,
                report.orbit_count,
            ]
        )
    return rows
