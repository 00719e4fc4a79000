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
invertible parts; the semigroup and action classes close the unit-conjugacy
classes under the products of their representatives with the idempotents,
which its docstring proves is enough.  This is what the ``classes`` command
prints.

``sim_conjugacy_classes`` and ``munn_classes`` reach the same classes
element by element on a built monoid, and are kept as the independent
check of that route.  Each stratum is one equal block per face.  The first
block, on the idempotent's own face, lists the stabilizer cosets in order,
so its unit-conjugacy classes are the coset orbits; every later block is
the first conjugated by its face's transporter, so each of its elements
takes the class of its conjugate there, found by two byte-code
translations.  Unit-conjugate elements have unit-conjugate invertible
parts, so each Munn label is read once per unit-conjugacy class, from the
invertible part of its least member.  Brute force validates them in the
test suite; the counts need only the lattice.

``semigroup_conjugacy_classes`` and ``action_conjugacy_classes`` are the
element-level check of the closures, on a built monoid.  They run over the
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
from .errors import ConstructionError, SizeCapExceeded
from .monoid import RennerMonoid, element_label, realize_on_weight, word_times_face
from .partialinj import MAX_DEGREE, PartialInjection, _stable_power, inverse, invertible_part
from .rootsys import WeylElement, WeylGroup, bfs_orbit, group_conjugacy_classes

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
    subrank); it is None per class for the semigroup and action kinds.
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
) -> tuple[tuple[OrbitReport, tuple[int, ...], tuple[WeylElement, ...]], ...]:
    """Per idempotent, in lattice order: the orbits of the centralizer on
    the left cosets of the stabilizer, acting by conjugation; the orbit of
    each coset, in coset order, named by its least coset's number; and each
    coset's least member, in (length, word) order.  The zero stratum is the
    single class of 0, whose element's normal form has only the identity as
    unit.

    Only products with simple reflections are needed, so they are read from
    the group's index tables: s w and w s for every simple reflection s and
    element w.
    """
    group = lattice.group
    elements, left, right = group.elements, group.left, group.right
    orbits = []
    for e in lattice.idempotents:
        if e.is_zero:
            orbits.append((OrbitReport(e, 1, 1, (1,)), (0,), (group.identity,)))
            continue
        # The coset w W_*(e) is w's orbit under right multiplication by the
        # lambda_sub reflections, and in (length, word) order the first
        # member met is the least.
        moves = [right[j].__getitem__ for j in sorted(e.lambda_sub)]
        coset_of = [-1] * len(elements)
        coset_min: list[int] = []
        for k in range(len(elements)):
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
        # and first appear in increasing order; munn_classes finds each
        # class's least element at its root's place in the stratum's first
        # block.
        roots = tuple(uf.find(cid) for cid in range(len(coset_min)))
        sizes = Counter(roots)
        report = OrbitReport(e, len(coset_min), len(sizes), tuple(sizes.values()))
        orbits.append((report, roots, tuple(elements[k] for k in coset_min)))
    return tuple(orbits)


def stratum_orbit_reports(lattice: CrossSectionLattice) -> tuple[OrbitReport, ...]:
    """One report per lattice idempotent, in lattice order."""
    return tuple(report for report, _, _ in _coset_orbits(lattice))


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
    for e, (_, roots, _) in zip(monoid.lattice.idempotents, _coset_orbits(monoid.lattice)):
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
    stratum's one orbit is the class of 0).

    The ``classes`` command lists these classes by ``lattice_class_rows``,
    without the monoid; this element-level pass is the independent check of
    that route, and library API for callers that hold a monoid."""
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


def sim_classes_bruteforce(monoid: RennerMonoid) -> ConjClassification:
    """Oracle: direct orbits of sigma -> w sigma w^{-1} over the unit group
    (conjugating by the generators suffices to close the orbits), on byte
    codes.  No command calls it; it checks ``sim_conjugacy_classes``, and
    through it the lattice route, and the benchmark's recorder reads it."""
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

    The ``classes`` command lists these classes by ``lattice_class_rows``,
    without the monoid; this element-level pass is the independent check of
    that route, and library API for callers that hold a monoid.
    """
    sim = _sim_labels(monoid)
    elements, index, strata = monoid.elements, monoid.index_of, monoid.strata
    munn_of = {
        (e, root): sim[index(invertible_part(elements[strata[e][0] + root]))]
        for e, root in dict.fromkeys(sim)
    }
    return _classes_by_label(monoid, map(munn_of.__getitem__, sim), "munn")


# The kinds ``lattice_class_rows`` lists, in the order ``classes`` offers them.
CLASS_KINDS = ("sim", "munn", "semigroup", "action")


def lattice_class_rows(lattice: CrossSectionLattice, kind: str) -> tuple[ClassRow, ...]:
    """The classes of one of the ``CLASS_KINDS`` of the lattice's Renner
    monoid, row for row as ``classification_rows`` reads them off the
    element-level classification of that kind, from the stabilizer cosets
    and the faces alone: no element is made beyond one representative per
    unit-conjugacy class and, for the closures, its products with the
    idempotents.  The caller checks the monoid cap; a weight orbit past
    ``MAX_DEGREE`` points is refused as the build refuses it.

    Stratum e starts at the closed-form sizes of the strata before it, and
    its first block lists u e for the least u of each coset of W_*(e), in
    coset order, with u as canonical unit.  So the unit-conjugacy class of
    the coset orbit with root r has least element at offset + r, which is u
    restricted to F_e for the root's least unit u, labelled u's word times
    e's label; every face of e's orbit carries one equal block, so its size
    is the orbit's size times |W| / |W(e)|.

    The other kinds are unions of sim classes, found on those classes by
    labelling products.  An element z has a face D of some idempotent f as
    domain; for a unit t carrying F_f onto D, t^{-1} z t is unit conjugate
    to z and has domain F_f, so it is v restricted to F_f for one coset
    v W_*(f), whose orbit names the sim class of z.  ``_faces_by_domain``
    finds f and t once per face, so a label is three byte-code translations
    and two dictionary lookups.

    * Munn: the Munn class of a sim class is the sim class of the invertible
      part of its representative x, which is x restricted to its stable
      domain S, a face: so x is labelled at S instead of at its domain.
    * Semigroup: unit conjugacy lies inside the closure of the primary
      pairs uv ~ vu, as s (x s^-1) and (x s^-1) s = x are a primary pair for
      a unit s; so the closure can run on the sim classes.  Write u = w e_F
      for a unit w and the idempotent e_F on the domain F of u.  Then
      w^-1 (uv) w = e_F x and vu = x e_F with x = v w, and for x = s y s^-1,
      y the representative of its sim class, s^-1 (e_F x) s = e_G y and
      s^-1 (x e_F) s = y e_G with G = s^-1 F.  So every primary pair is
      unit conjugate, term by term, to the pair (e_G y, y e_G) of a
      representative y and a face G, which is itself a primary pair:
      uniting the sim classes of y e_G and e_G y for every y and G gives
      the closure.
    * Action: a unit's domain is everything, so unit conjugacy lies inside
      the partial conjugation closure too.  A move x -> sigma x sigma^-1,
      with the stable domain S(x) inside the domain F of sigma = w e_F, is
      unit conjugate to x -> e_F x e_F, and for x = s y s^-1 as above to
      y -> e_G y e_G, where S(x) = s S(y) lies in F exactly when S(y) lies in
      G = s^-1 F.  That is itself a move, by sigma = e_G: uniting the sim
      class of y with that of e_G y e_G for every representative y and
      every face G holding S(y) gives the closure.

    A merged class lists the sim classes it unites by their least elements,
    so it takes the first one's index, representative and label, and their
    summed size.  Munn keeps the first one's stratum, the class's subrank;
    the semigroup and action rows, like their element-level
    classifications, have none.
    """
    if kind not in CLASS_KINDS:
        raise ValueError(f"no {kind!r} classes: the kinds are {', '.join(CLASS_KINDS)}")
    group = lattice.group
    on_weight, faces = realize_on_weight(lattice)
    n = on_weight.degree
    pad = bytes(MAX_DEGREE - n)
    # Each unit as a translation table, by its word: the two realizations
    # list the group in one order, and a word hashes faster than an element.
    tail = bytes([n]) + pad
    table = {w.word: bytes(u.perm) + tail for w, u in zip(group.elements, on_weight.elements)}

    face_codes = {e: bytes([i if i in face else n for i in range(n)] + [n])
                  for e, face in faces.items()}
    rows: list[ClassRow] = []
    # Per idempotent f, the sim row of each restriction of a unit to F_f.
    row_at: dict[CrossIdempotent, dict[bytes, int]] = {}
    offset = 0
    for e, (_, roots, coset_min) in zip(lattice.idempotents, _coset_orbits(lattice)):
        face_count = lattice.weyl_order // lattice.centralizer_order(e)
        first_row = {}
        for root, orbit_size in Counter(roots).items():  # roots ascend
            u = coset_min[root]
            if e.is_zero:
                label = "0"
            else:
                label = word_times_face(u.word, None if len(faces[e]) == n else e.label)
            code = face_codes[e].translate(table[u.word])
            first_row[root] = len(rows)
            rows.append(ClassRow(offset + root, e.label, orbit_size * face_count, code, label))
        if kind != "sim":
            row_at[e] = {face_codes[e].translate(table[v.word]): first_row[root]
                         for v, root in zip(coset_min, roots)}
        offset += lattice.stratum_size(e)
    if kind == "sim":
        return tuple(rows)

    at_face = _faces_by_domain(on_weight, face_codes, row_at)
    domain_of = bytes([1]) * n + bytes(256 - n)  # a code's defined points

    def sim_of(z: bytes, face: bytes) -> int:
        """The sim row of z, conjugated by the unit at ``face``, z's domain
        or a face inside it."""
        t, t_inv, rows_at_f = at_face[face]
        return rows_at_f[t.translate(z + pad).translate(t_inv)]

    if kind == "munn":
        labels = [sim_of(row.code, _stable_power(row.code).translate(domain_of)) for row in rows]
    else:
        # Every idempotent but the zero and the identity, which fix each y,
        # with its face's points as an integer mask, a byte per point.
        every = bytes(range(n + 1))
        idempotents = []
        for mask, (t, t_inv, _) in at_face.items():
            if 0 < mask.count(1) < n:
                e_code = t_inv[: n + 1].translate(t + pad)  # t e_F t^-1, the identity on t F
                idempotents.append((int.from_bytes(mask, "little"), e_code, e_code + pad))
        # bytes.maketrans(y, hit) sends the values of y, its image and the
        # undefined n, to 255, which no point is, and every other point to
        # itself; on_image then reads 255 as 1 and the rest as 0.
        hit, on_image = bytes([255]) * (n + 1), bytes(255) + bytes([1])
        uf = UnionFind(len(rows))
        for i, row in enumerate(rows):
            y = row.code
            y_table = y + pad
            # A product of y with e_G depends on G only through G's points in
            # the domain and image of y, so faces alike there are tried once.
            image = every.translate(bytes.maketrans(y, hit)).translate(on_image)
            moved = (int.from_bytes(y.translate(domain_of), "little")
                     | int.from_bytes(image, "little"))
            if kind == "semigroup":
                cuts = {points & moved: (e_code, e_table)
                        for points, e_code, e_table in idempotents}
                for e_code, e_table in cuts.values():
                    left, right = e_code.translate(y_table), y.translate(e_table)
                    if left != right:
                        uf.union(sim_of(left, left.translate(domain_of)),
                                 sim_of(right, right.translate(domain_of)))
            else:
                stable = int.from_bytes(_stable_power(y).translate(domain_of), "little")
                cuts = {points & moved: (e_code, e_table)
                        for points, e_code, e_table in idempotents
                        if points & stable == stable}
                for e_code, e_table in cuts.values():
                    z = e_code.translate(y_table).translate(e_table)
                    if z != y:
                        uf.union(i, sim_of(z, z.translate(domain_of)))
        labels = [uf.find(i) for i in range(len(rows))]

    merged: dict[int, ClassRow] = {}
    for row, label in zip(rows, labels):  # ascending least elements
        first = merged.get(label)
        merged[label] = row if first is None else replace(first, size=first.size + row.size)
    if kind == "munn":
        return tuple(merged.values())
    return tuple(replace(row, stratum=None) for row in merged.values())


def _faces_by_domain(
    on_weight: WeylGroup,
    face_codes: dict[CrossIdempotent, bytes],
    row_at: dict[CrossIdempotent, dict[bytes, int]],
) -> dict[bytes, tuple[bytes, bytes, dict[bytes, int]]]:
    """Every face of the weight orbit, keyed by its points as a 0/1 mask
    (a code translated by 1 on defined points, 0 on the undefined one): the
    code of t restricted to F_f, the table of t^-1, and ``row_at[f]``, for
    the idempotent f whose face orbit holds it and a unit t carrying F_f
    onto it.

    Each orbit is a breadth-first search from F_f by the simple
    reflections, each its own inverse, so s moves a face's mask by one
    translation and t to s t by another.
    """
    n = on_weight.degree
    pad = bytes(MAX_DEGREE - n)
    every = bytes(range(n + 1))
    domain_of = bytes([1]) * n + bytes(256 - n)
    codes = [bytes(g.perm) + bytes([n]) for g in on_weight.generators]
    moves = [(code, code + pad) for code in codes]
    at_face: dict[bytes, tuple[bytes, bytes, dict[bytes, int]]] = {}
    for f, base in face_codes.items():
        rows_at_f = row_at[f]
        start = base.translate(domain_of)
        if start in at_face:
            raise ConstructionError("face orbits of distinct idempotents overlap")
        at_face[start] = base, bytes(range(256)), rows_at_f
        orbit = [(start, every)]
        for mask, t in orbit:  # grows while we iterate
            mask_table = mask + pad
            for s_code, s_table in moves:
                moved = s_code.translate(mask_table)
                if moved in at_face:
                    if at_face[moved][2] is not rows_at_f:
                        raise ConstructionError("face orbits of distinct idempotents overlap")
                    continue
                st = t.translate(s_table)
                at_face[moved] = base.translate(st + pad), bytes.maketrans(st, every), rows_at_f
                orbit.append((moved, st))
    return at_face


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

    The ``classes`` command lists these classes by ``lattice_class_rows``,
    on the unit-conjugacy classes and without the monoid; this
    element-level pass is the independent check of that route, and library
    API for callers that hold a monoid.
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

    The ``classes`` command lists these classes by ``lattice_class_rows``,
    on the unit-conjugacy classes and without the monoid; this
    element-level pass is the independent check of that route, and library
    API for callers that hold a monoid.
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
