"""Renner monoids of J-irreducible type, built inside the rook monoid on a
weight orbit.

By the Renner decomposition R is the disjoint union of the strata W e W
over the cross-section lattice, and u*e*v is the unit uv restricted to the
face v^{-1}(F_e); the monoid is built by enumerating these restrictions.
Every nonzero element factors as (partial identity on its range) * unit *
(partial identity on its domain); the shortest, lex-least unit restricting
to it makes that normal form canonical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Sequence

from .crosslat import CrossIdempotent, CrossSectionLattice, build_lattice
from .errors import ConstructionError, NotInOrbit, SizeCapExceeded, ZeroElement
from .partialinj import MAX_DEGREE, PartialInjection, compose, inverse, stable_domain
from .rootsys import DEFAULT_MAX_GROUP_ORDER, CartanMatrix, Weight, WeylElement, WeylGroup
from .rootsys import bfs_orbit, generate_weyl

DEFAULT_MAX_MONOID_ORDER = 250_000


@dataclass(frozen=True)
class NormalForm:
    """sigma = e_range * unit * e_domain with the canonical unit (the
    shortest, lex-least one agreeing with sigma on its domain)."""

    range_face: frozenset[int]
    unit: WeylElement
    domain_face: frozenset[int]


@dataclass(frozen=True)
class FaceTransporter:
    """Shortest-unit partial map carrying a lattice face onto a face of its
    orbit; ``map`` is the unit restricted to the base face."""

    target_face: frozenset[int]
    base_face: frozenset[int]
    unit: WeylElement
    map: PartialInjection


class RennerMonoid:
    """A Renner monoid as a concrete set of partial injections on the
    weight orbit ``vertices``; ``unit_for`` realizes each element of the
    lattice's Weyl group ``group`` as a unit there.

    ``elements`` lists the strata in lattice order, so the zero comes first
    and the units last, in ``group.elements`` order.  Each stratum is one
    contiguous index range, ordered by domain face in face-orbit order, then
    by canonical unit in (length, word) order.  ``canonical_units`` is
    aligned with ``elements``, ``index_by_code`` maps each element's byte
    code to its index, and ``transporters`` maps every face to the
    shortest unit carrying its lattice face onto it.  Everything is fixed at
    construction, so instances are safe to share.
    """

    def __init__(
        self,
        lattice: CrossSectionLattice,
        vertices: tuple[Weight, ...],
        elements: tuple[PartialInjection, ...],
        canonical_units: tuple[WeylElement, ...],
        face_orbits: dict[int, tuple[frozenset[int], ...]],
        strata: dict[int, tuple[int, ...]],
        transporters: dict[frozenset[int], FaceTransporter],
    ):
        group = lattice.group
        self.group = group
        self.lattice = lattice
        self.vertices = vertices
        self.elements = elements
        self.canonical_units = canonical_units
        self.face_orbits = face_orbits
        self.face_to_idem = {f: e for e in lattice for f in face_orbits[e.index]}
        self.strata = strata
        self.transporters = transporters
        self.index_by_code = {p.code: i for i, p in enumerate(elements)}
        self.units = tuple(elements[i] for i in strata[lattice.one.index])
        self._unit_by_perm = {w.perm: u for w, u in zip(group.elements, self.units)}
        # Each stratum opens with e's own face under the identity: e itself.
        self._idem_maps = {e.index: elements[strata[e.index][0]] for e in lattice.idempotents}
        self.zero = self._idem_maps[lattice.zero.index]
        self.one = self.units[0]
        unit_gens = [self.unit_for(g) for g in group.generators]
        # Drops repeats, keeps first-seen order.
        self.generators = tuple(dict.fromkeys(unit_gens + list(self._idem_maps.values())))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def degree(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, sigma: PartialInjection) -> bool:
        return sigma.code in self.index_by_code

    def index_of(self, sigma: PartialInjection) -> int:
        return self.index_by_code[sigma.code]

    def face(self, e: CrossIdempotent) -> frozenset[int]:
        """The orbit of the weight (vertex 0) under e's lambda_star
        parabolic; empty for e = 0."""
        return self.face_orbits[e.index][0]

    def unit_for(self, w: WeylElement) -> PartialInjection:
        return self._unit_by_perm[w.perm]

    def idempotent_map(self, e: CrossIdempotent) -> PartialInjection:
        """The partial identity on the face of e (zero map for e = 0)."""
        return self._idem_maps[e.index]

    def stratum_of(self, sigma: PartialInjection) -> CrossIdempotent:
        """The lattice idempotent whose double coset contains sigma."""
        return self.face_to_idem[sigma.domain]


def check_monoid_cap(lattice: CrossSectionLattice, max_monoid_order: int) -> None:
    """Refuse, before any element is made, a monoid whose closed-form order
    passes the cap."""
    order = lattice.monoid_order
    if order > max_monoid_order:
        raise SizeCapExceeded(
            f"Renner monoid of order {order} exceeds the cap {max_monoid_order}"
        )


def realize_on_weight(
    lattice: CrossSectionLattice,
) -> tuple[WeylGroup, dict[CrossIdempotent, frozenset[int]]]:
    """The lattice's Weyl group realized again on the orbit of the weight,
    and the face of each idempotent there (empty for the zero).

    Element i of the realization is element i of the lattice's group: both
    are in (length, lex-least word) order, which is checked.  Each face is
    the orbit of the weight (vertex 0) under the lambda_star generators.  A
    weight orbit past ``MAX_DEGREE`` points, which no byte code holds, is
    refused as soon as it is generated; face inclusion must be the lattice
    order, and the top face must be the whole orbit.
    """
    group = lattice.group
    # The orbit has at most |W| points, and |W| passed the group cap.
    on_weight = generate_weyl(group.cartan, lattice.weight_spec.mu, max_order=group.order)
    degree = on_weight.degree
    if degree > MAX_DEGREE:
        raise SizeCapExceeded(f"weight orbit of degree {degree} exceeds {MAX_DEGREE} points")
    if [w.word for w in on_weight.elements] != [w.word for w in group.elements]:
        raise ConstructionError("the weight orbit lists the Weyl group in another order")

    def seed_orbit(indices: frozenset[int]) -> frozenset[int]:
        moves = [on_weight.generators[j].perm.__getitem__ for j in indices]
        return frozenset(bfs_orbit(0, moves))

    faces = {e: seed_orbit(e.lambda_star) for e in lattice.nonzero}
    for e, face in faces.items():
        # The lambda_sub generators fix the weight, so the lambda orbit must
        # collapse to the lambda_star orbit.
        if seed_orbit(e.lambda_set) != face:
            raise ConstructionError(f"face of {e.label} moves under its stabilizer")
        for f, other in faces.items():
            if (e.lambda_star <= f.lambda_star) != (face <= other):
                raise ConstructionError(
                    "lattice order mismatch between lambda_star and face inclusion"
                )
    if faces[lattice.one] != frozenset(range(degree)):
        raise ConstructionError("top idempotent face is not the whole vertex set")
    faces[lattice.zero] = frozenset()
    return on_weight, faces


def build_renner(
    cartan: CartanMatrix,
    mu: Sequence[int],
    *,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
    max_monoid_order: int = DEFAULT_MAX_MONOID_ORDER,
) -> RennerMonoid:
    """Build the Renner monoid of the J-irreducible monoid with highest
    weight ``mu`` over the given Cartan type.

    The Weyl group and the faces are realized on the orbit of ``mu`` by
    ``realize_on_weight``.

    Each stratum W e W is enumerated as the units restricted to the faces of
    the orbit of e's face (the empty face giving the zero map), faces in
    orbit order and units in (length, word) order.  The first unit to give a
    map is its canonical unit; on e's own face, the first unit carrying it
    onto a face is that face's transporter.  The cap is checked against the
    closed-form order before the weight orbit is generated, and every
    stratum must have its closed-form size.
    """
    lattice = build_lattice(cartan, mu, max_group_order=max_group_order)
    check_monoid_cap(lattice, max_monoid_order)
    group = lattice.group
    on_weight, faces = realize_on_weight(lattice)
    degree = on_weight.degree

    elements: list[PartialInjection] = []
    canonical_units: list[WeylElement] = []
    seen_faces: set[frozenset[int]] = set()
    face_orbits: dict[int, tuple[frozenset[int], ...]] = {}
    strata: dict[int, tuple[int, ...]] = {}
    transporters: dict[frozenset[int], FaceTransporter] = {}
    face_moves = [partial(_move_face, g.perm) for g in on_weight.generators]
    unit_tables = [PartialInjection.from_targets(u.perm).table for u in on_weight.elements]
    for e in lattice.idempotents:  # lattice order, the zero first
        base = faces[e]
        orbit = bfs_orbit(base, face_moves)
        start = len(elements)
        for face in orbit:
            if face in seen_faces:
                raise ConstructionError("face orbits of distinct idempotents overlap")
            seen_faces.add(face)
            face_code = PartialInjection.partial_identity(degree, face).code
            made: set[bytes] = set()
            for w, table in zip(group.elements, unit_tables):  # (length, word) order
                # The unit after the face's identity: both codes were checked,
                # and a permutation after a partial identity is injective.
                code = face_code.translate(table)
                if code in made:
                    continue
                made.add(code)
                sigma = PartialInjection._trusted(code)
                elements.append(sigma)
                canonical_units.append(w)
                # The first unit with a given image of e's face makes a new map.
                if face == base and (image := sigma.image) not in transporters:
                    transporters[image] = FaceTransporter(image, face, w, sigma)
        face_orbits[e.index] = orbit
        strata[e.index] = tuple(range(start, len(elements)))
        # The top stratum's closed-form size is |W|, so this also pins the units.
        if len(strata[e.index]) != lattice.stratum_size(e):
            raise ConstructionError(f"stratum {e.label} differs from its closed-form size")

    return RennerMonoid(
        lattice, on_weight.vertex_orbit, tuple(elements), tuple(canonical_units),
        face_orbits, strata, transporters,
    )


def _move_face(perm: tuple[int, ...], face: frozenset[int]) -> frozenset[int]:
    return frozenset(perm[i] for i in face)


def normal_form(monoid: RennerMonoid, sigma: PartialInjection) -> NormalForm:
    """Factor a nonzero element through its domain and range faces.

    The unit is the (length, word)-least one agreeing with sigma on its
    domain, recorded when the build made sigma, so the form is
    deterministic; the zero element is rejected.  The element-level
    classifications label their representatives through it; the lattice
    route of ``classes`` reads the same unit off its coset instead.
    """
    if sigma == monoid.zero:
        raise ZeroElement("the zero element has no normal form")
    if sigma not in monoid:
        raise ValueError("element does not belong to the monoid")
    unit = monoid.canonical_units[monoid.index_of(sigma)]
    return NormalForm(sigma.image, unit, sigma.domain)


def subrank(monoid: RennerMonoid, sigma: PartialInjection) -> CrossIdempotent:
    """The lattice idempotent whose stratum holds the invertible part of
    sigma; the zero idempotent when the stable domain is empty."""
    if sigma not in monoid:
        raise ValueError("element does not belong to the monoid")
    face = stable_domain(sigma)
    e = monoid.face_to_idem.get(face)
    if e is None:
        raise ConstructionError("stable domain is not a lattice face")
    return e


def face_transporter(
    monoid: RennerMonoid, base: Iterable[int], target: Iterable[int]
) -> FaceTransporter:
    """The shortest unit carrying the lattice face ``base`` onto ``target``.

    The base must be the face of a lattice idempotent; the target must lie in
    its orbit, else ``NotInOrbit``.  The minimal-length mover is unique; the
    build recorded it as the first unit in (length, word) order to carry the
    base onto the target.
    """
    base = frozenset(base)
    target = frozenset(target)
    owner = monoid.face_to_idem.get(base)
    if owner is None or monoid.face(owner) != base:
        raise ValueError("base must be the face of a lattice idempotent")
    if monoid.face_to_idem.get(target) is not owner:
        raise NotInOrbit(f"face {sorted(target)} is not in the orbit of {sorted(base)}")
    return monoid.transporters[target]


def project(monoid: RennerMonoid, sigma: PartialInjection) -> PartialInjection:
    """Transport a nonzero element back to a bijection of its stratum's
    lattice face (an element of the realized lambda_star subgroup).

    Units project to themselves; conjugating by the transporters preserves
    products of composable pairs within a stratum.  No command calls it: a
    Munn-class oracle of the tests and the benchmark's micro-timings do.
    """
    if sigma == monoid.zero:
        raise ZeroElement("the zero element has no projection")
    if sigma not in monoid:
        raise ValueError("element does not belong to the monoid")
    to_dom = monoid.transporters[sigma.domain]
    to_rng = monoid.transporters[sigma.image]
    return compose(inverse(to_rng.map), compose(sigma, to_dom.map))


def element_label(monoid: RennerMonoid, sigma: PartialInjection) -> str:
    """Readable name: unit word times the domain-face name, e.g. "s1s2*e_0"."""
    if sigma == monoid.zero:
        return "0"
    form = normal_form(monoid, sigma)
    if len(form.domain_face) == monoid.degree:
        return word_times_face(form.unit.word, None)
    idem = monoid.face_to_idem[form.domain_face]
    if form.domain_face == monoid.face(idem):
        face = idem.label
    else:
        face = "e[" + ",".join(str(i) for i in sorted(form.domain_face)) + "]"
    return word_times_face(form.unit.word, face)


def word_times_face(word: Sequence[int], face: Optional[str]) -> str:
    """The label of a nonzero element from its unit's word and its domain
    face's name (None for a unit): "1" for the empty word, the face alone
    under it.

    >>> word_times_face((0, 1), "e_0"), word_times_face((), "e_0"), word_times_face((), None)
    ('s1s2*e_0', 'e_0', '1')
    """
    name = "".join(f"s{i + 1}" for i in word) or "1"
    if face is None:
        return name
    return face if name == "1" else f"{name}*{face}"


def monoid_to_json(monoid: RennerMonoid) -> str:
    """The export text: ``vertices``, ``generators``, ``elements`` (each a
    list of [source, target] pairs sorted by source) and ``strata`` (label
    to element indices), exactly as ``json.dumps(doc, indent=2,
    sort_keys=True)`` writes that document.

    Each element is written from its byte code and one table of per-pair
    fragments; the elements sharing a domain share the list of its rows.
    """
    n = monoid.degree
    # rows[i][t]: the pair [i, t] as written at element depth.
    rows = [[f"[\n        {i},\n        {t}\n      ]" for t in range(n)] for i in range(n)]
    defined = bytes(t < n for t in range(256))
    undefined = bytes([n])
    domain_rows: dict[bytes, list[list[str]]] = {}

    def pairs(sigma: PartialInjection) -> str:
        code = sigma.code
        mask = code.translate(defined)
        picked = domain_rows.get(mask)
        if picked is None:
            picked = domain_rows[mask] = [row for row, d in zip(rows, mask) if d]
        # Deleting the undefined bytes leaves the targets in source order.
        return _json_block(map(list.__getitem__, picked, code.translate(None, undefined)), 4)

    strata = {e.label: monoid.strata[e.index] for e in monoid.lattice.idempotents}
    # The keys in sorted order; each block is joined once, from an iterator,
    # so at most one list of element texts is alive.
    return "".join([
        '{\n  "elements": ', _json_block(map(pairs, monoid.elements), 2),
        ',\n  "generators": ', _json_block(map(pairs, monoid.generators), 2),
        ',\n  "strata": ', _json_block(
            (f"{json.dumps(k)}: {_json_block(map(str, strata[k]), 4)}" for k in sorted(strata)),
            2, "{}",
        ),
        ',\n  "vertices": ', _json_block((_json_block(map(str, v), 4) for v in monoid.vertices), 2),
        "\n}",
    ])


def _json_block(items: Iterable[str], indent: int, brackets: str = "[]") -> str:
    """A list (or, with ``brackets="{}"``, an object) at ``indent`` whose
    ``items`` are already written one level deeper, as ``json.dumps(...,
    indent=2)`` writes it."""
    inner = "\n" + " " * (indent + 2)
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}\n{' ' * indent}{brackets[1]}" if body else brackets
