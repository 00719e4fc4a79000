"""Renner monoids of J-irreducible type, built inside the rook monoid on a
weight orbit.

By the Renner decomposition R is the disjoint union of the strata W e W
over the cross-section lattice, and u*e*v is the unit uv restricted to the
face v^{-1}(F_e).  ``face_layout`` is the one reading of the weight orbit:
it realizes W there and walks every face orbit once, recording each face's
idempotent and transporter.  The monoid is built by enumerating the
restrictions face by face, its export is written from the same enumeration
without building it, and the lattice route of ``classes`` reads the same
faces.
Every nonzero element factors as (partial identity on its range) * unit *
(partial identity on its domain); the shortest, lex-least unit restricting
to it makes that normal form canonical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .crosslat import CrossIdempotent, CrossSectionLattice, build_lattice
from .errors import ConstructionError, NotInOrbit, SizeCapExceeded, ZeroElement
from .partialinj import MAX_DEGREE, PartialInjection, compose, inverse, stable_domain
from .rootsys import DEFAULT_MAX_GROUP_ORDER, CartanMatrix, Weight, WeylElement
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
    aligned with ``elements``, and ``index_by_code`` maps each element's byte
    code to its index.  ``layout`` is the face layout the build read;
    ``face_orbits`` lists each idempotent's face orbit from it, as point
    sets, and ``transporters`` maps every face to the transporter the walk
    found for it, the shortest unit carrying its lattice face onto it.
    Everything is fixed at construction, so instances are safe to share.
    """

    def __init__(
        self,
        lattice: CrossSectionLattice,
        layout: FaceLayout,
        elements: tuple[PartialInjection, ...],
        canonical_units: tuple[WeylElement, ...],
        strata: dict[int, tuple[int, ...]],
    ):
        group = lattice.group
        self.group = group
        self.lattice = lattice
        self.layout = layout
        self.vertices = layout.vertices
        self.elements = elements
        self.canonical_units = canonical_units
        self.strata = strata
        orbits: dict[int, list[frozenset[int]]] = {e.index: [] for e in lattice.idempotents}
        self.face_to_idem: dict[frozenset[int], CrossIdempotent] = {}
        self.transporters: dict[frozenset[int], FaceTransporter] = {}
        for face in layout.faces.values():
            t = PartialInjection._trusted(face.map)
            target = t.image
            orbits[face.owner.index].append(target)
            self.face_to_idem[target] = face.owner
            unit = group.elements[face.unit]
            self.transporters[target] = FaceTransporter(target, t.domain, unit, t)
        self.face_orbits = {i: tuple(orbit) for i, orbit in orbits.items()}
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


class Face(NamedTuple):
    """A face of the weight orbit as ``face_layout``'s walk reaches it:
    ``owner``, the lattice idempotent f whose face orbit holds it, and its
    transporter t, the shortest unit carrying F_f onto it, given by t's
    position in (length, word) order (its table is ``unit_tables[unit]``),
    the code of t restricted to F_f and the table of t^-1.  F_f itself has
    the identity, position 0."""

    owner: CrossIdempotent
    unit: int
    map: bytes
    inverse: bytes

    @property
    def identity(self) -> bytes:
        """The code of the partial identity on the face: t|F_f after t^-1."""
        pad = bytes(MAX_DEGREE + 1 - len(self.map))
        return self.inverse[: len(self.map)].translate(self.map + pad)


@dataclass(frozen=True)
class FaceLayout:
    """The faces and unit tables the build, the export and ``classes`` read
    off the weight orbit, checked before any element is made.

    ``unit_tables`` holds each unit's 256-byte translation table by its
    position in (length, word) order.  ``faces`` maps every face, as a 0/1
    mask of n + 1 bytes (1 on its points), to its ``Face``, in walk order:
    the idempotents in lattice order, the zero first, each face orbit in
    BFS order from the idempotent's own face.
    """

    vertices: tuple[Weight, ...]
    unit_tables: tuple[bytes, ...]
    faces: dict[bytes, Face]

    @property
    def degree(self) -> int:
        return len(self.vertices)


def face_layout(lattice: CrossSectionLattice) -> FaceLayout:
    """Realize the lattice's Weyl group on the orbit of the weight, walk
    each idempotent's face orbit, and check the layout of R against the
    lattice before any element is made.

    Element i of the realization is element i of the lattice's group: both
    are in (length, lex-least word) order, which is checked.  A weight orbit
    past ``MAX_DEGREE`` points, which no byte code holds, is refused as soon
    as it is generated.  Each idempotent's face is the orbit of the weight
    (vertex 0) under its lambda_star generators, which its lambda_sub
    generators must not move; face inclusion must be the lattice order, and
    the top face must be the whole orbit.

    Each face orbit is a breadth-first walk from F_e by the simple
    reflections: s moves a face's mask by one translation, and carries the
    transporter at position k to ``left[s][k]``.  The face orbits of
    distinct idempotents must be disjoint.  Each stratum W e W is the set of
    units restricted to the faces of the orbit of F_e, so its size is
    len(orbit) times the number of distinct restrictions of W to one face
    of it.  That number is the same on every face: a face of the orbit is
    t(F_e) for a unit t, so its pointwise fixer is t Fix(F_e) t^-1, of the
    same order, and W restricts to |W| / |Fix| maps on it.  So len(orbit)
    times the restrictions to F_e alone must equal
    ``lattice.stratum_size(e)``, and then the per-face scan of
    ``build_renner`` and the export makes exactly that many elements.  The
    top stratum's closed-form size is |W|, so this also pins the units.
    """
    group = lattice.group
    # The orbit has at most |W| points, and |W| passed the group cap.
    on_weight = generate_weyl(group.cartan, lattice.weight_spec.mu, max_order=group.order)
    n = on_weight.degree
    if n > MAX_DEGREE:
        raise SizeCapExceeded(f"weight orbit of degree {n} exceeds {MAX_DEGREE} points")
    if [w.word for w in on_weight.elements] != [w.word for w in group.elements]:
        raise ConstructionError("the weight orbit lists the Weyl group in another order")
    pad = bytes(MAX_DEGREE - n)
    unit_tables = tuple(bytes(u.perm) + bytes([n]) + pad for u in on_weight.elements)

    def seed_face(indices: frozenset[int]) -> frozenset[int]:
        moves = [on_weight.generators[j].perm.__getitem__ for j in indices]
        return frozenset(bfs_orbit(0, moves))

    seeds = {e: seed_face(e.lambda_star) for e in lattice.nonzero}
    for e, face in seeds.items():
        # The lambda_sub generators fix the weight, so the lambda orbit must
        # collapse to the lambda_star orbit.
        if seed_face(e.lambda_set) != face:
            raise ConstructionError(f"face of {e.label} moves under its stabilizer")
        for f, other in seeds.items():
            if (e.lambda_star <= f.lambda_star) != (face <= other):
                raise ConstructionError(
                    "lattice order mismatch between lambda_star and face inclusion"
                )
    if len(seeds[lattice.one]) != n:
        raise ConstructionError("top idempotent face is not the whole vertex set")
    seeds[lattice.zero] = frozenset()

    left = group.left
    every = bytes(range(n + 1))
    domain_of = bytes([1]) * n + bytes(MAX_DEGREE + 1 - n)  # a code's defined points
    moves = [(j, bytes(g.perm) + bytes([n])) for j, g in enumerate(on_weight.generators)]
    faces: dict[bytes, Face] = {}
    for e in lattice.idempotents:
        identity = bytearray([n]) * (n + 1)
        for i in seeds[e]:
            identity[i] = i
        code = bytes(identity)  # the identity on F_e
        base = code.translate(domain_of)
        if base in faces:
            # W-orbits are equal or disjoint, and each earlier walk took its
            # whole orbit: so the orbits meet exactly when F_e is taken.
            raise ConstructionError("face orbits of distinct idempotents overlap")
        faces[base] = Face(e, 0, code, bytes(range(MAX_DEGREE + 1)))
        orbit = [(base, 0)]  # each face's mask and its transporter's position
        for mask, k in orbit:  # grows while we iterate
            mask_table = mask + pad
            for j, s in moves:
                moved = s.translate(mask_table)
                if moved not in faces:
                    t = left[j][k]
                    table = unit_tables[t]
                    t_inv = bytes.maketrans(table[: n + 1], every)
                    faces[moved] = Face(e, t, code.translate(table), t_inv)
                    orbit.append((moved, t))
        if len(orbit) * len(set(map(code.translate, unit_tables))) != lattice.stratum_size(e):
            raise ConstructionError(f"stratum {e.label} differs from its closed-form size")
    return FaceLayout(on_weight.vertex_orbit, unit_tables, faces)


def _restrictions(face_code: bytes, unit_tables: Sequence[bytes]) -> dict[bytes, int]:
    """The distinct restrictions of the units to a face, given by its
    partial-identity code: each map's byte code, in (length, word) order of
    the first unit making it, with that unit's position.  A permutation
    after a partial identity is injective, so every code is valid."""
    made: dict[bytes, int] = {}
    for k, table in enumerate(unit_tables):
        made.setdefault(face_code.translate(table), k)
    return made


def _scan(layout: FaceLayout) -> Iterator[tuple[Face, dict[bytes, int]]]:
    """Each face with its restrictions, in the order of R's elements: the
    faces in walk order, and on each face the restrictions in (length,
    word) order of their first unit."""
    for face in layout.faces.values():
        yield face, _restrictions(face.identity, layout.unit_tables)


def build_renner(
    cartan: CartanMatrix,
    mu: Sequence[int],
    *,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
    max_monoid_order: int = DEFAULT_MAX_MONOID_ORDER,
) -> RennerMonoid:
    """Build the Renner monoid of the J-irreducible monoid with highest
    weight ``mu`` over the given Cartan type.

    The Weyl group, the faces and their transporters come from
    ``face_layout``, which checks them against the closed-form stratum
    sizes.  Each stratum W e W is enumerated as the units restricted to the
    faces of the orbit of e's face (the empty face giving the zero map), in
    the order of ``_scan``; the first unit to give a map is its canonical
    unit.  The cap is checked against the closed-form order before the
    weight orbit is generated, and every stratum must have its closed-form
    size.
    """
    lattice = build_lattice(cartan, mu, max_group_order=max_group_order)
    check_monoid_cap(lattice, max_monoid_order)
    layout = face_layout(lattice)
    units = lattice.group.elements

    elements: list[PartialInjection] = []
    canonical_units: list[WeylElement] = []
    strata: dict[int, tuple[int, ...]] = {}
    stops: dict[int, int] = {}
    for face, made in _scan(layout):
        for code, k in made.items():
            elements.append(PartialInjection._trusted(code))
            canonical_units.append(units[k])
        stops[face.owner.index] = len(elements)
    start = 0
    for e in lattice.idempotents:
        strata[e.index] = tuple(range(start, stops[e.index]))
        start = stops[e.index]
        if len(strata[e.index]) != lattice.stratum_size(e):
            raise ConstructionError(f"stratum {e.label} differs from its closed-form size")

    return RennerMonoid(lattice, layout, tuple(elements), tuple(canonical_units), strata)


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


def iter_export(lattice: CrossSectionLattice) -> Iterator[str]:
    """The export text of R, in pieces: ``vertices``, ``generators``,
    ``elements`` (each a list of [source, target] pairs sorted by source)
    and ``strata`` (label to element indices), exactly as
    ``json.dumps(doc, indent=2, sort_keys=True)`` writes that document.

    ``face_layout`` runs before the first piece, so a failed check writes
    nothing; ``_export_pieces`` writes the rest from it.
    """
    yield from _export_pieces(lattice, face_layout(lattice))


def _export_pieces(lattice: CrossSectionLattice, layout: FaceLayout) -> Iterator[str]:
    """The export text, one piece per face, in the order of ``_scan``, then
    a closing piece.  The elements are written from their byte codes: no
    element object is made and no piece is kept.

    On a fixed face each element is written from the rows of the face's
    sources, indexed by the code's targets.  The generators (the simple
    reflections' units, then each idempotent on its own face), the strata
    (ranges of the closed-form sizes) and the vertices close the text.
    """
    n = layout.degree
    # rows[i][t]: the pair [i, t] as written at element depth.
    rows = [[f"[\n        {i},\n        {t}\n      ]" for t in range(n)] for i in range(n)]
    undefined = bytes([n])

    def written(sources: bytes, codes: Iterable[bytes]) -> str:
        """The elements ``codes``, each defined on the points ``sources``
        (ascending)."""
        if not sources:
            return ",\n    ".join("[]" for _ in codes)
        picked = [rows[i] for i in sources]
        # ``_json_block(..., 4)`` written out: a call per element costs a
        # quarter of the text's time.  Deleting the undefined bytes leaves
        # the targets in source order.
        return ",\n    ".join([
            "[\n      " + ",\n      ".join(map(list.__getitem__, picked, code.translate(None, undefined)))
            + "\n    ]"
            for code in codes
        ])

    separator = '{\n  "elements": [\n    '
    for face, made in _scan(layout):
        # Deleting the undefined bytes from a partial identity leaves its
        # points in order.
        yield separator + written(face.identity.translate(None, undefined), made)
        separator = ",\n    "

    # The units of the simple reflections (units 1..rank in (length, word)
    # order), then each idempotent on its own face, the one whose
    # transporter is the identity; drops repeats, keeps first-seen order.
    everything = bytes(range(n))
    generators = dict.fromkeys(
        [(everything, table[: n + 1]) for table in layout.unit_tables[1 : lattice.cartan.rank + 1]]
        + [(face.map.translate(None, undefined), face.map)
           for face in layout.faces.values() if face.unit == 0]
    )
    strata, start = {}, 0
    for e in lattice.idempotents:
        size = lattice.stratum_size(e)
        strata[e.label] = range(start, start + size)
        start += size
    yield "".join([
        '\n  ],\n  "generators": ', _json_block((written(s, [c]) for s, c in generators), 2),
        ',\n  "strata": ', _json_block(
            (f"{json.dumps(k)}: {_json_block(map(str, strata[k]), 4)}" for k in sorted(strata)),
            2, "{}",
        ),
        ',\n  "vertices": ', _json_block((_json_block(map(str, v), 4) for v in layout.vertices), 2),
        "\n}",
    ])


def monoid_to_json(monoid: RennerMonoid) -> str:
    """The export text of ``monoid``, as ``iter_export`` writes it for its
    lattice, from the face layout the build kept."""
    return "".join(_export_pieces(monoid.lattice, monoid.layout))


def _json_block(items: Iterable[str], indent: int, brackets: str = "[]") -> str:
    """A list (or, with ``brackets="{}"``, an object) at ``indent`` whose
    ``items`` are already written one level deeper, as ``json.dumps(...,
    indent=2)`` writes it."""
    inner = "\n" + " " * (indent + 2)
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}\n{' ' * indent}{brackets[1]}" if body else brackets
