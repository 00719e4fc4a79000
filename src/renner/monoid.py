"""Renner monoids of J-irreducible type, built inside the rook monoid on a
weight orbit.

By the Renner decomposition R is the disjoint union of the strata W e W
over the cross-section lattice, and u*e*v is the unit uv restricted to the
face v^{-1}(F_e).  ``face_layout`` is the one reading of the weight orbit:
it carries W there along the group's BFS steps and walks every face orbit
once, recording each face's idempotent and transporter.  The monoid is
built by enumerating the restrictions face by face, its export is written
from the same enumeration without building it, and the lattice route of
``classes`` reads the same faces.
Every nonzero element factors as (partial identity on its range) * unit *
(partial identity on its domain); the shortest, lex-least unit restricting
to it makes that normal form canonical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, cycle, islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .crosslat import CrossIdempotent, CrossSectionLattice, build_lattice
from .errors import ConstructionError, SizeCapExceeded, ZeroElement
from .partialinj import MAX_DEGREE, PartialInjection, inverse
from .rootsys import DEFAULT_MAX_GROUP_ORDER, CartanMatrix, Weight, WeylElement
from .rootsys import bfs_orbit, reflection_perms, weight_orbit

DEFAULT_MAX_MONOID_ORDER = 250_000


class RennerMonoid:
    """A Renner monoid as a concrete set of partial injections on the
    weight orbit ``vertices``, read through the face layout ``layout`` it
    was built from; ``unit_for`` realizes each element of the lattice's
    Weyl group ``group`` as a unit there.

    ``elements`` lists the strata in lattice order, so the zero comes first
    and the units last, in ``group.elements`` order.  Each stratum is one
    contiguous index range, ``strata[e.index]``, of its closed-form size,
    ordered by domain face in the layout's walk order, then by canonical
    unit in (length, word) order.  ``canonical_units`` is aligned with
    ``elements``, and ``index_by_code`` maps each element's byte code to its
    index.  An element's domain is a face of the layout, and the layout's
    record of it gives the element's stratum, its face's name and the
    transporter ``project`` conjugates by.  Everything is fixed at
    construction, so instances are safe to share.
    """

    def __init__(
        self,
        lattice: CrossSectionLattice,
        layout: FaceLayout,
        elements: tuple[PartialInjection, ...],
        canonical_units: tuple[WeylElement, ...],
    ):
        group = lattice.group
        self.group = group
        self.lattice = lattice
        self.layout = layout
        self.vertices = layout.vertices
        self.elements = elements
        self.canonical_units = canonical_units
        self.strata = {e.index: r for e, r in _stratum_ranges(lattice)}
        self.index_by_code = {p.code: i for i, p in enumerate(elements)}
        self.units = elements[self.strata[lattice.one.index].start :]
        self._unit_by_perm = {w.perm: u for w, u in zip(group.elements, self.units)}
        # Each stratum opens with e's own face under the identity: e itself.
        self._idem_maps = {i: elements[r.start] for i, r in self.strata.items()}
        self.zero = self._idem_maps[lattice.zero.index]
        self.one = self.units[0]
        unit_gens = [self.unit_for(g) for g in group.generators]
        # Drops repeats, keeps first-seen order.
        self.generators = tuple(dict.fromkeys(unit_gens + list(self._idem_maps.values())))
        self._domain_of = _domain_table(layout.degree)

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
        return self.idempotent_map(e).domain

    def unit_for(self, w: WeylElement) -> PartialInjection:
        return self._unit_by_perm[w.perm]

    def idempotent_map(self, e: CrossIdempotent) -> PartialInjection:
        """The partial identity on the face of e (zero map for e = 0)."""
        return self._idem_maps[e.index]

    def stratum_of(self, sigma: PartialInjection) -> CrossIdempotent:
        """The lattice idempotent whose double coset contains sigma."""
        if sigma not in self:
            raise ValueError("element does not belong to the monoid")
        return self._face_of(sigma).owner

    def _face_of(self, sigma: PartialInjection) -> Face:
        """The layout's record of sigma's domain, looked up by its mask."""
        return self.layout.faces[sigma.code.translate(self._domain_of)]


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

    A weight orbit past ``MAX_DEGREE`` points, which no byte code holds, is
    refused as soon as it is generated.  Unit table k, that of the group's
    element k = w_p s_j for its step (p, j), is s_j's code translated by
    table p.  Each idempotent's face is the orbit of the weight
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
    vertices = weight_orbit(group.cartan, lattice.weight_spec.mu, max_size=group.order)
    n = len(vertices)
    if n > MAX_DEGREE:
        raise SizeCapExceeded(f"weight orbit of degree {n} exceeds {MAX_DEGREE} points")
    pad = bytes(MAX_DEGREE - n)
    every = bytes(range(n + 1))
    # Each simple reflection's code; translating it by w's table gives w s_j.
    gen_codes = [bytes(g) + bytes([n]) for g in reflection_perms(group.cartan, vertices)]
    unit_tables = [every + pad]
    for p, j in group.steps:
        unit_tables.append(gen_codes[j].translate(unit_tables[p]) + pad)

    def seed_face(indices: frozenset[int]) -> frozenset[int]:
        moves = [gen_codes[j].__getitem__ for j in indices]
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
    domain_of = _domain_table(n)
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
            for j, s in enumerate(gen_codes):
                moved = s.translate(mask_table)
                if moved not in faces:
                    t = left[j][k]
                    table = unit_tables[t]
                    t_inv = bytes.maketrans(table[: n + 1], every)
                    faces[moved] = Face(e, t, code.translate(table), t_inv)
                    orbit.append((moved, t))
        if len(orbit) * len(_restrictions(code, unit_tables)) != lattice.stratum_size(e):
            raise ConstructionError(f"stratum {e.label} differs from its closed-form size")
    return FaceLayout(vertices, tuple(unit_tables), faces)


def _domain_table(n: int) -> bytes:
    """The table translating a degree-n code to its domain's mask: 1 on
    the defined points, 0 on the undefined byte n."""
    return bytes([1]) * n + bytes(MAX_DEGREE + 1 - n)


def _stratum_ranges(lattice: CrossSectionLattice) -> Iterator[tuple[CrossIdempotent, range]]:
    """Each idempotent with the index range of its stratum in R's element
    order: consecutive, of the closed-form sizes, in lattice order."""
    start = 0
    for e in lattice.idempotents:
        size = lattice.stratum_size(e)
        yield e, range(start, start + size)
        start += size


def _restrictions(face_code: bytes, unit_tables: Sequence[bytes]) -> dict[bytes, None]:
    """The distinct restrictions of the units to a face, given by its
    partial-identity code: each map's byte code, in (length, word) order of
    the first unit making it.  A permutation after a partial identity is
    injective, so every code is valid."""
    return dict.fromkeys(map(face_code.translate, unit_tables))


def _scan(layout: FaceLayout) -> Iterator[tuple[Face, dict[bytes, None]]]:
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

    The Weyl group, and each face with its transporter, come from
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
    tables = layout.unit_tables
    backwards = range(len(tables) - 1, -1, -1)

    elements: list[PartialInjection] = []
    canonical_units: list[WeylElement] = []
    sizes = dict.fromkeys((e.index for e in lattice.idempotents), 0)
    for face, made in _scan(layout):
        # Written from the last unit back, each code keeps its first unit.
        first = dict(zip(map(face.identity.translate, reversed(tables)), backwards))
        elements.extend(map(PartialInjection._trusted, made))
        canonical_units.extend(map(units.__getitem__, map(first.__getitem__, made)))
        sizes[face.owner.index] += len(made)
    for e in lattice.idempotents:
        if sizes[e.index] != lattice.stratum_size(e):
            raise ConstructionError(f"stratum {e.label} differs from its closed-form size")

    return RennerMonoid(lattice, layout, tuple(elements), tuple(canonical_units))


def normal_form(monoid: RennerMonoid, sigma: PartialInjection) -> WeylElement:
    """The canonical unit of a nonzero element: the (length, word)-least
    unit u agreeing with sigma on its domain, so that sigma = e_range * u *
    e_domain for the partial identities on ``sigma.image`` and
    ``sigma.domain``.

    The build recorded u when it made sigma, so the form is deterministic;
    the zero element is rejected.  The element-level classifications label
    their representatives through it; the lattice route of ``classes`` reads
    the same unit off its coset instead.
    """
    if sigma == monoid.zero:
        raise ZeroElement("the zero element has no normal form")
    if sigma not in monoid:
        raise ValueError("element does not belong to the monoid")
    return monoid.canonical_units[monoid.index_of(sigma)]


def project(monoid: RennerMonoid, sigma: PartialInjection) -> PartialInjection:
    """Transport a nonzero element back to a bijection of its stratum's
    lattice face (an element of the realized lambda_star subgroup): t_r^-1
    sigma t_d, for the transporter t_d the layout records for its domain
    and the one, t_r, for its range.

    Units project to themselves; conjugating by the faces' transporters
    preserves products of composable pairs within a stratum.  No command
    calls it: a Munn-class oracle of the tests and the benchmark's
    micro-timings do.
    """
    if sigma == monoid.zero:
        raise ZeroElement("the zero element has no projection")
    if sigma not in monoid:
        raise ValueError("element does not belong to the monoid")
    to_dom = monoid._face_of(sigma).map
    from_rng = monoid._face_of(inverse(sigma)).inverse
    return PartialInjection._trusted(to_dom.translate(sigma.table).translate(from_rng))


def element_label(monoid: RennerMonoid, sigma: PartialInjection) -> str:
    """Readable name: unit word times the domain-face name, e.g. "s1s2*e_0";
    a face other than its idempotent's own is named by its points."""
    if sigma == monoid.zero:
        return "0"
    word = normal_form(monoid, sigma).word
    face = monoid._face_of(sigma)
    if face.owner is monoid.lattice.one:
        return word_times_face(word, None)
    if face.unit == 0:
        return word_times_face(word, face.owner.label)
    return word_times_face(word, "e[" + ",".join(map(str, sorted(sigma.domain))) + "]")


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
    element object is made, no piece is kept, and no Python code runs per
    element.

    On a fixed face, deleting the undefined bytes from all its codes at once
    leaves their targets end to end, each code's in source order; each
    target is looked up in the row of fragments of its source, in one join
    per face.  The generators (the simple reflections' units, then
    each idempotent on its own face) go through the same writer; the strata
    (ranges of the closed-form sizes) and the vertices close the text.
    """
    n = layout.degree
    undefined = bytes([n])
    # inner[i][t]: the pair [i, t] at element depth and the text up to the
    # element's next pair.
    inner = [
        [f"[\n        {i},\n        {t}\n      ],\n      " for t in range(n)] for i in range(n)
    ]
    # closing[i][t]: the pair [i, t] closing its element and opening the
    # next; made for the points that end some face.
    closing: list[Optional[list[str]]] = [None] * n

    def written(sources: bytes, targets: bytes, head: str) -> str:
        """``head``, then the elements defined on the points ``sources``
        (ascending) whose targets, in source order, are the consecutive
        ``len(sources)``-byte runs of ``targets``.  The only map on the
        empty face is the zero."""
        if not sources:
            return head + "[]"
        last = sources[-1]
        if closing[last] is None:
            closing[last] = [
                f"[\n        {last},\n        {t}\n      ]\n    ],\n    [\n      " for t in range(n)
            ]
        picked = [inner[i] for i in sources[:-1]]
        picked.append(closing[last])
        # Every pair but the final one, which closes the last element.
        pairs = islice(map(list.__getitem__, cycle(picked), targets), len(targets) - 1)
        end = f"[\n        {last},\n        {targets[-1]}\n      ]\n    ]"
        return "".join(chain((head, "[\n      "), pairs, (end,)))

    head = '{\n  "elements": [\n    '
    for face, made in _scan(layout):
        sources = face.identity.translate(None, undefined)
        yield written(sources, b"".join(made).translate(None, undefined), head)
        head = ",\n    "

    # The units of the simple reflections (units 1..rank in (length, word)
    # order), then each idempotent on its own face, the one whose
    # transporter is the identity; drops repeats, keeps first-seen order.
    everything = bytes(range(n))
    own_points = [
        face.map.translate(None, undefined) for face in layout.faces.values() if face.unit == 0
    ]
    generators = dict.fromkeys(
        [(everything, table[:n]) for table in layout.unit_tables[1 : lattice.cartan.rank + 1]]
        + [(points, points) for points in own_points]
    )
    strata = {e.label: r for e, r in _stratum_ranges(lattice)}
    yield "".join([
        '\n  ],\n  "generators": ', _json_block((written(s, t, "") for s, t in generators), 2),
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
