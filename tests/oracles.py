"""Independent brute-force oracles used to pin expected values.

Nothing here goes through the structured code paths under test: rook monoids
are enumerated combinatorially, partitions are enumerated recursively, the
B2 reflection group is realized by explicit signed permutations of Euclidean
coordinates, and generated monoids and subgroups are closed by brute-force
multiplication.  The Munn classes are also found by two more routes: through
projections onto the lambda_star parabolics and their conjugacy classes, and
element by element, from the unit-conjugacy class of each invertible part.
The semigroup and action classes are closed over all pairs of elements, in
O(|R|^2), where the library closes them over the generators.  The cosets of
a parabolic are tiled by whole-subgroup products, and group conjugacy
classes are closed by permutation products, where the library walks index
tables of the products with simple reflections.  The build export is
written element by element from a built monoid, where the library streams
it from the faces and the unit tables.
"""

import json
from itertools import combinations, permutations

from conftest import identity_map
from renner.conj import UnionFind, _classes_by_label, sim_classes_bruteforce
from renner.monoid import project
from renner.partialinj import (
    PartialInjection,
    compose,
    inverse,
    invertible_part,
    stable_domain,
)
from renner.rootsys import Subgroup, WeylElement, bfs_orbit, group_conjugacy_classes


def all_partial_injections(n):
    """Every partial injective map on n points, by choosing a domain and an
    injective image list."""
    out = []
    for k in range(n + 1):
        for dom in combinations(range(n), k):
            for img in permutations(range(n), k):
                targets = [None] * n
                for s, d in zip(dom, img):
                    targets[s] = d
                out.append(PartialInjection.from_targets(targets))
    return out


def partition_count(n):
    """Number of integer partitions of n, by explicit enumeration."""

    def count(remaining, max_part):
        if remaining == 0:
            return 1
        return sum(
            count(remaining - p, p) for p in range(min(remaining, max_part), 0, -1)
        )

    return count(n, n)


def signed_orbit_b2(start):
    """Orbit of a point of the plane under the coordinate swap and the sign
    flip of the second coordinate (the rank-2 hyperoctahedral group)."""
    seen = {tuple(start)}
    queue = [tuple(start)]
    for (x, y) in queue:
        for nxt in ((y, x), (x, -y)):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def s3_conjugacy_class_count():
    """Conjugacy classes of the symmetric group on 3 letters, brute force on
    word-form permutations."""
    elements = list(permutations(range(3)))

    def mul(a, b):
        return tuple(a[x] for x in b)

    def inv(a):
        out = [0] * len(a)
        for i, ai in enumerate(a):
            out[ai] = i
        return tuple(out)

    classes = set()
    for x in elements:
        classes.add(frozenset(mul(mul(g, x), inv(g)) for g in elements))
    return len(classes)


def generator_closure(generators):
    """The monoid generated by the given partial injections: the identity
    and every product of generators, by breadth-first right multiplication."""
    start = identity_map(generators[0].degree)
    elements = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                p = compose(a, g)
                if p not in elements:
                    elements.add(p)
                    nxt.append(p)
        frontier = nxt
    return elements


def double_coset(units, idempotent):
    """Every product u * e * v with u and v among the given units, written
    as (u * e) * (e * v) so that each factor is taken once."""
    left = {compose(u, idempotent) for u in units}
    right = {compose(idempotent, v) for v in units}
    return {compose(a, b) for a in left for b in right}


def subgroup_closure(group, generators):
    """The subgroup generated by the given elements, closed under
    ``group.mul`` from the identity."""
    members = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                p = group.mul(a, g)
                if p not in members:
                    members.add(p)
                    nxt.append(p)
        frontier = nxt
    return members


def munn_listing_by_star_groups(monoid):
    """Munn classes as (representative, size, stratum), in order of their
    least elements, each represented by its least element.

    Each element is labelled by the subrank of its invertible part and the
    conjugacy class, in the lambda_star parabolic realized on the subrank's
    face as u * e, of the projected invertible part.
    """
    lattice = monoid.lattice
    tables = {}
    for e in lattice.nonzero:
        star = lattice.star_group(e)
        e_map = monoid.idempotent_map(e)
        tables[e.index] = {
            compose(monoid.unit_for(u), e_map): cid
            for cid, cls in enumerate(group_conjugacy_classes(star))
            for u in cls
        }
        assert len(tables[e.index]) == star.order, "lambda_star does not embed on its face"
    groups = {}
    for idx, sigma in enumerate(monoid.elements):
        part = invertible_part(sigma)
        if part == monoid.zero:
            label = (lattice.zero.index, 0)
        else:
            e = monoid.stratum_of(part)
            label = (e.index, tables[e.index][project(monoid, part)])
        groups.setdefault(label, []).append(idx)
    listing = []
    for idxs in groups.values():
        rep = monoid.elements[idxs[0]]
        listing.append((rep, len(idxs), monoid.stratum_of(rep)))
    return listing


def munn_partition_by_invertible_parts(monoid):
    """Munn classes as a partition: every element grouped by the
    brute-force unit-conjugacy class of its own invertible part."""
    class_of = {
        sigma: cid
        for cid, cls in enumerate(sim_classes_bruteforce(monoid).classes)
        for sigma in cls
    }
    groups = {}
    for sigma in monoid.elements:
        groups.setdefault(class_of[invertible_part(sigma)], set()).add(sigma)
    return frozenset(map(frozenset, groups.values()))


def semigroup_classes_pairwise(monoid):
    """Semigroup conjugacy as the transitive closure of xy ~ yx over the
    unordered pairs {x, y} of distinct elements (x = y pairs xx with
    itself), each product a byte-code translation."""
    n = monoid.order
    codes = [p.code for p in monoid.elements]
    tables = [p.table for p in monoid.elements]
    index = monoid.index_by_code
    uf = UnionFind(n)
    for i in range(n):
        code_i, table_i = codes[i], tables[i]
        for j in range(i + 1, n):
            uf.union(index[codes[j].translate(table_i)], index[code_i.translate(tables[j])])
    return _classes_by_label(monoid, map(uf.find, range(n)), "semigroup", with_strata=False)


def action_classes_pairwise(monoid):
    """Action conjugacy as the transitive closure of x ~ sigma x sigma^{-1}
    over every element sigma whose domain holds the stable domain of x; the
    movers are grouped by domain, so the containment is tested once per
    domain."""
    index = monoid.index_by_code
    movers = {}
    for sigma in monoid.elements:
        movers.setdefault(sigma.domain, []).append((inverse(sigma).code, sigma.table))
    uf = UnionFind(monoid.order)
    for xi, x in enumerate(monoid.elements):
        needed, table_x = stable_domain(x), x.table
        for domain, moves in movers.items():
            if needed <= domain:
                for inv, table in moves:
                    uf.union(xi, index[inv.translate(table_x).translate(table)])
    return _classes_by_label(
        monoid, map(uf.find, range(monoid.order)), "action", with_strata=False
    )


def left_cosets(sub: Subgroup) -> tuple[tuple[WeylElement, ...], dict[WeylElement, int]]:
    """Tile the parent group by the left cosets w*W_J of a parabolic, by
    multiplying each new least member by the whole subgroup.

    Returns the minimal-length member of each coset, in (length, word)
    order, and the position of every group element's coset in that list.
    """
    group = sub.parent
    coset_of: dict[WeylElement, int] = {}
    reps: list[WeylElement] = []
    for w in group.elements:  # (length, word) order: first hit is the min rep
        if w in coset_of:
            continue
        coset_of.update((group.mul(w, h), len(reps)) for h in sub.members)
        reps.append(w)
    return tuple(reps), coset_of


def conjugate(group, w, x):
    """w x w^{-1}, by permutation products."""
    return group.mul(group.mul(w, x), group.inv(w))


def conjugacy_classes_by_perms(sub: Subgroup) -> tuple[tuple[WeylElement, ...], ...]:
    """Conjugation orbits of a subgroup on itself, each closed under
    conjugation by its simple generators through permutation products,
    where the library reads index tables; sorted and ordered as
    ``group_conjugacy_classes`` lists them."""
    group = sub.parent
    gens = [group.generators[j] for j in sorted(sub.generator_indices)]
    moves = [lambda x, g=g: conjugate(group, g, x) for g in gens]
    seen = set()
    classes = []
    for x in sub.members:
        if x in seen:
            continue
        orbit = bfs_orbit(x, moves)
        seen.update(orbit)
        classes.append(tuple(sorted(orbit, key=WeylElement.canonical_key)))
    return tuple(classes)


def export_from_elements(monoid):
    """The build export of a built monoid, written per element from its byte
    code and one table of per-pair fragments (the elements sharing a domain
    share the list of its rows), as ``json.dumps(doc, indent=2,
    sort_keys=True)`` writes the document."""
    n = monoid.degree
    # rows[i][t]: the pair [i, t] as written at element depth.
    rows = [[f"[\n        {i},\n        {t}\n      ]" for t in range(n)] for i in range(n)]
    defined = bytes(t < n for t in range(256))
    undefined = bytes([n])
    domain_rows = {}

    def block(items, indent, brackets="[]"):
        inner = "\n" + " " * (indent + 2)
        body = ("," + inner).join(items)
        return f"{brackets[0]}{inner}{body}\n{' ' * indent}{brackets[1]}" if body else brackets

    def pairs(sigma):
        code = sigma.code
        mask = code.translate(defined)
        picked = domain_rows.get(mask)
        if picked is None:
            picked = domain_rows[mask] = [row for row, d in zip(rows, mask) if d]
        # Deleting the undefined bytes leaves the targets in source order.
        return block(map(list.__getitem__, picked, code.translate(None, undefined)), 4)

    strata = {e.label: monoid.strata[e.index] for e in monoid.lattice.idempotents}
    return "".join([
        '{\n  "elements": ', block(map(pairs, monoid.elements), 2),
        ',\n  "generators": ', block(map(pairs, monoid.generators), 2),
        ',\n  "strata": ', block(
            (f"{json.dumps(k)}: {block(map(str, strata[k]), 4)}" for k in sorted(strata)),
            2, "{}",
        ),
        ',\n  "vertices": ', block((block(map(str, v), 4) for v in monoid.vertices), 2),
        "\n}",
    ])
