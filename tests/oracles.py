"""Independent brute-force oracles used to pin expected values.

Nothing here goes through the structured code paths under test: rook monoids
are enumerated combinatorially, partitions are enumerated recursively, the
B2 reflection group is realized by explicit signed permutations of Euclidean
coordinates, and generated monoids and subgroups are closed by brute-force
multiplication.  The Munn classes are also found by a second route, through
projections onto the lambda_star parabolics and their conjugacy classes.
"""

from itertools import combinations, permutations

from renner.monoid import project
from renner.partialinj import PartialInjection, compose, invertible_part
from renner.rootsys import group_conjugacy_classes


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
                out.append(PartialInjection(tuple(targets)))
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
    start = PartialInjection.identity(generators[0].degree)
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
