import json
from dataclasses import replace

import pytest

from conftest import cached_build_lattice, grid_patterns, make_monoid
from oracles import (
    action_classes_pairwise,
    left_cosets,
    munn_listing_by_star_groups,
    munn_partition_by_invertible_parts,
    partition_count,
    semigroup_classes_pairwise,
)
from renner import (
    SizeCapExceeded,
    action_conjugacy_classes,
    cartan_matrix,
    class_rows_json,
    class_rows_to_json,
    classification_rows,
    classification_to_json,
    compose,
    count_sim_classes,
    invertible_part,
    irreducible_rep_count,
    lattice_class_rows,
    munn_classes,
    munn_count_rook,
    orbit_report_rows,
    project,
    semigroup_conjugacy_classes,
    sim_classes_bruteforce,
    sim_conjugacy_classes,
    stratum_orbit_reports,
    subrank,
)
from renner import conj, rootsys
from renner.rootsys import DEFAULT_MAX_GROUP_ORDER
from renner.monoid import element_label
from renner.partialinj import PartialInjection, inverse, stable_domain


def test_sim_counts_a2(canonical_a2, basic_a2):
    assert count_sim_classes(canonical_a2.lattice) == 18
    assert sim_conjugacy_classes(canonical_a2).class_count == 18
    assert count_sim_classes(basic_a2.lattice) == 10


def test_count_matches_bruteforce(acceptance_monoids):
    for name, R in acceptance_monoids:
        assert count_sim_classes(R.lattice) == sim_classes_bruteforce(R).class_count, name


def listing(classification):
    """(representative, size, stratum) per class, in the listed order."""
    return [
        (rep, len(cls), e)
        for rep, cls, e in zip(
            classification.representatives, classification.classes, classification.strata
        )
    ]


def test_sim_partition_matches_bruteforce(basic_b2, canonical_a2):
    # The coset-orbit listing, made without the monoid, against the
    # union-find over the built monoid: both list the classes by least
    # element, represented by it, with its size and stratum.
    for R in (basic_b2, canonical_a2):
        brute = sim_classes_bruteforce(R)
        assert lattice_class_rows(R.lattice, "sim") == classification_rows(R, brute)


def test_classifications_partition_the_monoid(basic_a2):
    for classify in (
        sim_conjugacy_classes,
        sim_classes_bruteforce,
        munn_classes,
        semigroup_conjugacy_classes,
        action_conjugacy_classes,
    ):
        c = classify(basic_a2)
        assert sum(len(cls) for cls in c.classes) == basic_a2.order
        assert len(set().union(*c.classes)) == basic_a2.order
        for rep, cls in zip(c.representatives, c.classes):
            assert rep in cls
        # Each class is represented by its least element, and the classes
        # come in the order of those least elements.
        firsts = [min(map(basic_a2.index_of, cls)) for cls in c.classes]
        assert [basic_a2.index_of(rep) for rep in c.representatives] == firsts
        assert firsts == sorted(firsts)


def test_zero_class_membership(basic_b2):
    # Unit conjugation fixes zero, so its sim class is the singleton; the
    # other three kinds merge everything with zero invertible part into it.
    R = basic_b2
    for classify in (sim_conjugacy_classes, sim_classes_bruteforce):
        assert frozenset({R.zero}) in classify(R).partition()
    expected = frozenset(
        sigma for sigma in R.elements if invertible_part(sigma) == R.zero
    )
    assert len(expected) > 1
    for classify in (
        munn_classes,
        semigroup_conjugacy_classes,
        action_conjugacy_classes,
    ):
        assert expected in classify(R).partition()


def test_sim_classes_stay_inside_strata(acceptance_monoids):
    for _, R in acceptance_monoids:
        brute = sim_classes_bruteforce(R)
        for cls, e in zip(brute.classes, brute.strata):
            strata = {R.stratum_of(sigma) for sigma in cls}
            assert strata == {e}


def test_orbit_reports(basic_a2):
    reports = stratum_orbit_reports(basic_a2.lattice)
    assert [r.orbit_count for r in reports] == [1, 2, 4, 3]
    assert [r.coset_count for r in reports] == [1, 3, 6, 6]
    group = basic_a2.group
    for r in reports:
        if r.idempotent.is_zero:
            continue
        stab_order = basic_a2.lattice.stabilizer(r.idempotent).order
        assert r.coset_count * stab_order == group.order
    rows = orbit_report_rows(basic_a2.lattice)
    assert rows[0] == ["0", 6, 6, 1, 1]
    assert sum(row[4] for row in rows) == 10


def test_orbit_sizes_sum_to_coset_count(canonical_g2):
    # Orbits partition the cosets, so per stratum the class count cannot
    # exceed the coset count and both ends are hit on the known monoids.
    for r in stratum_orbit_reports(canonical_g2.lattice):
        assert 1 <= r.orbit_count <= r.coset_count


def test_sim_representatives_live_in_their_stratum(basic_g2):
    c = sim_conjugacy_classes(basic_g2)
    for rep, e in zip(c.representatives, c.strata):
        if rep == basic_g2.zero:
            assert e.is_zero
        else:
            assert basic_g2.stratum_of(rep) is e


def test_munn_counts(basic_a2, basic_b2, canonical_a2):
    assert munn_classes(basic_a2).class_count == 7
    assert munn_classes(basic_b2).class_count == 9
    assert munn_classes(canonical_a2).class_count == 9


def test_independent_routes_agree_on_the_small_grid(small_grid):
    # The lattice route's sim labels come from the coset orbits; they are
    # checked against brute-force unit conjugation on the built monoid.
    # Munn labels come from one invertible part per sim class; they are
    # checked against routes that take no such shortcut: the lambda_star
    # class tables, the invertible part of every element, and the
    # representation count.
    built, _ = small_grid
    for config, R in built:
        brute = sim_classes_bruteforce(R)
        assert lattice_class_rows(R.lattice, "sim") == classification_rows(R, brute), config
        munn = munn_classes(R)
        assert listing(munn) == munn_listing_by_star_groups(R), config
        assert munn.partition() == munn_partition_by_invertible_parts(R), config
        assert munn.class_count == irreducible_rep_count(R.lattice), config


def test_munn_takes_one_invertible_part_per_sim_class(canonical_a2, monkeypatch):
    calls = []

    def counted(sigma):
        calls.append(sigma)
        return invertible_part(sigma)

    monkeypatch.setattr(conj, "invertible_part", counted)
    munn = munn_classes(canonical_a2)
    assert len(calls) == count_sim_classes(canonical_a2.lattice) == 18
    # Each call is on its sim class's least element.
    sim_reps = sim_conjugacy_classes(canonical_a2).representatives
    assert calls == list(sim_reps)
    assert munn.class_count == 9


def test_munn_members_share_subrank(basic_b2):
    for cls in munn_classes(basic_b2).classes:
        assert len({subrank(basic_b2, sigma) for sigma in cls}) == 1


def test_munn_equals_semigroup_and_action_partitions(basic_a2, canonical_a2):
    def unstratified(classification):
        return [(rep, size) for rep, size, _ in listing(classification)]

    for R in (basic_a2, canonical_a2):
        munn = munn_classes(R)
        semigroup = semigroup_conjugacy_classes(R)
        action = action_conjugacy_classes(R)
        assert munn.partition() == semigroup.partition()
        assert munn.partition() == action.partition()
        # Each class's least element is its Munn representative, so the
        # semigroup and action kinds list the classes in Munn order.
        assert unstratified(semigroup) == unstratified(munn)
        assert unstratified(action) == unstratified(munn)


def test_sim_refines_munn_strictly(canonical_a2):
    sim = sim_conjugacy_classes(canonical_a2)
    munn = munn_classes(canonical_a2).partition()
    for cls in sim.classes:
        assert any(cls <= big for big in munn)
    assert sim.class_count == 18 and len(munn) == 9


def test_idempotent_classes(basic_b2, canonical_a2):
    # Idempotents are Munn conjugate exactly when unit conjugate, and the
    # unit classes of idempotents are indexed by the lattice.
    for R in (basic_b2, canonical_a2):
        idems = [
            sigma for sigma in R.elements if compose(sigma, sigma) == sigma
        ]
        sim = sim_classes_bruteforce(R)
        munn = munn_classes(R)

        def class_of(partition, x):
            return next(i for i, cls in enumerate(partition.classes) if x in cls)

        for e in idems:
            for f in idems:
                same_sim = class_of(sim, e) == class_of(sim, f)
                same_munn = class_of(munn, e) == class_of(munn, f)
                assert same_sim == same_munn
        idem_classes = {class_of(sim, e) for e in idems}
        assert len(idem_classes) == len(R.lattice)
        for e in R.lattice.idempotents:
            assert R.idempotent_map(e) in idems


def test_invertible_part_bridge(basic_b2):
    # Semigroup classes coincide with unit-conjugacy classes of the
    # invertible parts.
    R = basic_b2
    brute = sim_classes_bruteforce(R)

    def sim_class_of(x):
        return next(i for i, cls in enumerate(brute.classes) if x in cls)

    keyed = {}
    for sigma in R.elements:
        keyed.setdefault(sim_class_of(invertible_part(sigma)), set()).add(sigma)
    expected = frozenset(frozenset(v) for v in keyed.values())
    assert semigroup_conjugacy_classes(R).partition() == expected


def test_action_conjugation_moves_element_to_invertible_part(basic_b2):
    R = basic_b2
    for sigma in R.elements:
        e_map = PartialInjection.partial_identity(R.degree, stable_domain(sigma))
        assert compose(e_map, compose(sigma, inverse(e_map))) == invertible_part(sigma)


def test_munn_class_meets_exactly_one_star_group(basic_b2):
    R = basic_b2
    realized = {}
    for e in R.lattice.nonzero:
        realized[e.index] = {
            compose(R.unit_for(u), R.idempotent_map(e))
            for u in R.lattice.star_group(e).members
        }
    munn = munn_classes(R)
    for cls, e in zip(munn.classes, munn.strata):
        if e.is_zero:
            continue
        hits = {idx for idx, grp in realized.items() if cls & grp}
        assert hits == {e.index}
        # ... and the intersection is a full conjugacy class of that group.
        meet = cls & realized[e.index]
        members = sorted(realized[e.index], key=lambda p: R.index_of(p))
        inv = {p: inverse(p) for p in members}
        closure = set()
        for x in meet:
            closure |= {compose(g, compose(x, inv[g])) for g in members}
        assert closure == meet


def test_representative_fidelity(basic_g2):
    # Every element is Munn conjugate to the projection of its invertible
    # part, so both land in the same class.
    R = basic_g2
    munn = munn_classes(R)

    def class_of(x):
        return next(i for i, cls in enumerate(munn.classes) if x in cls)

    for sigma in R.elements:
        part = invertible_part(sigma)
        if part == R.zero:
            assert class_of(sigma) == class_of(R.zero)
        else:
            assert class_of(sigma) == class_of(project(R, part))


def test_irreducible_rep_counts(basic_a2, basic_a1, canonical_b2):
    assert irreducible_rep_count(basic_a2.lattice) == 7
    assert irreducible_rep_count(basic_a1.lattice) == 4
    assert irreducible_rep_count(canonical_b2.lattice) == 11
    assert irreducible_rep_count(canonical_b2.lattice) == munn_classes(canonical_b2).class_count


def test_rook_monoid_counts_match_partition_sums():
    for m in range(9):
        assert munn_count_rook(m) == sum(partition_count(r) for r in range(m + 1))
    assert munn_count_rook(0) == 1
    assert munn_count_rook(2) == 4
    assert munn_count_rook(3) == 7
    with pytest.raises(ValueError):
        munn_count_rook(-1)


def test_rook_monoid_r4_as_first_basic_a3():
    R = make_monoid("A", 3, (1, 0, 0))
    assert R.degree == 4 and R.order == 209
    assert munn_classes(R).class_count == munn_count_rook(4) == 12
    assert irreducible_rep_count(R.lattice) == 12


def test_r2_sim_and_rep_counts(basic_a1):
    assert count_sim_classes(basic_a1.lattice) == 5
    assert munn_classes(basic_a1).class_count == 4


def test_generator_closures_match_the_pairwise_oracles():
    # Every grid configuration with |R| <= 500: the closures over the
    # generators list the classes, representatives and order that the
    # all-pairs closures do.
    checked = 0
    for letter, rank, mu in grid_patterns():
        if rootsys.standard_weyl_order(letter, rank) > 500:
            continue  # the units alone outnumber the bound
        try:
            R = make_monoid(letter, rank, mu, max_monoid_order=500)
        except SizeCapExceeded:
            continue
        config = f"{letter}{rank}{mu}"
        for closure, oracle in (
            (semigroup_conjugacy_classes, semigroup_classes_pairwise),
            (action_conjugacy_classes, action_classes_pairwise),
        ):
            assert closure(R) == oracle(R), config
        checked += 1
    assert checked == 17


def test_pairwise_kinds_equal_munn_past_the_old_cap():
    # 7057 elements, past the 2000 that the all-pairs closures were held to.
    R = make_monoid("B", 3, (1, 1, 1))
    assert R.order == 7057
    munn = munn_classes(R)
    for classify in (semigroup_conjugacy_classes, action_conjugacy_classes):
        c = classify(R)
        assert c.partition() == munn.partition()
        assert c.representatives == munn.representatives


def test_classifications_leave_elements_as_bare_codes(basic_b2):
    # Nothing is cached on first use: an element holds its code and no more.
    R = basic_b2
    for classify in (sim_conjugacy_classes, munn_classes, action_conjugacy_classes):
        classify(R)
    for p in R.elements:
        element_label(R, p)
    assert all(vars(p) == {"code": p.code} for p in R.elements)
    spec = R.lattice.weight_spec
    assert vars(spec) == {"mu": spec.mu}


@pytest.mark.parametrize(
    "letter, rank, weight, sim, munn",
    [("D", 4, (1, 0, 0, 0), 111, 30), ("A", 4, (1, 1, 1, 1), 650, 60)],
)
def test_element_level_counts_past_the_small_grid(letter, rank, weight, sim, munn):
    # A4 canonical has degree 120, so its invertible parts take 7 squarings.
    R = make_monoid(letter, rank, weight)
    assert sim_conjugacy_classes(R).class_count == count_sim_classes(R.lattice) == sim
    assert munn_classes(R).class_count == irreducible_rep_count(R.lattice) == munn


def test_classification_json(basic_a2):
    doc = classification_to_json(basic_a2, sim_conjugacy_classes(basic_a2))
    assert doc["kind"] == "sim"
    assert doc["class_count"] == 10
    assert len(doc["classes"]) == 10
    assert doc["classes"][0] == {
        "stratum": "0",
        "size": 1,
        "representative": [],
        "label": "0",
    }
    labels = [c["label"] for c in doc["classes"]]
    assert labels[:3] == ["0", "e_0", "s1*e_0"]


def test_transpose_types_agree():
    # B and C are transpose Cartan data: same Coxeter system, so identical
    # classification counts for matching zero patterns.
    for weight in [(1, 1), (1, 0), (0, 1)]:
        b = make_monoid("B", 2, weight)
        c = make_monoid("C", 2, weight)
        assert count_sim_classes(b.lattice) == count_sim_classes(c.lattice)
        assert munn_classes(b).class_count == munn_classes(c).class_count
        assert irreducible_rep_count(b.lattice) == irreducible_rep_count(c.lattice)


def test_canonical_a3_and_relabelled_d3():
    a3 = make_monoid("A", 3, (1, 1, 1))
    d3 = make_monoid("D", 3, (1, 1, 1))
    for R in (a3, d3):
        assert R.order == 1801
        assert count_sim_classes(R.lattice) == 96
        assert irreducible_rep_count(R.lattice) == 23
    assert sim_classes_bruteforce(a3).class_count == 96


def test_orbit_sizes_partition_cosets(acceptance_monoids):
    for _, R in acceptance_monoids:
        for report in stratum_orbit_reports(R.lattice):
            assert len(report.orbit_sizes) == report.orbit_count
            assert sum(report.orbit_sizes) == report.coset_count


def test_canonical_g2_middle_stratum_orbit_shapes(canonical_g2):
    # In the e_1 stratum the centralizer is the order-2 parabolic acting on
    # twelve singleton cosets: four fixed points and four swapped pairs.
    report = stratum_orbit_reports(canonical_g2.lattice)[2]
    assert report.idempotent.label == "e_1"
    assert report.coset_count == 12
    assert sorted(report.orbit_sizes) == [1, 1, 1, 1, 2, 2, 2, 2]


def test_first_basic_b3_full_stack():
    # Rank-3 configuration with a rank-2 stabilizer: a structurally different
    # instance of every classification path.
    R = make_monoid("B", 3, (1, 0, 0))
    assert R.order == 757 and R.degree == 6
    assert count_sim_classes(R.lattice) == 38
    assert sim_classes_bruteforce(R).class_count == 38
    munn = munn_classes(R)
    assert munn.class_count == 17
    assert irreducible_rep_count(R.lattice) == 17
    assert munn.partition() == semigroup_conjugacy_classes(R).partition()
    assert munn.partition() == action_conjugacy_classes(R).partition()


def grid_lattices(max_order):
    """(config, lattice) for every grid configuration with |R| <= max_order,
    each lattice built as the CLI builds it, so the golden digests reuse it."""
    for letter, rank, mu in grid_patterns():
        lattice = cached_build_lattice(
            cartan_matrix(letter, rank), mu, max_group_order=DEFAULT_MAX_GROUP_ORDER
        )
        if lattice.monoid_order <= max_order:
            yield (letter, rank, mu), lattice


def test_lattice_route_lists_the_element_level_classes(small_grid):
    # Every grid configuration with |R| <= 5000, every kind: the rows made
    # from the cosets and faces alone (the closures on the sim classes)
    # equal, in order, the least index, stratum, size, representative code
    # and element_label read off the built monoid's classification.
    built = dict(small_grid[0])
    checked = 0
    for config, lattice in grid_lattices(5000):
        R = built.get("{}{}{}".format(*config)) or make_monoid(*config, max_monoid_order=5000)
        for kind, classify in (
            ("sim", sim_conjugacy_classes), ("munn", munn_classes),
            ("semigroup", semigroup_conjugacy_classes), ("action", action_conjugacy_classes),
        ):
            rows = lattice_class_rows(lattice, kind)
            assert rows == classification_rows(R, classify(R)), (config, kind)
        checked += 1
    assert checked == 41


def test_lattice_route_counts_on_the_grid():
    # Every grid configuration with |R| <= 20 000: the coset minima are
    # the oracle's, sim classes as many as the counts total, Munn classes as
    # many as the representations, and the class sizes of each kind summing
    # to the closed-form |R|.
    checked = 0
    for config, lattice in grid_lattices(20000):
        for e, (_, _, coset_min) in zip(lattice.idempotents, conj._coset_orbits(lattice)):
            if not e.is_zero:
                least = tuple(lattice.group.elements[k] for k in coset_min)
                assert least == left_cosets(lattice.stabilizer(e))[0], (config, e.label)
        sim = lattice_class_rows(lattice, "sim")
        munn = lattice_class_rows(lattice, "munn")
        assert len(sim) == sum(row[4] for row in orbit_report_rows(lattice)), config
        assert len(munn) == irreducible_rep_count(lattice), config
        for rows in (sim, munn):
            assert sum(row.size for row in rows) == lattice.monoid_order, config
        # The paper's theorem: the closures list Munn's classes, each with
        # its least element, size and label, and no stratum.
        for kind in ("semigroup", "action"):
            rows = lattice_class_rows(lattice, kind)
            assert rows == tuple(replace(row, stratum=None) for row in munn), (config, kind)
        checked += 1
    assert checked == 58
    with pytest.raises(ValueError, match="no 'character' classes"):
        lattice_class_rows(lattice, "character")


def test_class_listing_text_is_what_json_dumps_writes():
    # Every kind on B3 (1,0,1), with the zero's empty representative, and an
    # empty listing: the text written from the rows is the document's dump.
    lattice = cached_build_lattice(cartan_matrix("B", 3), (1, 0, 1))
    for kind in conj.CLASS_KINDS:
        rows = lattice_class_rows(lattice, kind)
        doc = class_rows_to_json(kind, rows)
        assert class_rows_json(kind, rows) == json.dumps(doc, indent=2, sort_keys=True), kind
    empty = class_rows_to_json("sim", ())
    assert class_rows_json("sim", ()) == json.dumps(empty, indent=2, sort_keys=True)
