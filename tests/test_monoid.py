import json

import pytest

from conftest import make_monoid
from oracles import all_partial_injections, double_coset, generator_closure
from renner import (
    NotInOrbit,
    PartialInjection,
    SizeCapExceeded,
    ZeroElement,
    cartan_matrix,
    compose,
    face_transporter,
    inverse,
    invertible_part,
    is_idempotent,
    monoid_to_json,
    natural_leq,
    normal_form,
    parabolic,
    project,
    reconstruct,
    restrict,
    stable_domain,
    subrank,
    weight_orbit,
)
from renner.monoid import element_label


def test_weight_orbit_sizes():
    a2 = cartan_matrix("A", 2)
    assert len(weight_orbit(a2, (1, 0))) == 3
    assert len(weight_orbit(a2, (1, 1))) == 6
    assert len(weight_orbit(cartan_matrix("B", 2), (1, 0))) == 4


def test_orbit_size_is_group_order_over_stabilizer(acceptance_monoids):
    for _, R in acceptance_monoids:
        j0 = R.lattice.weight_spec.j0
        assert R.degree == R.group.order // parabolic(R.group, j0).order


def test_first_basic_a2_is_the_full_rook_monoid(basic_a2):
    assert basic_a2.order == 34
    assert set(basic_a2.elements) == set(all_partial_injections(3))


def test_first_basic_a1_is_the_full_rook_monoid(basic_a1):
    assert basic_a1.order == 7
    assert set(basic_a1.elements) == set(all_partial_injections(2))


def test_zero_and_one_present_and_absorbing(acceptance_monoids):
    for _, R in acceptance_monoids:
        assert R.zero in R and R.one in R
        for sigma in R.elements:
            assert compose(R.zero, sigma) == R.zero
            assert compose(sigma, R.zero) == R.zero
            assert compose(R.one, sigma) == sigma
            assert compose(sigma, R.one) == sigma


def test_orders_match_stratum_size_formula(acceptance_monoids):
    # |WeW| = |W|^2 / (|W(e)| * |W_*(e)|), summed over the lattice plus the
    # zero element: an independent count of the built elements.
    for name, R in acceptance_monoids:
        lattice = R.lattice
        w = R.group.order
        expected = 1 + sum(
            w * w // (lattice.centralizer(e).order * lattice.stabilizer(e).order)
            for e in lattice.nonzero
        )
        assert R.order == expected, name


def test_strata_have_their_closed_form_sizes(small_grid):
    # Every type of rank <= 3 and every zero pattern with |R| <= 5000; only
    # the two canonical rank-3 monoids of types B and C (7057) lie above.
    built, skipped = small_grid
    for config, R in built:
        for e in R.lattice.idempotents:
            assert len(R.strata[e.index]) == R.lattice.stratum_size(e), config
        # The enumeration makes exactly the generator closure, and each
        # stratum is the double coset W e W inside it.
        units = [R.unit_for(w) for w in R.group.elements]
        generators = [R.unit_for(g) for g in R.group.generators] + [
            R.idempotent_map(e) for e in R.lattice.idempotents
        ]
        assert set(R.elements) == generator_closure(generators), config
        for e in R.lattice.idempotents:
            assert set(R.stratum_elements(e)) == double_coset(
                units, R.idempotent_map(e)
            ), (config, e.label)
    assert skipped == ["B3(1, 1, 1)", "C3(1, 1, 1)"]


def test_canonical_a2_bottom_stratum_size(canonical_a2):
    e0 = canonical_a2.lattice.min_nonzero
    assert len(canonical_a2.strata[e0.index]) == 36


def test_unit_group_matches_weyl_group(acceptance_monoids):
    for _, R in acceptance_monoids:
        units = [p for p in R.elements if len(p.domain) == R.degree]
        assert len(units) == R.group.order
        assert {R.weyl_for(u) for u in units} == set(R.group.elements)


def test_closure_is_closed_under_product_and_inverse(acceptance_monoids):
    for _, R in acceptance_monoids:
        for sigma in R.elements:
            assert inverse(sigma) in R
        # Products: spot the full grid only on the smallest monoid.
    small = acceptance_monoids[3][1]  # first basic A2
    for a in small.elements:
        for b in small.elements:
            assert compose(a, b) in small


def test_strata_partition_elements(acceptance_monoids):
    for _, R in acceptance_monoids:
        # Declared order: the zero first, then each stratum as one
        # consecutive range in lattice order, the units last in group order.
        assert R.elements[0] == R.zero
        ranges = [R.strata[e.index] for e in R.lattice.idempotents]
        assert [i for idxs in ranges for i in idxs] == list(range(R.order))
        assert R.stratum_elements(R.lattice.one) == R.units
        seen = set()
        total = 0
        for e in R.lattice.idempotents:
            idxs = R.strata[e.index]
            total += len(idxs)
            assert not (set(idxs) & seen)
            seen |= set(idxs)
            for i in idxs:
                sigma = R.elements[i]
                assert R.stratum_of(sigma) is e
        assert total == R.order


def test_idempotents_are_partial_identities_on_faces(acceptance_monoids):
    for _, R in acceptance_monoids:
        for sigma in R.elements:
            assert is_idempotent(sigma) == (compose(sigma, sigma) == sigma)
        for e in R.lattice.idempotents:
            for face in R.face_orbits[e.index]:
                assert PartialInjection.partial_identity(R.degree, face) in R


def test_face_sizes_first_basic_a2(basic_a2, canonical_a2):
    assert [len(basic_a2.face(e)) for e in basic_a2.lattice] == [0, 1, 2, 3]
    assert canonical_a2.face(canonical_a2.lattice.zero) == frozenset()


def test_deterministic_rebuild(basic_a2):
    again = make_monoid("A", 2, (1, 0))
    assert [p.targets for p in again.elements] == [p.targets for p in basic_a2.elements]


def test_build_cap():
    with pytest.raises(SizeCapExceeded):
        make_monoid("A", 2, (1, 0), max_monoid_order=10)


def test_build_rejects_bad_weights():
    with pytest.raises(ValueError):
        make_monoid("A", 2, (1, 0, 0))
    with pytest.raises(ValueError):
        make_monoid("A", 2, (0, 0))
    with pytest.raises(ValueError):
        make_monoid("A", 2, (-1, 1))


def test_normal_form_roundtrip(acceptance_monoids):
    for _, R in acceptance_monoids:
        for sigma in R.elements:
            if sigma == R.zero:
                continue
            form = normal_form(R, sigma)
            assert form.domain_face == sigma.domain
            assert form.range_face == sigma.image
            assert reconstruct(R, form) == sigma
            # The unit is a factorizability witness.
            assert natural_leq(sigma, R.unit_for(form.unit))


def test_normal_form_unit_is_minimal(basic_b2):
    R = basic_b2
    for sigma in R.elements:
        if sigma == R.zero:
            continue
        form = normal_form(R, sigma)
        extending = [
            w
            for w in R.group.elements
            if restrict(R.unit_for(w), sigma.domain) == sigma
        ]
        assert form.unit == min(extending, key=lambda w: w.canonical_key())


def test_normal_form_special_cases(basic_a2):
    R = basic_a2
    with pytest.raises(ZeroElement):
        normal_form(R, R.zero)
    full = frozenset(range(R.degree))
    for w in R.group.elements:
        form = normal_form(R, R.unit_for(w))
        assert form == type(form)(full, w, full)
    e1 = R.lattice.nonzero[1]
    form = normal_form(R, R.idempotent_map(e1))
    assert form.unit == R.group.identity
    assert form.domain_face == form.range_face == R.face(e1)


def test_normal_form_rejects_foreign_elements(basic_a2):
    with pytest.raises(ValueError):
        normal_form(basic_a2, PartialInjection.zero(5))


def test_project_and_subrank_reject_foreign_elements(basic_b2):
    # First basic B2 acts on 4 vertices; swapping the last two while fixing
    # the first two is a permutation outside the 8 units.
    foreign = PartialInjection((0, 1, 3, 2))
    assert foreign not in basic_b2
    for fn in (normal_form, project, subrank):
        with pytest.raises(ValueError, match="does not belong to the monoid"):
            fn(basic_b2, foreign)


def test_invertible_part_stays_in_monoid(acceptance_monoids):
    for _, R in acceptance_monoids:
        for sigma in R.elements:
            part = invertible_part(sigma)
            assert part in R
            e_part = PartialInjection.partial_identity(R.degree, stable_domain(sigma))
            assert compose(sigma, e_part) == part
            assert compose(e_part, sigma) == part


def test_subrank_cases(basic_a2):
    R = basic_a2
    for w in R.group.elements:
        assert subrank(R, R.unit_for(w)) is R.lattice.one
    assert subrank(R, R.zero) is R.lattice.zero
    e0, e1 = R.lattice.nonzero[0], R.lattice.nonzero[1]
    # s2 * e_1 keeps only the seed vertex stable, so its subrank drops to e_0.
    s2e1 = compose(R.unit_for(R.group.generators[1]), R.idempotent_map(e1))
    assert subrank(R, s2e1) is e0
    # s1 * e_0 moves the single stable vertex away: nilpotent, subrank zero.
    s1e0 = compose(R.unit_for(R.group.generators[0]), R.idempotent_map(e0))
    assert subrank(R, s1e0) is R.lattice.zero


def test_face_action_consistency(acceptance_monoids):
    # Conjugating a face idempotent by a unit is the idempotent on the moved
    # face.
    for _, R in acceptance_monoids:
        faces = [f for e in R.lattice.idempotents for f in R.face_orbits[e.index]]
        for w in R.group.elements:
            u = R.unit_for(w)
            ui = R.unit_for(R.group.inv(w))
            for face in faces:
                lhs = compose(u, compose(PartialInjection.partial_identity(R.degree, face), ui))
                assert lhs == PartialInjection.partial_identity(
                    R.degree, frozenset(map(R.unit_for(w), face))
                )


def test_face_transporter_identity_and_errors(basic_a2):
    R = basic_a2
    e0 = R.lattice.min_nonzero
    t = face_transporter(R, R.face(e0), R.face(e0))
    assert t.unit == R.group.identity
    assert t.map == R.idempotent_map(e0)
    e1 = R.lattice.nonzero[1]
    with pytest.raises(NotInOrbit):
        face_transporter(R, R.face(e0), R.face(e1))
    with pytest.raises(ValueError):
        # A moved face is in the orbit but is not the lattice face itself.
        moved = next(
            f for f in R.face_orbits[e1.index] if f != R.face(e1)
        )
        face_transporter(R, moved, R.face(e1))


def test_face_transporter_minimal_and_unique(acceptance_monoids):
    for _, R in acceptance_monoids:
        group = R.group
        for e in R.lattice.nonzero:
            base = R.face(e)
            for target in R.face_orbits[e.index]:
                movers = [
                    w for w in group.elements if frozenset(map(R.unit_for(w), base)) == target
                ]
                least = min(w.length for w in movers)
                shortest = [w for w in movers if w.length == least]
                assert len(shortest) == 1
                t = face_transporter(R, base, target)
                assert t.unit == shortest[0]
                assert compose(t.map, inverse(t.map)) == PartialInjection.partial_identity(
                    R.degree, target
                )


def test_project_basics(acceptance_monoids):
    for _, R in acceptance_monoids:
        for w in R.group.elements:
            assert project(R, R.unit_for(w)) == R.unit_for(w)
        with pytest.raises(ZeroElement):
            project(R, R.zero)


def test_project_lands_in_star_group_and_roundtrips(basic_b2, canonical_a2):
    for R in (basic_b2, canonical_a2):
        star_sets = {}
        for e in R.lattice.nonzero:
            star_sets[e.index] = {
                compose(R.unit_for(u), R.idempotent_map(e))
                for u in R.lattice.star_group(e).members
            }
        for sigma in R.elements:
            if sigma == R.zero:
                continue
            e = R.stratum_of(sigma)
            p = project(R, sigma)
            assert p in star_sets[e.index]
            to_dom = face_transporter(R, R.face(e), sigma.domain)
            to_rng = face_transporter(R, R.face(e), sigma.image)
            assert compose(to_rng.map, compose(p, inverse(to_dom.map))) == sigma


def test_project_of_invertible_part_is_unit_conjugation(basic_b2):
    R = basic_b2
    for sigma in R.elements:
        part = invertible_part(sigma)
        if part == R.zero:
            continue
        e = R.stratum_of(part)
        t = face_transporter(R, R.face(e), part.domain)
        w = R.unit_for(t.unit)
        wi = R.unit_for(R.group.inv(t.unit))
        assert project(R, part) == compose(wi, compose(part, w))


def test_element_labels(basic_a2):
    R = basic_a2
    assert element_label(R, R.zero) == "0"
    assert element_label(R, R.one) == "1"
    e0 = R.lattice.min_nonzero
    assert element_label(R, R.idempotent_map(e0)) == "e_0"
    s1 = R.unit_for(R.group.generators[0])
    assert element_label(R, s1) == "s1"
    assert element_label(R, compose(s1, R.idempotent_map(e0))) == "s1*e_0"


def test_monoid_json_export(basic_a2):
    doc = monoid_to_json(basic_a2)
    assert set(doc) == {"vertices", "generators", "elements", "strata"}
    assert len(doc["elements"]) == basic_a2.order
    assert sorted(i for idxs in doc["strata"].values() for i in idxs) == list(
        range(basic_a2.order)
    )
    # Byte-identical across dumps.
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        monoid_to_json(make_monoid("A", 2, (1, 0))), sort_keys=True
    )


def test_lattice_order_agrees_with_idempotent_products(acceptance_monoids):
    # e <= f in the lattice exactly when the partial identities multiply as
    # e*f = f*e = e.
    for _, R in acceptance_monoids:
        for e in R.lattice.idempotents:
            pe = R.idempotent_map(e)
            for f in R.lattice.idempotents:
                pf = R.idempotent_map(f)
                product_order = compose(pe, pf) == pe and compose(pf, pe) == pe
                assert product_order == R.lattice.leq(e, f)


def test_normal_form_of_unit_times_idempotent(basic_a2):
    # The shortest unit extending s1 * e_1 is s1 itself, and the range face
    # is the moved domain face.
    R = basic_a2
    s1 = R.group.generators[0]
    e1 = R.lattice.nonzero[1]
    sigma = compose(R.unit_for(s1), R.idempotent_map(e1))
    form = normal_form(R, sigma)
    assert form.unit == s1
    assert form.domain_face == R.face(e1)
    assert form.range_face == frozenset(map(R.unit_for(s1), R.face(e1)))


def test_project_fixes_realized_star_elements(basic_b2):
    R = basic_b2
    for e in R.lattice.nonzero:
        for u in R.lattice.star_group(e).members:
            sigma = compose(R.unit_for(u), R.idempotent_map(e))
            assert project(R, sigma) == sigma


def test_unit_helpers(basic_a2):
    R = basic_a2
    w = R.group.generators[0]
    assert R.is_unit(R.unit_for(w))
    assert not R.is_unit(R.zero)
    e0 = R.lattice.min_nonzero
    sigma = R.idempotent_map(e0)
    moved = R.conjugate_by_unit(w, sigma)
    assert moved == PartialInjection.partial_identity(
        R.degree, frozenset(map(R.unit_for(w), R.face(e0)))
    )
    assert R.units[0] == R.one
