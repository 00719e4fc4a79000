import json

import pytest

from conftest import (
    EXPORT_CONFIGS,
    cached_build_lattice,
    grid_patterns,
    make_monoid,
    mask_points,
    zero_map,
)
from oracles import (
    all_partial_injections,
    double_coset,
    export_from_elements,
    generator_closure,
    left_cosets,
)
from renner import (
    PartialInjection,
    RennerMonoid,
    SizeCapExceeded,
    ZeroElement,
    cartan_matrix,
    compose,
    generate_weyl,
    inverse,
    invertible_part,
    monoid_to_json,
    normal_form,
    parabolic,
    project,
    stable_domain,
    weight_orbit,
)
from renner.monoid import element_label, face_layout, iter_export
from renner.partialinj import MAX_DEGREE


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
            # One equal consecutive block per face, in face-orbit order: the
            # layout the sim labels read.
            stratum = R.strata[e.index]
            faces = [mask_points(m) for m, face in R.layout.faces.items() if face.owner is e]
            block, rest = divmod(len(stratum), len(faces))
            assert rest == 0, (config, e.label)
            for k, face in enumerate(faces):
                for i in stratum[k * block:(k + 1) * block]:
                    assert R.elements[i].domain == face, (config, e.label, k)
            # The first block is u e for the least u of each coset of the
            # stabilizer, in coset order: the sim labels write the coset
            # orbits there as they stand.
            if not e.is_zero:
                first = [R.canonical_units[i] for i in stratum[:block]]
                reps = left_cosets(parabolic(R.group, e.lambda_sub))[0]
                assert first == list(reps), (config, e.label)
        # Each stratum is the double coset W e W.
        units = [R.unit_for(w) for w in R.group.elements]
        for e in R.lattice.idempotents:
            assert {R.elements[i] for i in R.strata[e.index]} == double_coset(
                units, R.idempotent_map(e)
            ), (config, e.label)
    assert skipped == ["B3(1, 1, 1)", "C3(1, 1, 1)"]


def test_generators_generate_the_monoid(small_grid):
    # The semigroup and action closures run over R.generators and rest on
    # it generating R: the simple reflections, then the idempotent maps of
    # the lattice, whose closure from the identity under right
    # multiplication is the enumeration.
    built, _ = small_grid
    for config, R in built:
        expected = [R.unit_for(g) for g in R.group.generators] + [
            R.idempotent_map(e) for e in R.lattice.idempotents
        ]
        assert R.generators == tuple(dict.fromkeys(expected)), config
        assert generator_closure(R.generators) == set(R.elements), config


def test_canonical_a2_bottom_stratum_size(canonical_a2):
    e0 = canonical_a2.lattice.nonzero[0]
    assert len(canonical_a2.strata[e0.index]) == 36


def test_unit_group_matches_weyl_group(acceptance_monoids):
    for _, R in acceptance_monoids:
        units = [p for p in R.elements if len(p.domain) == R.degree]
        assert len(units) == R.group.order
        assert {R.unit_for(w) for w in R.group.elements} == set(units)
        assert R.units[0] == R.one


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
        assert R.elements[-R.group.order:] == R.units
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
        idempotents = {sigma for sigma in R.elements if compose(sigma, sigma) == sigma}
        assert idempotents == {
            PartialInjection.partial_identity(R.degree, mask_points(mask))
            for mask in R.layout.faces
        }
        for e in R.lattice.idempotents:
            assert R.idempotent_map(e) == PartialInjection.partial_identity(R.degree, R.face(e))


def test_face_sizes_first_basic_a2(basic_a2, canonical_a2):
    assert [len(basic_a2.face(e)) for e in basic_a2.lattice] == [0, 1, 2, 3]
    assert canonical_a2.face(canonical_a2.lattice.zero) == frozenset()


def test_deterministic_rebuild(basic_a2):
    again = make_monoid("A", 2, (1, 0))
    assert [p.code for p in again.elements] == [p.code for p in basic_a2.elements]


def test_build_cap():
    with pytest.raises(SizeCapExceeded):
        make_monoid("A", 2, (1, 0), max_monoid_order=10)


def test_weight_orbits_past_a_byte_are_refused():
    # Canonical B4 has a 384-point weight orbit and |R| under a million; no
    # byte code holds its elements, so the build stops once the orbit is known.
    with pytest.raises(SizeCapExceeded, match="degree 384"):
        make_monoid("B", 4, (1, 1, 1, 1), max_monoid_order=10**6)


def test_unit_tables_are_the_weight_orbits_own_realization():
    # face_layout carries the lattice's group onto the weight orbit along
    # its BFS steps.  A second BFS there, on every grid weight orbit that
    # fits a byte, must find the same vertices and list the same words, and
    # element k's permutation must be unit table k.
    configs = tables = 0
    for letter, rank, mu in grid_patterns():
        cartan = cartan_matrix(letter, rank)
        if len(weight_orbit(cartan, mu)) > MAX_DEGREE:
            continue
        lattice = cached_build_lattice(cartan, mu)
        layout = face_layout(lattice)
        on_weight = generate_weyl(cartan, mu)
        n = layout.degree
        assert layout.vertices == on_weight.vertex_orbit, (letter, mu)
        assert [w.word for w in on_weight] == [w.word for w in lattice.group], (letter, mu)
        carried = [t[:n] for t in layout.unit_tables]
        assert carried == [bytes(w.perm) for w in on_weight], (letter, mu)
        configs += 1
        tables += len(layout.unit_tables)
    assert (configs, tables) == (131, 42_608)


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
            unit = R.unit_for(normal_form(R, sigma))
            e_rng = PartialInjection.partial_identity(R.degree, sigma.image)
            e_dom = PartialInjection.partial_identity(R.degree, sigma.domain)
            assert compose(e_rng, compose(unit, e_dom)) == sigma
            # The unit is a factorizability witness: sigma is its restriction.
            assert compose(unit, e_dom) == sigma


def test_normal_form_unit_is_minimal(basic_b2):
    R = basic_b2
    for sigma in R.elements:
        if sigma == R.zero:
            continue
        e_dom = PartialInjection.partial_identity(R.degree, sigma.domain)
        extending = [w for w in R.group.elements if compose(R.unit_for(w), e_dom) == sigma]
        assert normal_form(R, sigma) == min(extending, key=lambda w: w.canonical_key())


def test_normal_form_special_cases(basic_a2):
    R = basic_a2
    with pytest.raises(ZeroElement):
        normal_form(R, R.zero)
    for w in R.group.elements:
        assert normal_form(R, R.unit_for(w)) == w
    e1 = R.lattice.nonzero[1]
    e1_map = R.idempotent_map(e1)
    assert normal_form(R, e1_map) == R.group.identity
    assert e1_map.domain == e1_map.image == R.face(e1)


def test_normal_form_rejects_foreign_elements(basic_a2):
    with pytest.raises(ValueError):
        normal_form(basic_a2, zero_map(5))


def test_project_and_normal_form_reject_foreign_elements(basic_b2):
    # First basic B2 acts on 4 vertices.  None of these maps is in R,
    # whatever its domain: swapping the last two points while fixing the
    # first two is a permutation outside the 8 units, the second maps the
    # face {0, 1} of e_1 onto {0, 3}, which is no face, and the third is
    # defined on {0, 3}.
    R = basic_b2
    faces = set(map(mask_points, R.layout.faces))
    assert frozenset({0, 1}) in faces and frozenset({0, 3}) not in faces
    foreign = [
        PartialInjection.from_targets((0, 1, 3, 2)),
        PartialInjection.from_targets((0, 3, None, None)),
        PartialInjection.from_targets((0, None, None, 1)),
    ]
    for sigma in foreign:
        assert sigma not in R
        for fn in (normal_form, project, element_label, RennerMonoid.stratum_of):
            with pytest.raises(ValueError, match="does not belong to the monoid"):
                fn(R, sigma)


def test_invertible_part_stays_in_monoid(acceptance_monoids):
    for _, R in acceptance_monoids:
        for sigma in R.elements:
            part = invertible_part(sigma)
            assert part in R
            e_part = PartialInjection.partial_identity(R.degree, stable_domain(sigma))
            assert compose(sigma, e_part) == part
            assert compose(e_part, sigma) == part


def test_subrank_cases(basic_a2):
    # The subrank of x is the stratum of its invertible part.
    R = basic_a2
    for w in R.group.elements:
        assert R.stratum_of(invertible_part(R.unit_for(w))) is R.lattice.one
    assert R.stratum_of(invertible_part(R.zero)) is R.lattice.zero
    e0, e1 = R.lattice.nonzero[0], R.lattice.nonzero[1]
    # s2 * e_1 keeps only the seed vertex stable, so its subrank drops to e_0.
    s2e1 = compose(R.unit_for(R.group.generators[1]), R.idempotent_map(e1))
    assert R.stratum_of(invertible_part(s2e1)) is e0
    # s1 * e_0 moves the single stable vertex away: nilpotent, subrank zero.
    s1e0 = compose(R.unit_for(R.group.generators[0]), R.idempotent_map(e0))
    assert R.stratum_of(invertible_part(s1e0)) is R.lattice.zero


def test_face_action_consistency(acceptance_monoids):
    # Conjugating a face idempotent by a unit is the idempotent on the moved
    # face.
    for _, R in acceptance_monoids:
        faces = [mask_points(mask) for mask in R.layout.faces]
        for w in R.group.elements:
            u = R.unit_for(w)
            ui = R.unit_for(R.group.inv(w))
            for face in faces:
                lhs = compose(u, compose(PartialInjection.partial_identity(R.degree, face), ui))
                assert lhs == PartialInjection.partial_identity(
                    R.degree, frozenset(map(R.unit_for(w), face))
                )


def test_face_transporter_identity_and_orbits(basic_a2):
    # Each idempotent owns exactly the faces of its own face's orbit, and
    # of these only its own face has the identity as transporter.
    R = basic_a2
    units = [R.unit_for(w) for w in R.group.elements]
    for e in R.lattice.idempotents:
        owned = {mask_points(m): face for m, face in R.layout.faces.items() if face.owner is e}
        assert set(owned) == {frozenset(map(u, R.face(e))) for u in units}, e.label
        assert [f for f, face in owned.items() if face.unit == 0] == [R.face(e)]
        assert PartialInjection(owned[R.face(e)].map) == R.idempotent_map(e)


def test_face_transporter_minimal_and_unique(acceptance_monoids):
    for _, R in acceptance_monoids:
        group = R.group
        for mask, face in R.layout.faces.items():
            if face.owner.is_zero:
                continue
            base, target = R.face(face.owner), mask_points(mask)
            movers = [
                w for w in group.elements if frozenset(map(R.unit_for(w), base)) == target
            ]
            least = min(w.length for w in movers)
            shortest = [w for w in movers if w.length == least]
            assert len(shortest) == 1
            t = group.elements[face.unit]
            assert t == shortest[0]
            # The recorded map is t restricted to the base face.
            t_map = PartialInjection(face.map)
            assert t_map == compose(R.unit_for(t), R.idempotent_map(face.owner))
            assert compose(t_map, inverse(t_map)) == PartialInjection.partial_identity(
                R.degree, target
            )


def test_every_domain_is_a_face_of_its_stratum(small_grid):
    # An element's domain, as a 0/1 mask, is a face of the layout, owned by
    # the idempotent whose stratum range holds the element's index.
    built, _ = small_grid
    for config, R in built:
        n = R.degree
        for e in R.lattice.idempotents:
            for i in R.strata[e.index]:
                domain = R.elements[i].domain
                mask = bytes(int(p in domain) for p in range(n)) + bytes(1)
                assert R.layout.faces[mask].owner is e, (config, e.label, i)


def test_project_basics(acceptance_monoids):
    for _, R in acceptance_monoids:
        for w in R.group.elements:
            assert project(R, R.unit_for(w)) == R.unit_for(w)
        with pytest.raises(ZeroElement):
            project(R, R.zero)


def test_project_lands_in_star_group_and_roundtrips(basic_b2, canonical_a2):
    for R in (basic_b2, canonical_a2):
        faces = {mask_points(mask): face for mask, face in R.layout.faces.items()}
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
            to_dom = PartialInjection(faces[sigma.domain].map)
            to_rng = PartialInjection(faces[sigma.image].map)
            assert compose(to_rng, compose(p, inverse(to_dom))) == sigma


def test_project_of_invertible_part_is_unit_conjugation(basic_b2):
    R = basic_b2
    faces = {mask_points(mask): face for mask, face in R.layout.faces.items()}
    for sigma in R.elements:
        part = invertible_part(sigma)
        if part == R.zero:
            continue
        t = R.group.elements[faces[part.domain].unit]
        w = R.unit_for(t)
        wi = R.unit_for(R.group.inv(t))
        assert project(R, part) == compose(wi, compose(part, w))


def test_element_labels(basic_a2):
    R = basic_a2
    assert element_label(R, R.zero) == "0"
    assert element_label(R, R.one) == "1"
    e0 = R.lattice.nonzero[0]
    assert element_label(R, R.idempotent_map(e0)) == "e_0"
    s1 = R.unit_for(R.group.generators[0])
    assert element_label(R, s1) == "s1"
    assert element_label(R, compose(s1, R.idempotent_map(e0))) == "s1*e_0"


def test_monoid_json_export(basic_a2):
    doc = json.loads(monoid_to_json(basic_a2))
    assert set(doc) == {"vertices", "generators", "elements", "strata"}
    assert len(doc["elements"]) == basic_a2.order
    assert sorted(i for idxs in doc["strata"].values() for i in idxs) == list(
        range(basic_a2.order)
    )
    # Byte-identical across builds.
    assert monoid_to_json(basic_a2) == monoid_to_json(make_monoid("A", 2, (1, 0)))


def test_export_text_is_what_json_dumps_writes(small_grid):
    # The export is written without json.dumps; it must be the text json
    # would write for the same document, which holds every element's pairs.
    built, _ = small_grid
    assert "A1(1,)" in [config for config, _ in built]
    for config, R in built:
        text = monoid_to_json(R)
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True), config
        assert doc == {
            "vertices": [list(v) for v in R.vertices],
            "generators": [g.to_pairs() for g in R.generators],
            "elements": [p.to_pairs() for p in R.elements],
            "strata": {e.label: list(R.strata[e.index]) for e in R.lattice.idempotents},
        }, config
        # The zero element comes first, with no defined point.
        assert doc["elements"][0] == [] and '"elements": [\n    [],' in text, config


def test_streamed_export_is_the_built_monoids_export():
    # The stream makes no element; written per element from the built
    # monoid, and by monoid_to_json, the export must be the same text on
    # every grid configuration with |R| <= 5000, and on the six monoids the
    # benchmark exports (|R| 1.8k-21k), whose golden digest only says that
    # their text changed.
    configs = [
        (letter, rank, mu) for letter, rank, mu in grid_patterns()
        if cached_build_lattice(cartan_matrix(letter, rank), mu).monoid_order <= 5000
    ]
    assert len(configs) == 41
    configs += [
        (letter_rank[0], int(letter_rank[1:]), tuple(map(int, weight.split(","))))
        for letter_rank, weight in EXPORT_CONFIGS
    ]
    for letter, rank, mu in configs:
        R = make_monoid(letter, rank, mu)
        pieces = list(iter_export(R.lattice))
        assert len(pieces) == len(R.layout.faces) + 1
        assert "".join(pieces) == export_from_elements(R), (letter, rank, mu)
        # monoid_to_json reads the same text off R's faces and codes.
        assert monoid_to_json(R) == "".join(pieces), (letter, rank, mu)


def test_built_elements_pass_full_validation(small_grid):
    # The build skips the constructor's checks for the codes it makes.
    built, _ = small_grid
    for config, R in built:
        for p in R.elements:
            assert type(p) is PartialInjection
            assert PartialInjection(p.code) == p, config


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
    assert normal_form(R, sigma) == s1
    assert sigma.domain == R.face(e1)
    assert sigma.image == frozenset(map(R.unit_for(s1), R.face(e1)))


def test_project_fixes_realized_star_elements(basic_b2):
    R = basic_b2
    for e in R.lattice.nonzero:
        for u in R.lattice.star_group(e).members:
            sigma = compose(R.unit_for(u), R.idempotent_map(e))
            assert project(R, sigma) == sigma
