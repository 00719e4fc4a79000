import json
import time
from pathlib import Path

import pytest

from renner import CrossSectionLattice, PartialInjection, cli, rootsys
from renner.cli import main
from renner.conj import MAX_ROOK_POINTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classes_sim_g2_canonical(capsys):
    code, out, _ = run(
        capsys, "classes", "--type", "G2", "--weight", "1,1", "--kind", "sim"
    )
    assert code == 0
    assert "classes: 35" in out


def test_reps_first_basic_a2(capsys):
    code, out, _ = run(capsys, "reps", "--type", "A2", "--weight", "1,0")
    assert code == 0
    assert out.strip() == "7"


def test_rook_count(capsys):
    code, out, _ = run(capsys, "rook-count", "3")
    assert code == 0
    assert out.strip() == "7"
    code, out, _ = run(capsys, "rook-count", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"munn_classes": 12, "points": 4}
    # The largest count answered; its last term is p(2000).
    code, top, _ = run(capsys, "rook-count", str(MAX_ROOK_POINTS))
    assert code == 0
    _, below, _ = run(capsys, "rook-count", str(MAX_ROOK_POINTS - 1))
    assert int(top) - int(below) == 4720819175619413888601432406799959512200344166
    # One point more is refused before the quadratic loop starts.
    start = time.perf_counter()
    code, out, err = run(capsys, "rook-count", str(MAX_ROOK_POINTS + 1))
    assert time.perf_counter() - start < 0.1
    assert code == 3 and out == "" and "2001 points" in err


def test_readme_counts_example(capsys):
    # The worked example in the README is the command's exact output.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("$ renner counts --type G2 --weight 1,1\n", 1)[1]
    expected = block.split("```", 1)[0]
    code, out, _ = run(capsys, "counts", "--type", "G2", "--weight", "1,1")
    assert code == 0
    assert out == expected


def test_counts_total_matches_sim_classes(capsys):
    code, out, _ = run(capsys, "counts", "--type", "B2", "--weight", "1,1")
    assert code == 0
    assert out.strip().endswith("total: 26")
    code, out, _ = run(
        capsys, "classes", "--type", "B2", "--weight", "1,1", "--kind", "sim"
    )
    assert "classes: 26" in out


def test_counts_csv_layout(capsys):
    code, out, _ = run(
        capsys, "counts", "--type", "A2", "--weight", "1,0", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "e,|W(e)|,|W_*(e)|,coset_count,n_e"
    assert lines[1] == "0,6,6,1,1"
    assert [line.split(",")[4] for line in lines[1:]] == ["1", "2", "4", "3"]


def test_j0_equivalent_to_weight(capsys):
    # Weights with one zero pattern give one answer, bar the weight that
    # lattice JSON prints and the weight orbit that build JSON lists.
    spellings = (["--weight", "2,0,3"], ["--weight", "1,0,1"], ["--j0", "2"])
    echoed = {"lattice": "weight", "build": "vertices"}
    commands = (["lattice"], ["counts"], ["reps"], ["classes", "--kind", "sim"],
                ["classes", "--kind", "munn"], ["build"])
    for command in commands:
        for fmt in ("table", "json", "csv"):
            outs = []
            for spelling in spellings:
                code, out, _ = run(capsys, *command, "--type", "B3", *spelling, "--format", fmt)
                assert code == 0, (command, spelling, fmt)
                if fmt == "json" and command[0] in echoed:
                    out = json.loads(out)
                    del out[echoed[command[0]]]
                outs.append(out)
            assert outs[0] == outs[1] == outs[2], (command, fmt)


def test_json_output_is_deterministic(capsys):
    args = ("classes", "--type", "A2", "--weight", "1,0", "--kind", "munn",
            "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert doc["kind"] == "munn"
    assert doc["class_count"] == 7


def test_build_json_export(capsys):
    code, out, _ = run(
        capsys, "build", "--type", "A2", "--weight", "1,0", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"vertices", "generators", "elements", "strata"}
    assert len(doc["elements"]) == 34


def test_build_export_reads_the_codes(capsys, monkeypatch):
    argv = ("build", "--type", "B2", "--weight", "1,1", "--format", "json")
    _, expected, _ = run(capsys, *argv)

    def no_pairs(self):
        raise AssertionError("the export made a pair list")

    monkeypatch.setattr(PartialInjection, "to_pairs", no_pairs)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == expected


def test_build_table_summary(capsys):
    code, out, _ = run(capsys, "build", "--type", "A2", "--weight", "1,1")
    assert code == 0
    assert "monoid order: 79" in out
    assert "unit group order: 6" in out


def test_lattice_table(capsys):
    code, out, _ = run(capsys, "lattice", "--type", "A2", "--j0", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 idempotents
    assert lines[1].startswith("0")
    assert lines[-1].startswith("1")


def test_validation_errors_exit_2(capsys):
    code, _, err = run(capsys, "counts", "--type", "A2", "--weight", "1,2,3")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "counts", "--type", "Z9", "--weight", "1")
    assert code == 2
    code, _, err = run(capsys, "counts", "--type", "A2", "--weight", "0,0")
    assert code == 2
    code, _, err = run(capsys, "counts", "--type", "A2", "--j0", "1,2")
    assert code == 2
    code, _, err = run(capsys, "reps", "--type", "B1", "--weight", "1")
    assert code == 2


def test_missing_weight_and_j0_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counts", "--type", "A2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("option", ["--max-monoid-order", "--max-group-order"])
def test_negative_caps_are_invalid_input(capsys, option):
    # A negative cap is a usage error (exit 2), not a cap every build passes.
    with pytest.raises(SystemExit) as exc:
        main(["build", "--type", "A2", "--weight", "1,0", option, "-5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {option}: cap -5 is negative" in captured.err
    # Zero is a cap, and every monoid and Weyl group passes it.
    code, out, err = run(capsys, "build", "--type", "A2", "--weight", "1,0", option, "0")
    assert code == 3 and out == "" and "exceeds the cap 0" in err


def _no_element(*args, **kwargs):
    raise AssertionError("the monoid build ran")


def _forbid_the_monoid(monkeypatch):
    """Make building a monoid, or making one by hand, fail.  The CLI imports
    neither, so they are disabled where they are defined."""
    monkeypatch.setattr("renner.monoid.build_renner", _no_element)
    monkeypatch.setattr("renner.monoid.RennerMonoid.__init__", _no_element)


def test_cap_exceeded_exit_3(capsys, monkeypatch):
    code, _, err = run(
        capsys,
        "classes", "--type", "G2", "--weight", "1,1", "--kind", "sim",
        "--max-monoid-order", "50",
    )
    assert code == 3 and "error:" in err
    code, _, err = run(
        capsys, "counts", "--type", "F4", "--weight", "1,1,1,1",
        "--max-group-order", "100",
    )
    assert code == 3 and err == "error: Weyl group of order 1152 exceeds the cap 100\n"
    # Canonical G2 has |R| = 301: a cap of exactly |R| is allowed, one less
    # is refused from the closed-form order, before any element is made.
    code, _, _ = run(
        capsys, "build", "--type", "G2", "--weight", "1,1", "--max-monoid-order", "301"
    )
    assert code == 0
    monkeypatch.setattr("renner.monoid.PartialInjection", _no_element)
    for command in (["build"], ["build", "--format", "json"], ["counts"], ["reps"],
                    ["classes", "--kind", "munn"]):
        code, out, err = run(
            capsys, *command, "--type", "G2", "--weight", "1,1",
            "--max-monoid-order", "300",
        )
        assert code == 3 and out == "" and "error:" in err, command
    # Canonical B4's 384-point weight orbit fits no byte code, so it is
    # refused once the orbit is generated, still before any element.
    for fmt in ("table", "json"):
        code, out, err = run(
            capsys, "build", "--type", "B4", "--weight", "1,1,1,1",
            "--max-monoid-order", "1000000", "--format", fmt,
        )
        assert code == 3 and out == "" and "degree 384" in err, fmt


def _no_matrix(*args):
    raise AssertionError("the Cartan matrix was built")


@pytest.mark.parametrize(
    "argv,code",
    [
        (["lattice", "--type", "A1500", "--weight", ",".join(["1"] * 1500)], 3),
        (["lattice", "--type", "A3000", "--weight", "1"], 2),
        (["counts", "--type", "A100000", "--j0", "1"], 3),
    ],
    ids=["A1500-over-cap", "A3000-short-weight", "A100000-over-cap"],
)
def test_large_ranks_are_refused_before_the_cartan_matrix(capsys, monkeypatch, argv, code):
    # The closed-form |W| is checked against the group cap after the input is
    # validated and before the Cartan matrix (quadratic in the rank) is made.
    monkeypatch.setattr("renner.cli.cartan_matrix", _no_matrix)
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert got == code and out == "" and "error:" in err


def test_parser_is_built_once(capsys, monkeypatch):
    # Every command looks its helpers up when it runs, so one parser serves
    # every call, patched helpers included.
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr("renner.cli.munn_count_rook", lambda points: -points)
    code, out, _ = run(capsys, "rook-count", "3")
    assert code == 0 and out == "-3\n"


def test_classes_pairwise_kinds_answer_under_the_monoid_cap(capsys, monkeypatch):
    # 7057 elements: past the 2000 that the all-pairs closures were held to,
    # under the default monoid cap, so both kinds answer with Munn's count.
    for kind in ("semigroup", "action"):
        code, out, _ = run(
            capsys, "classes", "--type", "B3", "--weight", "1,1,1", "--kind", kind
        )
        assert code == 0 and "classes: 30\n" in out, kind
    code, out, _ = run(
        capsys, "classes", "--type", "B3", "--weight", "1,1,1", "--kind", "munn"
    )
    assert code == 0 and "classes: 30\n" in out
    # --max-monoid-order alone bounds them, still before any element is made.
    monkeypatch.setattr("renner.monoid.PartialInjection", _no_element)
    for kind in ("semigroup", "action"):
        code, out, err = run(
            capsys, "classes", "--type", "B3", "--weight", "1,1,1", "--kind", kind,
            "--max-monoid-order", "2000",
        )
        assert code == 3 and out == "" and "error:" in err, kind


G2_COUNT_ROWS = [
    ["0", 12, 12, 1, 1],
    ["e_0", 1, 1, 12, 12],
    ["e_1", 2, 1, 12, 8],
    ["e_2", 2, 1, 12, 8],
    ["1", 12, 1, 12, 6],
]

COUNTS_AND_REPS_OUTPUT = {
    ("counts", "table"): """\
e    |W(e)|  |W_*(e)|  coset_count  n_e
0    12      12        1            1
e_0  1       1         12           12
e_1  2       1         12           8
e_2  2       1         12           8
1    12      1         12           6
total: 35
""",
    ("counts", "csv"): "e,|W(e)|,|W_*(e)|,coset_count,n_e\n"
    + "".join(",".join(map(str, row)) + "\n" for row in G2_COUNT_ROWS),
    ("counts", "json"): json.dumps(
        {
            "strata": [
                dict(zip(
                    ("e", "centralizer_order", "stabilizer_order", "coset_count", "n_e"),
                    row,
                ))
                for row in G2_COUNT_ROWS
            ],
            "total": 35,
        },
        indent=2,
        sort_keys=True,
    ) + "\n",
    ("reps", "table"): "12\n",
    ("reps", "json"): '{\n  "irreducible_representations": 12\n}\n',
}


def test_no_classes_kind_builds_the_monoid(capsys, monkeypatch):
    # Every kind answers from the lattice, the closures on the sim classes.
    _forbid_the_monoid(monkeypatch)
    config = ("--type", "B3", "--weight", "1,1,1")
    for kind, count in (("sim", 197), ("munn", 30), ("semigroup", 30), ("action", 30)):
        for fmt in ("table", "csv"):
            code, _, _ = run(capsys, "classes", *config, "--kind", kind, "--format", fmt)
            assert code == 0, (kind, fmt)
        code, out, _ = run(capsys, "classes", *config, "--kind", kind, "--format", "json")
        assert code == 0 and json.loads(out)["class_count"] == count, kind
    # Over the cap, every kind refuses from the closed-form |R| before any orbit,
    # of the weight (1152 points for canonical F4) or of omega_1, is made.
    sizes = []
    original = rootsys.weight_orbit

    def recording(*args, **kwargs):
        orbit = original(*args, **kwargs)
        sizes.append(len(orbit))
        return orbit

    monkeypatch.setattr("renner.rootsys.weight_orbit", recording)
    for kind in ("sim", "munn", "semigroup", "action"):
        code, out, err = run(
            capsys, "classes", "--type", "F4", "--weight", "1,1,1,1", "--kind", kind
        )
        assert code == 3 and out == "" and "exceeds the cap 250000" in err, kind
    assert sizes == []


@pytest.mark.parametrize("command,fmt", sorted(COUNTS_AND_REPS_OUTPUT))
def test_counts_and_reps_never_build_the_monoid(capsys, monkeypatch, command, fmt):
    _forbid_the_monoid(monkeypatch)
    code, out, _ = run(capsys, command, "--type", "G2", "--weight", "1,1", "--format", fmt)
    assert code == 0
    assert out == COUNTS_AND_REPS_OUTPUT[command, fmt]


def test_build_never_builds_the_monoid(capsys, monkeypatch, small_grid):
    # Every format answers from the face layout and the unit tables; the
    # sizes table and csv print are the built monoid's strata.
    _forbid_the_monoid(monkeypatch)
    built, _ = small_grid
    for config, R in built:
        lattice = R.lattice
        argv = ("build", "--type", f"{lattice.cartan.letter}{lattice.cartan.rank}",
                "--weight", ",".join(map(str, lattice.weight_spec.mu)))
        sizes = [[e.label, str(len(R.strata[e.index]))] for e in lattice.idempotents]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0 and [line.split(",") for line in out.splitlines()[1:]] == sizes, config
        code, out, _ = run(capsys, *argv)
        lines = out.splitlines()
        assert code == 0 and lines[:3] == [
            f"vertices: {R.degree}", f"unit group order: {R.group.order}", f"monoid order: {R.order}",
        ], config
        assert [line.split() for line in lines[4:]] == sizes, config
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and len(json.loads(out)["elements"]) == R.order, config


def test_build_writes_nothing_when_a_check_fails(capsys, monkeypatch):
    # The face layout is checked before the first piece of the export: a
    # closed-form size off by one for a single idempotent is exit 2 with
    # empty stdout, in every format.
    original = CrossSectionLattice.stratum_size

    def off_by_one(self, e):
        return original(self, e) + (e.label == "e_1")

    monkeypatch.setattr(CrossSectionLattice, "stratum_size", off_by_one)
    for fmt in ("json", "table", "csv"):
        code, out, err = run(
            capsys, "build", "--type", "B3", "--weight", "1,1,1", "--format", fmt
        )
        assert code == 2 and out == "", fmt
        assert err == "error: stratum e_1 differs from its closed-form size\n", fmt


def test_classes_writes_nothing_when_a_check_fails(capsys, monkeypatch):
    # classes reads the same checked face layout as build: a closed-form
    # size off by one for a single idempotent is exit 2 with empty stdout,
    # for every kind in every format.
    original = CrossSectionLattice.stratum_size

    def off_by_one(self, e):
        return original(self, e) + (e.label == "e_1")

    monkeypatch.setattr(CrossSectionLattice, "stratum_size", off_by_one)
    for kind in ("sim", "munn", "semigroup", "action"):
        for fmt in ("json", "table", "csv"):
            code, out, err = run(
                capsys, "classes", "--type", "B3", "--weight", "1,1,1", "--kind", kind,
                "--format", fmt,
            )
            assert code == 2 and out == "", (kind, fmt)
            assert err == "error: stratum e_1 differs from its closed-form size\n", (kind, fmt)


def test_classes_table_blocks(capsys):
    code, out, _ = run(
        capsys, "classes", "--type", "A2", "--weight", "1,0", "--kind", "sim"
    )
    assert code == 0
    assert "stratum 0: 1 classes" in out
    assert "stratum e_0: 2 classes" in out
    assert "stratum e_1: 4 classes" in out
    assert "stratum 1: 3 classes" in out
    assert "s1*e_0" in out


def test_build_csv(capsys):
    code, out, _ = run(
        capsys, "build", "--type", "A2", "--weight", "1,0", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "e,stratum_size"
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "9", "18", "6"]


def test_classes_csv(capsys):
    code, out, _ = run(
        capsys, "classes", "--type", "A2", "--weight", "1,0", "--kind", "munn",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "stratum,size,representative"
    assert len(lines) == 8


def test_lattice_csv_and_json(capsys):
    code, out, _ = run(
        capsys, "lattice", "--type", "B2", "--weight", "1,1", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "e,lambda_star,lambda_sub,|W(e)|,|W_*(e)|"
    code, out, _ = run(
        capsys, "lattice", "--type", "B2", "--weight", "1,1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert [e["label"] for e in doc["idempotents"]] == ["0", "e_0", "e_1", "e_2", "1"]


def test_lattice_commands_never_generate_the_weight_orbit(capsys, monkeypatch):
    # lattice needs only J0, and counts and reps W and J0, so on canonical F4
    # no orbit is larger than the 24 points of the first fundamental weight
    # (the weight orbit has 1152).
    sizes = []
    original = rootsys.weight_orbit

    def recording(*args, **kwargs):
        orbit = original(*args, **kwargs)
        sizes.append(len(orbit))
        return orbit

    monkeypatch.setattr("renner.rootsys.weight_orbit", recording)
    for command in ("lattice", "counts", "reps"):
        code, _, _ = run(
            capsys, command, "--type", "F4", "--weight", "1,1,1,1",
            "--max-monoid-order", "1000000000",
        )
        assert code == 0, command
    assert sizes and max(sizes) <= 24


@pytest.mark.parametrize(
    "typ,total,reps",
    [("F4", 5814, 90), ("A5", 5424, 161), ("B4", 2103, 84), ("D4", 1044, 67)],
)
def test_canonical_counts_and_reps_above_the_monoid_cap(capsys, typ, total, reps):
    config = ("--type", typ, "--weight", ",".join("1" * int(typ[1])))
    cap = ("--max-monoid-order", "1000000000")
    code, out, _ = run(capsys, "counts", *config, *cap, "--format", "json")
    assert code == 0 and json.loads(out)["total"] == total
    code, out, _ = run(capsys, "reps", *config, *cap)
    assert code == 0 and out == f"{reps}\n"
