import json
import time
from pathlib import Path

import pytest

from renner import cli, rootsys
from renner.cli import main


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
    _, out_w, _ = run(
        capsys, "counts", "--type", "A2", "--weight", "1,0", "--format", "json"
    )
    _, out_j, _ = run(capsys, "counts", "--type", "A2", "--j0", "2", "--format", "json")
    assert out_w == out_j


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


def _no_element(*args):
    raise AssertionError("the monoid build ran")


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
    for command in (["build"], ["counts"], ["reps"], ["classes", "--kind", "munn"]):
        code, out, err = run(
            capsys, *command, "--type", "G2", "--weight", "1,1",
            "--max-monoid-order", "300",
        )
        assert code == 3 and out == "" and "error:" in err, command


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


def test_classes_semigroup_uses_the_pairwise_cap(capsys, monkeypatch):
    # 7057 elements: under the monoid cap, over the pairwise oracles' 2000,
    # so both pairwise kinds refuse before any element is made.
    monkeypatch.setattr("renner.monoid.PartialInjection", _no_element)
    for kind in ("semigroup", "action"):
        code, out, err = run(
            capsys, "classes", "--type", "B3", "--weight", "1,1,1", "--kind", kind
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


@pytest.mark.parametrize("command,fmt", sorted(COUNTS_AND_REPS_OUTPUT))
def test_counts_and_reps_never_build_the_monoid(capsys, monkeypatch, command, fmt):
    monkeypatch.setattr("renner.cli.build_renner", _no_element)
    code, out, _ = run(capsys, command, "--type", "G2", "--weight", "1,1", "--format", fmt)
    assert code == 0
    assert out == COUNTS_AND_REPS_OUTPUT[command, fmt]


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
    # lattice, counts and reps need only W and J0, so on canonical F4 no orbit
    # is larger than the 24 points of the first fundamental weight (the
    # weight orbit has 1152).
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
