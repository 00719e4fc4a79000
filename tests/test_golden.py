"""Digests of the CLI's answers on the whole supported grid.

Every supported type whose Weyl group fits the default cap (A1-A5, B2-B4,
C2-C4, D3, D4, F4, G2) with every zero pattern leaving a nonzero weight:
147 configurations.  Each digest covers the argv, exit code and stdout of
its queries, so any change to an answer, a format or a refusal changes it.

* ``lattice`` in all three formats, and ``counts`` and ``reps`` in all
  three formats with ``--max-monoid-order 5000`` (the larger monoids
  contribute their refusal: exit 3, empty stdout).
* ``classes --kind sim|munn`` in all three formats with
  ``--max-monoid-order 1000``: 27 configurations answer, the rest refuse.
* ``classes --kind semigroup|action`` in all three formats on the 16
  configurations whose closed-form |R| is at most 300.
* ``build --format json`` with ``--max-monoid-order 1000``: the element
  order, generators and strata of the 27 monoids that answer.
* ``build --format json`` on six larger monoids (|R| 1.8k-21k, degree
  6-48), past that cap.
* ``lattice`` alone in all three formats with Weyl-group generation
  disabled, and with it every refusal at ``--max-monoid-order 5000`` of
  ``counts``, ``reps``, ``build`` and ``classes`` of each kind (106
  configurations): both answer from closed-form orders, checked here
  against enumerated subgroups.

Lattices never change once made (a lattice's group and subgroups are
filled in once, on first use), so each configuration's lattice is built
once and shared by its queries.
"""

import contextlib
import hashlib
import io

import renner
from conftest import cached_build_lattice, grid_patterns, rebind_everywhere
from renner import cli, crosslat, rootsys

FORMATS = ("table", "json", "csv")

GRID_DIGEST = "c4af02fc669551bca6827016b84d8fd29985fe2e75cad2a95eddb7daa1baff9e"
CLASSES_DIGEST = "96f77c86c229ddd4a59cccba9fc0912e55851b269f20acfc9eac40ba2dea0ec5"
PAIRWISE_DIGEST = "d098af55ef4196a7625d540cb52aa40989f2ddf1d38b0b8734b881141c698026"
BUILD_DIGEST = "d7e0640b6e67168550bbd978462d2951decc296cec0b09f398ba24a9ff5ee26e"
EXPORT_DIGEST = "b52a066c16db5514472d05962a59242341e3296e26b3a6b4c6271899d0ee4604"
# The six monoids of the benchmark's build-export workload, |R| 1.8k-21k.
EXPORT_CONFIGS = (
    ("A3", "1,1,1"), ("B3", "1,1,1"), ("D4", "1,0,0,0"),
    ("B4", "0,0,0,1"), ("A5", "0,0,0,0,1"), ("A4", "0,1,0,1"),
)
PAIRWISE_MAX_ORDER = 300
# The grid's 441 lattice queries alone, as printed from enumerated subgroups.
LATTICE_DIGEST = "675db0eddebe5d56d3d769f604b142fd6f6f9e382adf93a786d68b29f30e0b9c"
REFUSAL_CAP = 5000


def grid_configs():
    for letter, rank, mu in grid_patterns():
        yield ["--type", f"{letter}{rank}", "--weight", ",".join(map(str, mu))]


def answer(argv):
    """Exit code, stdout and stderr of one query."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest_of(argvs):
    """The sha256 over every query's argv, exit code and stdout, and the
    number of queries run."""
    digest = hashlib.sha256()
    calls = 0
    for argv in argvs:
        code, out, _ = answer(argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\n".encode())
        calls += 1
    return digest.hexdigest(), calls


def grid_argvs():
    for config in grid_configs():
        for fmt in FORMATS:
            yield ["lattice", *config, "--format", fmt]
        for command in ("counts", "reps"):
            for fmt in FORMATS:
                yield [command, *config, "--format", fmt, "--max-monoid-order", "5000"]


def classes_argvs():
    for config in grid_configs():
        for kind in ("sim", "munn"):
            for fmt in FORMATS:
                yield ["classes", *config, "--kind", kind, "--format", fmt,
                       "--max-monoid-order", "1000"]


def pairwise_argvs():
    for config in grid_configs():
        letter, rank = config[1][0], int(config[1][1:])
        if rootsys.standard_weyl_order(letter, rank) > PAIRWISE_MAX_ORDER:
            continue  # the units alone outnumber the bound
        mu = tuple(map(int, config[3].split(",")))
        lattice = cli.build_lattice(rootsys.cartan_matrix(letter, rank), mu)
        if lattice.monoid_order > PAIRWISE_MAX_ORDER:
            continue
        for kind in ("semigroup", "action"):
            for fmt in FORMATS:
                yield ["classes", *config, "--kind", kind, "--format", fmt]


def test_lattice_counts_reps_grid_digest(monkeypatch):
    monkeypatch.setattr(cli, "build_lattice", cached_build_lattice)
    assert digest_of(grid_argvs()) == (GRID_DIGEST, 147 * 9)


def _no_group(*args, **kwargs):
    raise AssertionError("a Weyl group was generated")


def test_lattice_and_cap_refusals_generate_no_weyl_group(monkeypatch):
    # Each configuration's |R| from the orders of enumerated parabolics,
    # before group generation is disabled in every module that binds it.
    orders = {}
    for config, (letter, rank, mu) in zip(grid_configs(), grid_patterns()):
        lattice = cli.build_lattice(rootsys.cartan_matrix(letter, rank), mu)
        group = lattice.group
        w = group.order
        orders[tuple(config)] = sum(
            w * w // (rootsys.parabolic(group, e.lambda_set).order
                      * rootsys.parabolic(group, e.lambda_sub).order)
            for e in lattice.nonzero
        ) + 1
    rebind_everywhere(monkeypatch, "generate_weyl", _no_group, (renner, rootsys, crosslat))
    lattice_argvs = (["lattice", *c, "--format", f] for c in grid_configs() for f in FORMATS)
    assert digest_of(lattice_argvs) == (LATTICE_DIGEST, 147 * 3)
    commands = [["counts"], ["reps"], ["build"]] + [
        ["classes", "--kind", kind] for kind in ("sim", "munn", "semigroup", "action")
    ]
    refused = [config for config, order in orders.items() if order > REFUSAL_CAP]
    for config in refused:
        want = (3, "", f"error: Renner monoid of order {orders[config]} exceeds the cap 5000\n")
        for command in commands:
            argv = [*command, *config, "--max-monoid-order", str(REFUSAL_CAP)]
            assert answer(argv) == want, argv
    assert len(refused) == 106


def test_sim_and_munn_classes_grid_digest(monkeypatch):
    # Both kinds answer from the lattice, refused ones included.
    monkeypatch.setattr(cli, "build_lattice", cached_build_lattice)
    assert digest_of(classes_argvs()) == (CLASSES_DIGEST, 147 * 6)


def test_semigroup_and_action_classes_digest(monkeypatch):
    # Both kinds answer from the lattice, as the Munn classes (the paper's theorem).
    monkeypatch.setattr(cli, "build_lattice", cached_build_lattice)
    assert digest_of(pairwise_argvs()) == (PAIRWISE_DIGEST, 16 * 6)


def test_build_export_grid_digest():
    argvs = (
        ["build", *config, "--format", "json", "--max-monoid-order", "1000"]
        for config in grid_configs()
    )
    assert digest_of(argvs) == (BUILD_DIGEST, 147)


def test_build_export_of_larger_monoids_digest():
    argvs = (
        ["build", "--type", letter_rank, "--weight", weight, "--format", "json"]
        for letter_rank, weight in EXPORT_CONFIGS
    )
    assert digest_of(argvs) == (EXPORT_DIGEST, 6)
