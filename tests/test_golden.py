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

Lattices and monoids are fixed at construction, so each configuration's
lattice and monoid are built once and shared by its queries.
"""

import contextlib
import functools
import hashlib
import io
import itertools

from renner import cli, monoid

TYPES = [("A", r) for r in range(1, 6)] + [
    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
    ("D", 3), ("D", 4), ("F", 4), ("G", 2),
]
FORMATS = ("table", "json", "csv")

GRID_DIGEST = "c4af02fc669551bca6827016b84d8fd29985fe2e75cad2a95eddb7daa1baff9e"
CLASSES_DIGEST = "96f77c86c229ddd4a59cccba9fc0912e55851b269f20acfc9eac40ba2dea0ec5"


def grid_configs():
    for letter, rank in TYPES:
        for bits in itertools.product("10", repeat=rank):
            if "1" in bits:
                yield ["--type", f"{letter}{rank}", "--weight", ",".join(bits)]


def digest_of(argvs):
    """The sha256 over every query's argv, exit code and stdout, and the
    number of queries run."""
    digest = hashlib.sha256()
    calls = 0
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n".encode())
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


def test_lattice_counts_reps_grid_digest(monkeypatch):
    monkeypatch.setattr(cli, "build_lattice", functools.cache(cli.build_lattice))
    assert digest_of(grid_argvs()) == (GRID_DIGEST, 147 * 9)


def test_sim_and_munn_classes_grid_digest(monkeypatch):
    # A refused build raises, so it is not cached; its lattice is.
    monkeypatch.setattr(monoid, "build_lattice", functools.cache(monoid.build_lattice))
    monkeypatch.setattr(cli, "build_renner", functools.cache(cli.build_renner))
    assert digest_of(classes_argvs()) == (CLASSES_DIGEST, 147 * 6)
