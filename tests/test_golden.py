"""One digest over the lattice-only commands on the whole supported grid.

Every supported type whose Weyl group fits the default cap (A1-A5, B2-B4,
C2-C4, D3, D4, F4, G2) with every zero pattern leaving a nonzero weight:
147 configurations.  The digest covers the argv, exit code and stdout of
``lattice`` in all three formats, and of ``counts`` and ``reps`` in all
three formats with ``--max-monoid-order 5000`` (so the larger monoids
contribute their refusal: exit 3, empty stdout).  Any change to an answer,
a format or a refusal changes the digest.  The lattice is fixed at
construction, so each configuration's lattice is built once and shared by
its nine queries.
"""

import contextlib
import functools
import hashlib
import io
import itertools

from renner import cli

TYPES = [("A", r) for r in range(1, 6)] + [
    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
    ("D", 3), ("D", 4), ("F", 4), ("G", 2),
]
FORMATS = ("table", "json", "csv")

GRID_DIGEST = "c4af02fc669551bca6827016b84d8fd29985fe2e75cad2a95eddb7daa1baff9e"


def grid_argvs():
    for letter, rank in TYPES:
        for bits in itertools.product("10", repeat=rank):
            if "1" not in bits:
                continue
            config = ["--type", f"{letter}{rank}", "--weight", ",".join(bits)]
            for fmt in FORMATS:
                yield ["lattice", *config, "--format", fmt]
            for command in ("counts", "reps"):
                for fmt in FORMATS:
                    yield [command, *config, "--format", fmt, "--max-monoid-order", "5000"]


def test_lattice_counts_reps_grid_digest(monkeypatch):
    monkeypatch.setattr(cli, "build_lattice", functools.cache(cli.build_lattice))
    digest = hashlib.sha256()
    calls = 0
    for argv in grid_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n".encode())
        calls += 1
    assert calls == 147 * 9
    assert digest.hexdigest() == GRID_DIGEST
