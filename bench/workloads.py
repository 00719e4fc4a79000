"""Query lists of the three workloads.

A query is an argv list for ``renner.cli.main`` plus what the harness needs
to check and account for it.  A configuration is a Cartan type and a zero
pattern, written ``"B3:1,0,1"`` (a 0 marks a simple root in J0; only the
zero pattern affects the answers).

- ``build-export``: fixed builds with JSON export, plus over-cap builds.
- ``census``: a seeded, cost-stratified half of every ``lattice`` query on
  the supported grid and of every ``counts``/``reps`` query on its small
  monoids, plus fixed over-cap queries.
- ``classify``: fixed ``classes`` queries of all four kinds.

The seed chooses the census draw, the output formats and weight spellings
of census queries, and the order of every pass.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

# The CLI's default Weyl-group cap: the order of W(F4).
GROUP_CAP = 1152

# counts and reps join the census draw only up to this closed-form |R|;
# every such query takes under 0.3 s with the generator-closure build.
CENSUS_MONOID_LIMIT = 5000


@dataclass(frozen=True)
class Query:
    """One CLI call.  ``refuse`` marks a query whose correct answer is exit
    3 (size cap exceeded) with nothing on stdout."""

    argv: tuple[str, ...]
    command: str
    config: str
    fmt: str = "table"
    kind: Optional[str] = None
    refuse: bool = False


def weyl_order(letter: str, rank: int) -> int:
    if letter == "A":
        return math.factorial(rank + 1)
    if letter in ("B", "C"):
        return 2**rank * math.factorial(rank)
    if letter == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return {"F": 1152, "G": 12}[letter]


def supported_types() -> list[tuple[str, int]]:
    """Every type the CLI accepts whose Weyl group fits the default cap."""
    out = []
    for letter, ranks in (
        ("A", range(1, 8)),
        ("B", range(2, 8)),
        ("C", range(2, 8)),
        ("D", range(3, 8)),
        ("F", (4,)),
        ("G", (2,)),
    ):
        out.extend((letter, r) for r in ranks if weyl_order(letter, r) <= GROUP_CAP)
    return out


def grid_configs() -> list[str]:
    """Every supported type with every zero pattern that leaves a nonzero
    weight."""
    configs = []
    for letter, rank in supported_types():
        for bits in itertools.product("10", repeat=rank):
            if "1" in bits:
                configs.append(f"{letter}{rank}:{','.join(bits)}")
    return configs


def split_config(config: str) -> tuple[str, int, list[int]]:
    """``"B3:1,0,1"`` -> ``("B", 3, [1, 0, 1])``."""
    typ, pattern = config.split(":")
    return typ[0], int(typ[1:]), [int(c) for c in pattern.split(",")]


def closed_form_strata(expected: dict, config: str) -> dict[str, int]:
    """Stratum sizes |W|^2 / (|W(e)| |W_*(e)|) from the pinned lattice."""
    letter, rank, _ = split_config(config)
    w = weyl_order(letter, rank)
    return {
        label: w * w // (cent * stab)
        for label, _, _, cent, stab in expected["lattice"][config]["idempotents"]
    }


def monoid_order(expected: dict, config: str) -> int:
    return sum(closed_form_strata(expected, config).values())


def config_argv(config: str, rng: Optional[random.Random] = None) -> list[str]:
    """``--type`` and the weight as 0/1 coordinates, or, when the seed says
    so and J0 is nonempty, as the ``--j0`` index list."""
    letter, rank, pattern = split_config(config)
    head = ["--type", f"{letter}{rank}"]
    j0 = [str(i + 1) for i, c in enumerate(pattern) if c == 0]
    if rng is not None and j0 and rng.random() < 0.5:
        return head + ["--j0", ",".join(j0)]
    return head + ["--weight", ",".join(map(str, pattern))]


def _query(command, config, fmt="table", kind=None, cap=None, rng=None) -> Query:
    argv = [command] + config_argv(config, rng) + ["--format", fmt]
    if kind is not None:
        argv += ["--kind", kind]
    if cap is not None:
        argv += ["--max-monoid-order", str(cap)]
    return Query(tuple(argv), command, config, fmt, kind, refuse=cap is not None)


# Degree 6-48, |R| 1.8k-21k: the closure and the export dominate.
BUILDS = ("A3:1,1,1", "B3:1,1,1", "D4:1,0,0,0", "B4:0,0,0,1", "A5:0,0,0,0,1", "A4:0,1,0,1")
# Over-cap builds: (configuration, cap below its closed-form |R|).
BUILD_REFUSALS = (("D4:1,1,1,1", 3000), ("F4:1,0,0,0", 20000), ("C4:1,0,0,0", 10000))

# Over-cap census queries, so that refusal latency is measured here too.
CENSUS_REFUSALS = (
    ("counts", "C4:1,0,0,0", 10000),
    ("counts", "A4:1,1,1,1", 3000),
    ("reps", "B3:1,1,1", 2000),
    ("reps", "D4:0,1,0,0", 5000),
)

# Pairwise oracles only under the library's 2000-element cap; sim and munn
# on small to mid monoids.  (config, kind, format).
CLASSIFY = (
    ("G2:1,1", "semigroup", "table"),
    ("G2:1,1", "action", "json"),
    ("B2:1,1", "semigroup", "csv"),
    ("B2:1,1", "action", "table"),
    ("A3:1,0,0", "semigroup", "json"),
    ("A3:1,0,0", "action", "csv"),
    ("A3:1,1,1", "sim", "table"),
    ("A3:1,1,1", "munn", "csv"),
    ("B3:1,0,1", "sim", "json"),
    ("B3:1,0,1", "munn", "table"),
    ("B3:1,1,1", "sim", "csv"),
    ("B3:1,1,1", "munn", "json"),
)
CLASSIFY_REFUSALS = (
    ("B3:1,1,1", "munn", 2000),
    ("C3:1,0,1", "munn", 3000),
    ("A4:1,1,1,1", "sim", 2000),
    ("D4:1,0,0,0", "sim", 5000),
)

# Warm-up touches every command and format of a workload on A2.
WARMUP_CONFIG = "A2:1,1"


def build_export(expected: dict, rng: random.Random) -> list[Query]:
    return [_query("build", c, "json") for c in BUILDS] + [
        _query("build", c, "json", cap=cap) for c, cap in BUILD_REFUSALS
    ]


def census(expected: dict, rng: random.Random) -> list[Query]:
    """Per command, rank the pool by predicted cost and draw one query from
    each pair of neighbours, so every draw carries about half the pool's
    cost and the pass time hardly depends on the seed.  With an odd pool the
    costliest query is always drawn, which also fixes the peak memory.
    Lattice cost is |W| x orbit size x lattice size (a Weyl BFS on the orbit
    and a parabolic per idempotent); counts and reps cost is |R| (the build
    they pay for today)."""
    configs = grid_configs()
    lattice_cost = {
        c: weyl_order(*split_config(c)[:2])
        * expected["lattice"][c]["degree"]
        * len(expected["lattice"][c]["idempotents"])
        for c in configs
    }
    small = [c for c in configs if monoid_order(expected, c) <= CENSUS_MONOID_LIMIT]
    queries = []
    for command, pool, cost, formats in (
        ("lattice", configs, lattice_cost.get, ("table", "json", "csv")),
        ("counts", small, lambda c: monoid_order(expected, c), ("table", "json", "csv")),
        ("reps", small, lambda c: monoid_order(expected, c), ("table", "json")),
    ):
        ranked = sorted(pool, key=lambda c: (cost(c), c), reverse=True)
        odd = len(ranked) % 2
        picks = ranked[:odd] + [rng.choice(ranked[i : i + 2]) for i in range(odd, len(ranked), 2)]
        queries += [_query(command, c, rng.choice(formats), rng=rng) for c in picks]
    queries += [_query(cmd, c, cap=cap, rng=rng) for cmd, c, cap in CENSUS_REFUSALS]
    return queries


def classify(expected: dict, rng: random.Random) -> list[Query]:
    return [_query("classes", c, fmt, kind) for c, kind, fmt in CLASSIFY] + [
        _query("classes", c, kind=kind, cap=cap) for c, kind, cap in CLASSIFY_REFUSALS
    ]


WORKLOADS = {"build-export": build_export, "census": census, "classify": classify}


def warmup(workload: str) -> list[Query]:
    c = WARMUP_CONFIG
    if workload == "build-export":
        return [_query("build", c, "json"), _query("build", c, "json", cap=10)]
    if workload == "census":
        return [
            _query(cmd, c, fmt)
            for cmd, fmts in (
                ("lattice", ("table", "json", "csv")),
                ("counts", ("table", "json", "csv")),
                ("reps", ("table", "json")),
            )
            for fmt in fmts
        ] + [_query("counts", c, cap=10)]
    return [
        _query("classes", c, fmt, kind)
        for kind, fmt in (("sim", "table"), ("munn", "csv"), ("semigroup", "json"), ("action", "csv"))
    ] + [_query("classes", c, kind="sim", cap=10)]
