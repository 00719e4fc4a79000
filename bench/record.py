"""Record the pinned answers in ``expected.json``.

Run from the repository root after a change that is meant to alter an
answer (not its format):

    python3 bench/record.py

Every pinned value is what the CLI prints, cross-validated once here by an
independent route:

- lattice: the centralizer and stabilizer orders against the parabolic
  orders from the Dynkin classification of their generating sets;
- build: |R| and every stratum size against |W|^2 / (|W(e)| |W_*(e)|);
- counts: n_e and the total against brute-force unit conjugacy, and the
  coset count against |W| / |W_*(e)|;
- reps: against the element-level Munn class count;
- classes: sim against brute-force unit conjugacy, munn against the reps
  count, and semigroup == action == munn as partitions on the monoids where
  the pairwise oracles are run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from renner import cli  # noqa: E402
from renner.conj import (  # noqa: E402
    action_conjugacy_classes,
    munn_classes,
    semigroup_conjugacy_classes,
    sim_classes_bruteforce,
)
from renner.monoid import build_renner  # noqa: E402
from renner.rootsys import cartan_matrix  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402

# The pairwise oracles take under a second up to this many elements.
PAIRWISE_CROSSCHECK_LIMIT = 400


def _cli_json(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv + ["--format", "json"])
    if rc != 0:
        raise SystemExit(f"renner {' '.join(argv)} exited {rc}")
    return json.loads(out.getvalue())


def _monoid(config: str):
    letter, rank, pattern = wl.split_config(config)
    return build_renner(cartan_matrix(letter, rank), pattern)


def _component_order(rows, comp: list[int]) -> int:
    """Weyl-group order of a connected Dynkin diagram, from its shape."""
    n = len(comp)
    valence = {i: sum(1 for j in comp if j != i and rows[i][j]) for i in comp}
    double = [(i, j) for i in comp for j in comp if rows[i][j] == -2]
    if any(rows[i][j] == -3 for i in comp for j in comp):
        return 12  # G2
    if double:
        i, j = double[0]
        if valence[i] == valence[j] == 2:
            return 1152  # F4: the double bond sits inside the chain
        return 2**n * math.factorial(n)  # B_n / C_n
    if any(v > 2 for v in valence.values()):
        return 2 ** (n - 1) * math.factorial(n)  # D_n
    return math.factorial(n + 1)  # A_n


def parabolic_order(rows, subset) -> int:
    """Order of the parabolic generated by ``subset`` (0-based simple roots):
    the product over the connected pieces of the induced subdiagram."""
    remaining = set(subset)
    order = 1
    while remaining:
        comp, stack = [], [remaining.pop()]
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in list(remaining):
                if rows[i][j]:
                    remaining.discard(j)
                    stack.append(j)
        order *= _component_order(rows, comp)
    return order


def _fail(config: str, what: str):
    raise SystemExit(f"cross-validation failed for {config}: {what}")


def record_lattice(config: str) -> dict:
    letter, rank, _ = wl.split_config(config)
    rows = cartan_matrix(letter, rank).rows
    w = wl.weyl_order(letter, rank)
    doc = _cli_json(["lattice"] + wl.config_argv(config))
    idems = []
    for e in doc["idempotents"]:
        star = [i - 1 for i in e["lambda_star"]]
        sub = [i - 1 for i in e["lambda_sub"]]
        if e["label"] == "0":
            want = (w, w)
        else:
            want = (parabolic_order(rows, star + sub), parabolic_order(rows, sub))
        if (e["centralizer_order"], e["stabilizer_order"]) != want:
            _fail(config, f"subgroup orders of {e['label']}")
        idems.append(
            [e["label"], e["lambda_star"], e["lambda_sub"], e["centralizer_order"], e["stabilizer_order"]]
        )
    # The orbit size is the stratum size of the minimal idempotent e_0
    # (|orbit|^2), which the build check below confirms where it runs.
    degree = math.isqrt(w * w // (idems[1][3] * idems[1][4]))
    return {"degree": degree, "idempotents": idems}


def _check_strata(config: str, monoid, expected: dict) -> None:
    strata = wl.closed_form_strata(expected, config)
    got = {e.label: len(monoid.strata[e.index]) for e in monoid.lattice.idempotents}
    if got != strata or monoid.degree != expected["lattice"][config]["degree"]:
        _fail(config, f"stratum sizes {got} against the closed form {strata}")


def record_counts(config: str, monoid, expected: dict) -> dict:
    doc = _cli_json(["counts"] + wl.config_argv(config))
    brute = sim_classes_bruteforce(monoid)
    per_stratum = Counter(e.label for e in brute.strata)
    w = wl.weyl_order(*wl.split_config(config)[:2])
    for s in doc["strata"]:
        if s["n_e"] != per_stratum[s["e"]] or s["coset_count"] != w // s["stabilizer_order"]:
            _fail(config, f"counts row {s}")
    if doc["total"] != brute.class_count:
        _fail(config, "counts total")
    return {
        "rows": [
            [s["e"], s["centralizer_order"], s["stabilizer_order"], s["coset_count"], s["n_e"]]
            for s in doc["strata"]
        ],
        "total": doc["total"],
    }


def record_reps(config: str, monoid) -> int:
    count = _cli_json(["reps"] + wl.config_argv(config))["irreducible_representations"]
    if count != munn_classes(monoid).class_count:
        _fail(config, "reps against the Munn class count")
    return count


def record_build(config: str, expected: dict) -> dict:
    doc = _cli_json(["build"] + wl.config_argv(config))
    elements = doc["elements"]
    strata = wl.closed_form_strata(expected, config)
    distinct = {json.dumps(p) for p in elements}
    if len(distinct) != len(elements) or len(elements) != sum(strata.values()):
        _fail(config, "|R| against the closed form")
    if {k: len(v) for k, v in doc["strata"].items()} != strata:
        _fail(config, "build strata against the closed form")
    return {
        "degree": len(doc["vertices"]),
        "order": len(elements),
        "digest": checks.element_digest(elements),
    }


def record_classes(config: str, kind: str, monoid, reps: int) -> dict:
    doc = _cli_json(["classes"] + wl.config_argv(config) + ["--kind", kind])
    entries = [[c["stratum"], c["size"], c["label"]] for c in doc["classes"]]
    sizes = sorted(size for _, size, _ in entries)
    if kind == "sim":
        brute = sim_classes_bruteforce(monoid)
        if sizes != sorted(len(c) for c in brute.classes):
            _fail(config, "sim classes against brute-force unit conjugacy")
    elif kind == "munn":
        if doc["class_count"] != reps:
            _fail(config, "munn class count against the reps count")
    else:
        munn = munn_classes(monoid)
        if sizes != sorted(len(c) for c in munn.classes):
            _fail(config, f"{kind} classes against munn")
    return {"count": doc["class_count"], "classes": entries}


def check_oracles_agree(config: str, monoid) -> None:
    munn = munn_classes(monoid).partition()
    if not (
        semigroup_conjugacy_classes(monoid).partition()
        == action_conjugacy_classes(monoid).partition()
        == munn
    ):
        _fail(config, "semigroup == action == munn")


def main() -> int:
    expected: dict = {"lattice": {}, "counts": {}, "reps": {}, "build": {}, "classes": {}}
    for config in wl.grid_configs():
        expected["lattice"][config] = record_lattice(config)
    print(f"lattice: {len(expected['lattice'])} configurations", file=sys.stderr)

    small = [
        c for c in wl.grid_configs() if wl.monoid_order(expected, c) <= wl.CENSUS_MONOID_LIMIT
    ]
    kinds: dict[str, set[str]] = {}
    for config, kind, _ in wl.CLASSIFY:
        kinds.setdefault(config, set()).add(kind)
    kinds.setdefault(wl.WARMUP_CONFIG, set()).update(("sim", "munn", "semigroup", "action"))
    for config in sorted(set(small) | set(kinds) | set(wl.BUILDS)):
        monoid = _monoid(config)
        _check_strata(config, monoid, expected)
        reps = record_reps(config, monoid)
        if config in small:
            expected["counts"][config] = record_counts(config, monoid, expected)
            expected["reps"][config] = reps
        for kind in sorted(kinds.get(config, ())):
            expected["classes"][f"{config}/{kind}"] = record_classes(config, kind, monoid, reps)
        if config in kinds and monoid.order <= PAIRWISE_CROSSCHECK_LIMIT:
            check_oracles_agree(config, monoid)
        print(f"{config}: |R| = {monoid.order}", file=sys.stderr)
    for config in wl.BUILDS + (wl.WARMUP_CONFIG,):
        expected["build"][config] = record_build(config, expected)

    path = BENCH / "expected.json"
    path.write_text(json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
