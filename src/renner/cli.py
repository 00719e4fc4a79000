"""Command-line front end.

Reads a Cartan type and a dominant weight (or the weight's zero pattern) and
prints the cross-section lattice, a chosen conjugacy classification,
per-stratum class counts, or the irreducible representation count, as a
table, JSON, or CSV.  Only ``build`` and ``classes`` build the monoid;
``counts`` and ``reps`` read the lattice and check ``--max-monoid-order``
against the closed-form |R|.  Exit codes: 0 success, 2 invalid input, 3 size
cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from typing import Optional, Sequence

from .conj import (
    DEFAULT_PAIRWISE_CAP,
    action_conjugacy_classes,
    classification_to_json,
    irreducible_rep_count,
    munn_classes,
    munn_count_rook,
    orbit_report_rows,
    semigroup_conjugacy_classes,
    sim_conjugacy_classes,
)
from .crosslat import CrossSectionLattice, DominantWeightSpec, build_lattice
from .errors import RennerError, SizeCapExceeded
from .monoid import (
    DEFAULT_MAX_MONOID_ORDER,
    RennerMonoid,
    build_renner,
    check_monoid_cap,
    element_label,
    monoid_to_json,
)
from .rootsys import DEFAULT_MAX_GROUP_ORDER, CartanMatrix, cartan_matrix
from .rootsys import check_group_cap, validate_type

_TYPE_RE = re.compile(r"^([A-Ga-g])\s*(\d+)$")


def _parse_type(text: str) -> tuple[str, int]:
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse Cartan type {text!r} (expected e.g. A2, B3, F4)")
    return m.group(1).upper(), int(m.group(2))


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse integer list {text!r}") from exc


def _type_and_weight(args: argparse.Namespace) -> tuple[CartanMatrix, tuple[int, ...]]:
    letter, rank = _parse_type(args.type)
    validate_type(letter, rank)
    if args.weight is not None:
        coords = _parse_int_list(args.weight)
        if len(coords) != rank:
            raise ValueError(f"weight has {len(coords)} entries, expected {rank}")
        spec = DominantWeightSpec.from_weight(coords)
    else:
        indices = _parse_int_list(args.j0)
        for i in indices:
            if not 1 <= i <= rank:
                raise ValueError(f"--j0 index {i} out of range 1..{rank}")
        spec = DominantWeightSpec.from_j0(rank, [i - 1 for i in indices])
    # After the input checks (exit 2), before the Cartan matrix (rank^2).
    check_group_cap(letter, rank, args.max_group_order)
    return cartan_matrix(letter, rank), spec.mu


def _lattice(args: argparse.Namespace) -> CrossSectionLattice:
    return build_lattice(*_type_and_weight(args), max_group_order=args.max_group_order)


def _build_monoid(args: argparse.Namespace, max_monoid_order: int) -> RennerMonoid:
    return build_renner(
        *_type_and_weight(args),
        max_group_order=args.max_group_order,
        max_monoid_order=max_monoid_order,
    )


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_table(header: Sequence[str], rows: Sequence[Sequence]) -> None:
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _set_notation(indices: frozenset[int]) -> str:
    if not indices:
        return "{}"
    return "{" + ",".join(str(i + 1) for i in sorted(indices)) + "}"


def cmd_lattice(args: argparse.Namespace) -> None:
    lattice = _lattice(args)
    cartan = lattice.group.cartan
    header = ["e", "lambda_star", "lambda_sub", "|W(e)|", "|W_*(e)|"]
    rows = [
        [
            e.label,
            _set_notation(e.lambda_star),
            _set_notation(e.lambda_sub),
            lattice.centralizer(e).order,
            lattice.stabilizer(e).order,
        ]
        for e in lattice.idempotents
    ]
    if args.format == "json":
        _emit_json(
            {
                "type": f"{cartan.letter}{cartan.rank}",
                "weight": list(lattice.weight_spec.mu),
                "idempotents": [
                    {
                        "label": e.label,
                        "lambda_star": sorted(i + 1 for i in e.lambda_star),
                        "lambda_sub": sorted(i + 1 for i in e.lambda_sub),
                        "centralizer_order": lattice.centralizer(e).order,
                        "stabilizer_order": lattice.stabilizer(e).order,
                    }
                    for e in lattice.idempotents
                ],
            }
        )
    elif args.format == "csv":
        _emit_csv(header, rows)
    else:
        _emit_table(header, rows)


def cmd_build(args: argparse.Namespace) -> None:
    monoid = _build_monoid(args, args.max_monoid_order)
    if args.format == "json":
        _emit_json(monoid_to_json(monoid))
        return
    rows = [
        [e.label, len(monoid.strata[e.index])] for e in monoid.lattice.idempotents
    ]
    if args.format == "csv":
        _emit_csv(["e", "stratum_size"], rows)
    else:
        print(f"vertices: {monoid.degree}")
        print(f"unit group order: {monoid.group.order}")
        print(f"monoid order: {monoid.order}")
        _emit_table(["e", "stratum_size"], rows)


_KINDS = {
    "sim": sim_conjugacy_classes,
    "munn": munn_classes,
    "semigroup": semigroup_conjugacy_classes,
    "action": action_conjugacy_classes,
}


def cmd_classes(args: argparse.Namespace) -> None:
    cap = args.max_monoid_order
    if args.kind in ("semigroup", "action"):
        # The pairwise oracles' own cap, checked before the build, not after.
        cap = min(cap, DEFAULT_PAIRWISE_CAP)
    monoid = _build_monoid(args, cap)
    classification = _KINDS[args.kind](monoid)
    if args.format == "json":
        _emit_json(classification_to_json(monoid, classification))
        return
    if args.format == "csv":
        rows = [
            [e.label if e is not None else "", len(cls), element_label(monoid, rep)]
            for e, cls, rep in zip(
                classification.strata,
                classification.classes,
                classification.representatives,
            )
        ]
        _emit_csv(["stratum", "size", "representative"], rows)
        return
    print(f"kind: {classification.kind}")
    print(f"classes: {classification.class_count}")
    blocks: dict[str, list[tuple[str, int]]] = {}  # in first-seen order
    for e, cls, rep in zip(
        classification.strata, classification.classes, classification.representatives
    ):
        key = e.label if e is not None else "(all)"
        blocks.setdefault(key, []).append((element_label(monoid, rep), len(cls)))
    for key, block in blocks.items():
        print(f"stratum {key}: {len(block)} classes")
        for label, size in block:
            print(f"  {label}  (size {size})")


def cmd_counts(args: argparse.Namespace) -> None:
    lattice = _lattice(args)
    check_monoid_cap(lattice, args.max_monoid_order)
    rows = orbit_report_rows(lattice)
    total = sum(row[4] for row in rows)
    header = ["e", "|W(e)|", "|W_*(e)|", "coset_count", "n_e"]
    if args.format == "json":
        keys = ("e", "centralizer_order", "stabilizer_order", "coset_count", "n_e")
        _emit_json({"strata": [dict(zip(keys, row)) for row in rows], "total": total})
    elif args.format == "csv":
        _emit_csv(header, rows)
    else:
        _emit_table(header, rows)
        print(f"total: {total}")


def cmd_reps(args: argparse.Namespace) -> None:
    lattice = _lattice(args)
    check_monoid_cap(lattice, args.max_monoid_order)
    count = irreducible_rep_count(lattice)
    if args.format == "json":
        _emit_json({"irreducible_representations": count})
    else:
        print(count)


def cmd_rook_count(args: argparse.Namespace) -> None:
    count = munn_count_rook(args.points)
    if args.format == "json":
        _emit_json({"points": args.points, "munn_classes": count})
    else:
        print(count)


def _add_monoid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--type",
        required=True,
        metavar="XN",
        help="Cartan type with rank fused, e.g. A2, B3, D4, F4, G2",
    )
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument(
        "--weight",
        help="comma-separated nonnegative integers (fundamental-weight "
        "coordinates); only the zero pattern matters",
    )
    which.add_argument(
        "--j0",
        help="comma-separated 1-based indices of the simple roots pairing "
        "to zero with the weight (equivalent to a 0/1 weight)",
    )
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )
    parser.add_argument(
        "--max-group-order", type=int, default=DEFAULT_MAX_GROUP_ORDER
    )
    parser.add_argument(
        "--max-monoid-order", type=int, default=DEFAULT_MAX_MONOID_ORDER
    )


@functools.cache  # building the parser costs more than a small query
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renner",
        description="Renner monoids of J-irreducible monoids: lattices, "
        "conjugacy classes, and representation counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="print the cross-section lattice")
    _add_monoid_arguments(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("build", help="build the monoid and print/export it")
    _add_monoid_arguments(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("classes", help="print a conjugacy classification")
    _add_monoid_arguments(p)
    p.add_argument("--kind", required=True, choices=tuple(_KINDS))
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("counts", help="per-stratum class counts and the total")
    _add_monoid_arguments(p)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("reps", help="number of irreducible representations")
    _add_monoid_arguments(p)
    p.set_defaults(func=cmd_reps)

    p = sub.add_parser(
        "rook-count", help="Munn class count of the rook monoid on N points"
    )
    p.add_argument("points", type=int, metavar="N")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_rook_count)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RennerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
