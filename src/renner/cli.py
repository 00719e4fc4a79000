"""Command-line front end.

Reads a Cartan type and a dominant weight (or the weight's zero pattern) and
prints the cross-section lattice, a chosen conjugacy classification,
per-stratum class counts, or the irreducible representation count, as a
table, JSON, or CSV.  No command builds the monoid.  ``build`` checks the
face layout against the closed-form stratum sizes, prints those sizes as a
table or CSV, and streams its JSON export from the faces and unit tables on
the weight orbit, in pieces, making no element object.  On canonical D4
(|R| = 166 081; 2-vCPU machine, Python 3.11, fresh process) ``build
--format json`` takes 0.6-0.75 s and 28 MB a call, against 1.0-1.5 s and
166-169 MB when it built the monoid first.  ``classes`` lists every kind
from the lattice's stabilizer cosets and the same checked face layout as
``build``, so a failed check prints nothing: sim and Munn directly,
semigroup and action as closures on the sim classes.
On canonical D4 a call takes 0.1-0.2 s for sim and Munn and 0.3-0.4 s and
19 MB for semigroup and action, against 3.4-4.2 s and 112 MB when the
closures ran on the built monoid.  ``lattice`` prints the closed-form
subgroup orders and generates no Weyl group; ``counts`` and ``reps`` read
only the lattice and its group on the orbit of the first fundamental
weight.  Every monoid-level command checks ``--max-monoid-order`` against
the closed-form |R| first, so a refusal generates no group or orbit.  Exit
codes: 0 success, 2 invalid input, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from typing import Iterable, Optional, Sequence

from .conj import (
    CLASS_KINDS,
    ClassRow,
    class_rows_json,
    irreducible_rep_count,
    lattice_class_rows,
    munn_count_rook,
    orbit_report_rows,
)
from .crosslat import CrossSectionLattice, DominantWeightSpec, build_lattice
from .errors import RennerError, SizeCapExceeded
from .monoid import DEFAULT_MAX_MONOID_ORDER, check_monoid_cap, face_layout, iter_export
from .rootsys import DEFAULT_MAX_GROUP_ORDER, CartanMatrix, cartan_matrix
from .rootsys import check_group_cap, validate_type

_TYPE_RE = re.compile(r"^([A-Ga-g])\s*(\d+)$")

# ``build --format json`` gathers the faces of its export into writes of at
# least this many characters (a longer face, or the closing strata and
# vertices, goes out whole).  One write per face, or one for the whole
# text, leaves a larger heap behind under a caller that captures stdout and
# then parses it; writes this size keep that caller's peak where it was
# when the export was one string.
EXPORT_PIECE = 64 * 1024


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


def _cap(text: str) -> int:
    """A size cap: a nonnegative integer (a negative one is invalid input,
    not a cap every build exceeds)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"cap {value} is negative")
    return value


def _type_and_weight(args: argparse.Namespace) -> tuple[CartanMatrix, tuple[int, ...]]:
    letter, rank = _parse_type(args.type)
    validate_type(letter, rank)
    if args.weight is not None:
        coords = _parse_int_list(args.weight)
        if len(coords) != rank:
            raise ValueError(f"weight has {len(coords)} entries, expected {rank}")
        spec = DominantWeightSpec(coords)
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
    cartan = lattice.cartan
    header = ["e", "lambda_star", "lambda_sub", "|W(e)|", "|W_*(e)|"]
    rows = [
        [
            e.label,
            _set_notation(e.lambda_star),
            _set_notation(e.lambda_sub),
            lattice.centralizer_order(e),
            lattice.stabilizer_order(e),
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
                        "centralizer_order": lattice.centralizer_order(e),
                        "stabilizer_order": lattice.stabilizer_order(e),
                    }
                    for e in lattice.idempotents
                ],
            }
        )
    elif args.format == "csv":
        _emit_csv(header, rows)
    else:
        _emit_table(header, rows)


def _emit_pieces(texts: Iterable[str]) -> None:
    """Write ``texts`` and a newline to stdout, gathered into writes of at
    least ``EXPORT_PIECE`` characters (the last one may be shorter)."""
    write = sys.stdout.write
    piece: list[str] = []
    size = 0
    for text in texts:
        piece.append(text)
        size += len(text)
        if size >= EXPORT_PIECE:
            write("".join(piece))
            piece.clear()
            size = 0
    piece.append("\n")
    write("".join(piece))


def cmd_build(args: argparse.Namespace) -> None:
    lattice = _lattice(args)
    check_monoid_cap(lattice, args.max_monoid_order)
    if args.format == "json":
        _emit_pieces(iter_export(lattice))
        return
    # The checks of the layout pass, so the strata have their closed-form sizes.
    layout = face_layout(lattice)
    rows = [[e.label, lattice.stratum_size(e)] for e in lattice.idempotents]
    if args.format == "csv":
        _emit_csv(["e", "stratum_size"], rows)
    else:
        print(f"vertices: {layout.degree}")
        print(f"unit group order: {lattice.group.order}")
        print(f"monoid order: {lattice.monoid_order}")
        _emit_table(["e", "stratum_size"], rows)


def cmd_classes(args: argparse.Namespace) -> None:
    lattice = _lattice(args)
    check_monoid_cap(lattice, args.max_monoid_order)
    rows = lattice_class_rows(lattice, args.kind)
    if args.format == "json":
        print(class_rows_json(args.kind, rows))
        return
    if args.format == "csv":
        _emit_csv(
            ["stratum", "size", "representative"],
            [[row.stratum or "", row.size, row.label] for row in rows],
        )
        return
    print(f"kind: {args.kind}")
    print(f"classes: {len(rows)}")
    blocks: dict[str, list[ClassRow]] = {}  # in first-seen order
    for row in rows:
        blocks.setdefault(row.stratum or "(all)", []).append(row)
    for key, block in blocks.items():
        print(f"stratum {key}: {len(block)} classes")
        for row in block:
            print(f"  {row.label}  (size {row.size})")


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
        "coordinates); only the zero pattern matters, bar the weight and its "
        "orbit that lattice and build print in JSON",
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
        "--max-group-order", type=_cap, default=DEFAULT_MAX_GROUP_ORDER
    )
    parser.add_argument(
        "--max-monoid-order", type=_cap, default=DEFAULT_MAX_MONOID_ORDER
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

    p = sub.add_parser("build", help="print the stratum sizes, or export the monoid as JSON")
    _add_monoid_arguments(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("classes", help="print a conjugacy classification")
    _add_monoid_arguments(p)
    p.add_argument("--kind", required=True, choices=CLASS_KINDS)
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
