"""Answer checks against the pinned answers in ``expected.json``.

Each check parses what the CLI printed and compares values, not bytes: a
later change may add columns or keys, or reorder the elements of a build
export, without failing.  A build is checked against the closed-form |R|
and stratum sizes and against an order-insensitive digest of its element
set.  A query over a size cap passes only with exit 3 and empty stdout.
"""

from __future__ import annotations

import csv
import hashlib
import json
from typing import Optional

from workloads import Query, closed_form_strata


def element_digest(elements: list) -> str:
    """SHA-256 of the sorted compact encodings of the elements' pair lists."""
    h = hashlib.sha256()
    for line in sorted(json.dumps(p, separators=(",", ":")) for p in elements):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _set_list(text: str) -> list[int]:
    """``"{1,3}"`` -> ``[1, 3]``; ``"{}"`` -> ``[]``."""
    inner = text.strip()[1:-1]
    return [int(x) for x in inner.split(",")] if inner else []


def _records(query: Query, out: str) -> list[dict]:
    """Rows of a table or CSV answer as dicts keyed by the header."""
    lines = out.splitlines()
    if query.fmt == "csv":
        return list(csv.DictReader(lines))
    header = lines[0].split()
    rows = [line.split() for line in lines[1:] if line.strip()]
    return [dict(zip(header, row)) for row in rows if not row[0].endswith(":")]


def _lattice(query: Query, out: str) -> list:
    if query.fmt == "json":
        return [
            [e["label"], e["lambda_star"], e["lambda_sub"], e["centralizer_order"], e["stabilizer_order"]]
            for e in json.loads(out)["idempotents"]
        ]
    return [
        [r["e"], _set_list(r["lambda_star"]), _set_list(r["lambda_sub"]), int(r["|W(e)|"]), int(r["|W_*(e)|"])]
        for r in _records(query, out)
    ]


def _counts(query: Query, out: str) -> tuple[list, Optional[int]]:
    """Per-stratum rows and the printed total (CSV prints none)."""
    if query.fmt == "json":
        doc = json.loads(out)
        rows = [
            [s["e"], s["centralizer_order"], s["stabilizer_order"], s["coset_count"], s["n_e"]]
            for s in doc["strata"]
        ]
        return rows, doc["total"]
    rows = [
        [r["e"], int(r["|W(e)|"]), int(r["|W_*(e)|"]), int(r["coset_count"]), int(r["n_e"])]
        for r in _records(query, out)
    ]
    total = None
    for line in out.splitlines():
        if line.startswith("total:"):
            total = int(line.split(":")[1])
    return rows, total


def _reps(query: Query, out: str) -> int:
    if query.fmt == "json":
        return json.loads(out)["irreducible_representations"]
    return int(out.strip())


def _classes(query: Query, out: str) -> tuple[str, int, list]:
    """(kind, class count, [stratum, size, representative label] per class)."""
    if query.fmt == "json":
        doc = json.loads(out)
        entries = [[c["stratum"], c["size"], c["label"]] for c in doc["classes"]]
        return doc["kind"], doc["class_count"], entries
    if query.fmt == "csv":
        entries = [
            [r["stratum"] or None, int(r["size"]), r["representative"]]
            for r in csv.DictReader(out.splitlines())
        ]
        return query.kind, len(entries), entries
    lines = out.splitlines()
    kind = lines[0].split(":", 1)[1].strip()
    count = int(lines[1].split(":", 1)[1])
    entries = []
    stratum = None
    for line in lines[2:]:
        if line.startswith("stratum "):
            name = line[len("stratum ") :].rsplit(":", 1)[0]
            stratum = None if name == "(all)" else name
        elif line.strip():
            label, size = line.split()[0], line.rsplit("(size", 1)[1].rstrip(")")
            entries.append([stratum, int(size), label])
    return kind, count, entries


def _normalized_classes(kind: str, entries: list) -> list:
    """Sorted class entries.  Semigroup and action representatives are the
    least elements in export order, which may legitimately change, so only
    their sizes are compared."""
    if kind in ("semigroup", "action"):
        entries = [[None, size, None] for _, size, _ in entries]
    return sorted(entries, key=lambda e: json.dumps(e))


def _build(query: Query, out: str, expected: dict) -> Optional[str]:
    doc = json.loads(out)
    want = expected["build"][query.config]
    strata = closed_form_strata(expected, query.config)
    elements = doc["elements"]
    if len(elements) != sum(strata.values()):
        return f"|R| = {len(elements)}, closed form {sum(strata.values())}"
    got = {label: len(idx) for label, idx in doc["strata"].items()}
    if got != strata:
        return f"stratum sizes {got}, closed form {strata}"
    if sorted(i for idx in doc["strata"].values() for i in idx) != list(range(len(elements))):
        return "strata do not partition the element list"
    if len(doc["vertices"]) != want["degree"]:
        return f"degree {len(doc['vertices'])}, expected {want['degree']}"
    if element_digest(elements) != want["digest"]:
        return "element set differs from the pinned digest"
    return None


def check(query: Query, rc: Optional[int], out: str, expected: dict) -> Optional[str]:
    """None when the answer is right, else the reason it is wrong."""
    if query.refuse:
        if rc != 3:
            return f"exit {rc}, expected 3 (size cap exceeded)"
        return "over-cap query printed to stdout" if out else None
    if rc != 0:
        return f"exit {rc}, expected 0"
    config = query.config
    try:
        if query.command == "build":
            return _build(query, out, expected)
        if query.command == "lattice":
            got = sorted(_lattice(query, out))
            want = sorted(expected["lattice"][config]["idempotents"])
        elif query.command == "counts":
            rows, total = _counts(query, out)
            pinned = expected["counts"][config]
            if query.fmt != "csv" and total != pinned["total"]:
                return f"total {total}, expected {pinned['total']}"
            got, want = sorted(rows), sorted(pinned["rows"])
        elif query.command == "reps":
            got, want = _reps(query, out), expected["reps"][config]
        else:
            kind, count, entries = _classes(query, out)
            pinned = expected["classes"][f"{config}/{query.kind}"]
            if kind != query.kind or count != pinned["count"]:
                return f"{kind} count {count}, expected {query.kind} {pinned['count']}"
            got = _normalized_classes(kind, entries)
            want = _normalized_classes(kind, pinned["classes"])
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unparsable answer: {exc!r}"
    return None if got == want else f"answer differs from the pinned value: {got!r:.200}"
