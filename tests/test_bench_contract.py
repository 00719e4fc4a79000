"""The library calls the benchmark's tools make, on a small monoid.

``bench/record.py`` cross-checks every pinned answer against the
element-level classifications of a built monoid, and ``bench/tracing.py``
times the element operations with ``microbench``.  No command reaches
either, so these tests keep what they call working.
"""
import importlib
import json
import sys
from pathlib import Path

import pytest

from renner import build_renner, cartan_matrix

BENCH = Path(__file__).resolve().parent.parent / "bench"
CONFIG = "A2:1,1"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``record`` and ``tracing`` modules, imported as
    ``bench/run.py`` imports them, with ``sys.path`` restored after."""
    saved = list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("record"), importlib.import_module("tracing")
    finally:
        sys.path[:] = saved


@pytest.fixture(scope="module")
def expected():
    return json.loads((BENCH / "expected.json").read_text())


def test_microbench_times_the_element_operations(bench):
    _, tracing = bench
    R = build_renner(cartan_matrix("A", 2), (1, 1))
    costs = tracing.microbench(R)
    assert (costs.pop("degree"), costs.pop("order")) == (R.degree, R.order) == (6, 79)
    assert set(costs) == {
        "partialinj.compose_ns", "partialinj.inverse_ns", "partialinj.to_pairs_ns",
        "monoid.normal_form_us", "monoid.project_us",
    }
    assert all(value > 0 for value in costs.values()), costs


def test_record_cross_checks_the_pinned_classes(bench, expected):
    # The recorder's own checks pass (a failed one raises SystemExit), and
    # what it would pin for each kind is what expected.json pins.  The
    # pinned semigroup and action lists come in an older order (units
    # first), and the benchmark compares class lists without order, so
    # the lists are compared sorted here too.
    record, _ = bench
    R = record._monoid(CONFIG)
    record.check_oracles_agree(CONFIG, R)
    reps = record.record_reps(CONFIG, R)
    assert reps == expected["reps"][CONFIG] == 9
    for kind in ("sim", "munn", "semigroup", "action"):
        got = record.record_classes(CONFIG, kind, R, reps)
        want = expected["classes"][f"{CONFIG}/{kind}"]
        assert got["count"] == want["count"], kind
        assert sorted(got["classes"], key=json.dumps) == sorted(want["classes"], key=json.dumps), kind
