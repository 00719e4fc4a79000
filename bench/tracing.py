"""Per-layer tracing for the traced benchmark run.

Nothing here touches ``src/renner``: ``instrument`` rebinds the layer entry
points inside the already imported ``renner`` modules to wrappers that
record one span per call (name, start and end from ``perf_counter_ns``,
parent span, query id, outcome, counters).  It must run before
``renner.cli`` is imported, so that the CLI binds the wrappers.  Spans stay
in memory; the run writes them out when it ends.

``partialinj``, ``normal_form`` and ``project`` are called far too often to
wrap; ``microbench`` times them on a fixed sample from each built monoid.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: int
    end: int
    parent: Optional[int]
    qid: int
    status: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while ``active``; inactive wrappers call straight
    through, so the untraced passes of a traced run pay one flag test per
    layer call."""

    def __init__(self):
        self.active = False
        self.qid = -1
        self.spans: list[Span] = []
        self.monoids: list = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def call(self, name: str, counter: Optional[Callable], fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        status = "ok"
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            status = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            span = Span(sid, name, start, end, parent, self.qid, status)
            self.spans.append(span)
        if counter is not None:
            span.counts = counter(args, result)
        return result


def span_cost_ns(calls: int = 20000) -> float:
    """Cost of recording one span around a call that does nothing."""
    tracer = Tracer()
    tracer.active = True
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        tracer.call("cli.main", None, int, (), {})
    return (time.perf_counter_ns() - t0) / calls


def _keep_monoid(tracer: Tracer):
    def counter(args, monoid):
        tracer.monoids.append(monoid)
        return {"elements": monoid.order}

    return counter


def _classes(args, result):
    counts = {"classes": result.class_count}
    if result.kind in ("semigroup", "action"):
        counts["pairs"] = args[0].order ** 2
    return counts


def _layer_functions(tracer: Tracer):
    """(defining module, attribute, span name, counter) per layer entry."""
    from renner import conj, crosslat, monoid, rootsys

    return [
        (rootsys, "generate_weyl", "rootsys.generate_weyl", lambda a, g: {"weyl_elements": g.order}),
        (crosslat, "cross_section_lattice", "crosslat.cross_section_lattice",
         lambda a, lat: {"idempotents": len(lat)}),
        (monoid, "build_renner", "monoid.build_renner", _keep_monoid(tracer)),
        (monoid, "monoid_to_json", "monoid.monoid_to_json", None),
        (conj, "sim_conjugacy_classes", "conj.sim_conjugacy_classes", _classes),
        (conj, "munn_classes", "conj.munn_classes", _classes),
        (conj, "semigroup_conjugacy_classes", "conj.semigroup_conjugacy_classes", _classes),
        (conj, "action_conjugacy_classes", "conj.action_conjugacy_classes", _classes),
        (conj, "classification_to_json", "conj.classification_to_json", None),
        (conj, "orbit_report_rows", "conj.orbit_report_rows", None),
        (conj, "irreducible_rep_count", "conj.irreducible_rep_count", None),
    ]


def instrument(tracer: Tracer) -> None:
    """Rebind every layer entry point, in each ``renner`` module that holds
    it, to a span-recording wrapper."""
    if "renner.cli" in sys.modules:
        raise RuntimeError("instrument() must run before renner.cli is imported")
    from renner.crosslat import CrossSectionLattice

    for module, attr, name, counter in _layer_functions(tracer):
        original = getattr(module, attr)
        wrapper = _wrap(tracer, name, counter, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "renner":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    for attr in ("centralizer", "stabilizer", "star_group"):
        original = getattr(CrossSectionLattice, attr)
        setattr(CrossSectionLattice, attr, _wrap(tracer, f"crosslat.{attr}", None, original))


def _wrap(tracer: Tracer, name: str, counter: Optional[Callable], fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, counter, fn, args, kwargs)

    return wrapper


# Span name -> per-layer metric its self time adds to.  A build that hits
# the monoid cap counts as a refusal, not as a build.
SELF_TIME_METRIC = {
    "rootsys.generate_weyl": "rootsys.generate_weyl_s",
    "crosslat.cross_section_lattice": "crosslat.lattice_s",
    "crosslat.centralizer": "crosslat.subgroups_s",
    "crosslat.stabilizer": "crosslat.subgroups_s",
    "crosslat.star_group": "crosslat.subgroups_s",
    "monoid.build_renner": "monoid.build_s",
    "monoid.monoid_to_json": "monoid.export_s",
    "conj.sim_conjugacy_classes": "conj.sim_s",
    "conj.munn_classes": "conj.munn_s",
    "conj.semigroup_conjugacy_classes": "conj.semigroup_s",
    "conj.action_conjugacy_classes": "conj.action_s",
    "conj.classification_to_json": "conj.export_s",
    "conj.orbit_report_rows": "conj.orbit_reports_s",
    "conj.irreducible_rep_count": "conj.rep_count_s",
    "cli.main": "cli.self_s",
}

COUNT_METRIC = {
    "weyl_elements": "rootsys.weyl_elements",
    "idempotents": "crosslat.idempotents",
    "elements": "monoid.elements",
    "classes": "conj.classes",
}


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover (spans
    nest, one thread)."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0) + (s.end - s.start)
    return {s.sid: s.end - s.start - child.get(s.sid, 0) for s in spans}


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Self seconds per layer metric and summed counters, over ``spans``."""
    totals: dict[str, float] = {}
    own = self_times(spans)
    pairs = pair_ns = 0
    for s in spans:
        metric = SELF_TIME_METRIC[s.name]
        if s.name == "monoid.build_renner" and s.status == "SizeCapExceeded":
            metric = "monoid.refusal_s"
        totals[metric] = totals.get(metric, 0.0) + own[s.sid] / 1e9
        for key, value in s.counts.items():
            if key in COUNT_METRIC:
                totals[COUNT_METRIC[key]] = totals.get(COUNT_METRIC[key], 0) + value
        if "pairs" in s.counts:
            pairs += s.counts["pairs"]
            pair_ns += own[s.sid]
    if pair_ns:
        totals["conj.pairs_per_s"] = pairs / (pair_ns / 1e9)
    return totals


# Fixed sample sizes per built monoid.  normal_form scans the unit group,
# so it gets the smallest sample.
PAIR_SAMPLE = 400
ELEMENT_SAMPLE = 200
NORMAL_FORM_SAMPLE = 40


def _per_call_ns(fn, items, repeats=3) -> float:
    """Best of ``repeats`` timed loops over ``items``, per call."""

    def loop() -> int:
        t0 = time.perf_counter_ns()
        for item in items:
            fn(*item)
        return time.perf_counter_ns() - t0

    return min(loop() for _ in range(repeats)) / len(items)


def microbench(monoid) -> dict[str, float]:
    """Per-call costs of the element-level operations on a fixed sample of
    this monoid: elements in export-pair order, drawn with a fixed seed, so
    the sample does not depend on the closure's discovery order."""
    from renner.monoid import normal_form, project
    from renner.partialinj import PartialInjection, compose, inverse

    ordered = sorted(monoid.elements, key=lambda p: (p.rank, p.to_pairs()))
    nonzero = ordered[1:]
    rng = random.Random(20120524)
    pairs = [(rng.choice(ordered), rng.choice(ordered)) for _ in range(PAIR_SAMPLE)]
    singles = [(rng.choice(ordered),) for _ in range(ELEMENT_SAMPLE)]
    forms = [(monoid, rng.choice(nonzero)) for _ in range(NORMAL_FORM_SAMPLE)]
    projs = [(monoid, rng.choice(nonzero)) for _ in range(ELEMENT_SAMPLE)]
    return {
        "degree": monoid.degree,
        "order": monoid.order,
        "partialinj.compose_ns": _per_call_ns(compose, pairs),
        "partialinj.inverse_ns": _per_call_ns(inverse, singles),
        "partialinj.to_pairs_ns": _per_call_ns(PartialInjection.to_pairs, singles),
        "monoid.normal_form_us": _per_call_ns(normal_form, forms) / 1e3,
        "monoid.project_us": _per_call_ns(project, projs) / 1e3,
    }
