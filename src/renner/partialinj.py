"""Partial injective maps on {0, ..., n-1}: the ambient rook monoid.

A map is stored densely: ``targets[i]`` is the image of i, or None where the
map is undefined.  Values are immutable and hashable.  Composition follows
the function convention, so ``compose(tau, sigma)`` applies sigma first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional


@dataclass(frozen=True)
class PartialInjection:
    targets: tuple[Optional[int], ...]

    def __post_init__(self):
        n = len(self.targets)
        hit: set[int] = set()
        for t in self.targets:
            if t is None:
                continue
            if not 0 <= t < n or t in hit:
                raise ValueError("targets must map injectively into range")
            hit.add(t)

    @property
    def degree(self) -> int:
        return len(self.targets)

    @cached_property
    def domain(self) -> frozenset[int]:
        return frozenset(i for i, t in enumerate(self.targets) if t is not None)

    @cached_property
    def image(self) -> frozenset[int]:
        return frozenset(t for t in self.targets if t is not None)

    @property
    def rank(self) -> int:
        """Number of defined points."""
        return len(self.domain)

    def __call__(self, i: int) -> Optional[int]:
        return self.targets[i]

    def __mul__(self, other: "PartialInjection") -> "PartialInjection":
        return compose(self, other)

    def __invert__(self) -> "PartialInjection":
        return inverse(self)

    @classmethod
    def zero(cls, degree: int) -> "PartialInjection":
        """The empty map."""
        return cls((None,) * degree)

    @classmethod
    def identity(cls, degree: int) -> "PartialInjection":
        return cls(tuple(range(degree)))

    @classmethod
    def partial_identity(cls, degree: int, fixed: Iterable[int]) -> "PartialInjection":
        """Identity on ``fixed``, undefined elsewhere."""
        keep = set(fixed)
        if not keep <= set(range(degree)):
            raise ValueError("fixed points must lie in range")
        return cls(tuple(i if i in keep else None for i in range(degree)))

    @classmethod
    def from_pairs(
        cls, degree: int, pairs: Iterable[tuple[int, int]]
    ) -> "PartialInjection":
        t: list[Optional[int]] = [None] * degree
        for s, d in pairs:
            if not 0 <= s < degree:
                raise ValueError(f"source {s} out of range")
            if t[s] is not None:
                raise ValueError(f"duplicate source {s}")
            t[s] = d
        return cls(tuple(t))

    def to_pairs(self) -> list[list[int]]:
        """JSON-ready [source, target] pairs sorted by source."""
        return [[i, t] for i, t in enumerate(self.targets) if t is not None]


def compose(tau: PartialInjection, sigma: PartialInjection) -> PartialInjection:
    """tau after sigma, defined where sigma lands inside tau's domain.

    >>> k = PartialInjection.partial_identity(3, [0, 1])
    >>> l = PartialInjection.partial_identity(3, [1, 2])
    >>> compose(k, l) == PartialInjection.partial_identity(3, [1])
    True
    """
    if tau.degree != sigma.degree:
        raise ValueError("cannot compose maps of different degrees")
    tt = tau.targets
    return PartialInjection(tuple(tt[t] if t is not None else None for t in sigma.targets))


def inverse(sigma: PartialInjection) -> PartialInjection:
    """Map reversal: composing back yields the partial identities on the
    image and domain respectively.

    >>> s = PartialInjection.from_pairs(6, [(0, 4), (1, 3)])
    >>> inverse(s).to_pairs()
    [[3, 1], [4, 0]]
    """
    t: list[Optional[int]] = [None] * sigma.degree
    for i, ti in enumerate(sigma.targets):
        if ti is not None:
            t[ti] = i
    return PartialInjection(tuple(t))


def natural_leq(sigma: PartialInjection, tau: PartialInjection) -> bool:
    """Natural partial order: sigma is a restriction of tau.

    >>> natural_leq(PartialInjection.zero(3), PartialInjection.identity(3))
    True
    """
    if sigma.degree != tau.degree:
        raise ValueError("cannot compare maps of different degrees")
    return all(
        tau.targets[i] == t for i, t in enumerate(sigma.targets) if t is not None
    )


def restrict(sigma: PartialInjection, keep: Iterable[int]) -> PartialInjection:
    """Forget every source outside ``keep``; values are unchanged."""
    kept = set(keep)
    if not all(0 <= i < sigma.degree for i in kept):
        raise ValueError("keep points must lie in range")
    return PartialInjection(
        tuple(t if i in kept else None for i, t in enumerate(sigma.targets))
    )


def is_idempotent(sigma: PartialInjection) -> bool:
    """True exactly for partial identities (the only idempotent partial
    injections)."""
    return all(t == i for i, t in enumerate(sigma.targets) if t is not None)


def stable_domain(sigma: PartialInjection) -> frozenset[int]:
    """Points whose forward orbit under sigma stays defined forever.

    Shrinks the domain until it is sigma-invariant; at most ``degree``
    rounds.  sigma restricted to this set permutes it.
    """
    dom = set(sigma.domain)
    while True:
        nxt = {i for i in dom if sigma.targets[i] in dom}
        if nxt == dom:
            return frozenset(dom)
        dom = nxt


def invertible_part(sigma: PartialInjection) -> PartialInjection:
    """Restriction of sigma to its stable domain: a bijection of that set.

    >>> s = PartialInjection.from_pairs(6, [(0, 4), (4, 5), (5, 0), (1, 3)])
    >>> sorted(invertible_part(s).domain)
    [0, 4, 5]
    """
    return restrict(sigma, stable_domain(sigma))
