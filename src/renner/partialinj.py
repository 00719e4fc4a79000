"""Partial injective maps on {0, ..., n-1}: the ambient rook monoid.

A map of degree n is its byte code, n + 1 bytes long: entry i is the image
of i, or n where the map is undefined, and the last entry maps n to itself.
Padded to 256 bytes the code is a ``bytes.translate`` table (``table``), so
``sigma.code.translate(tau.table)`` is the code of tau after sigma; a byte
holds at most ``MAX_DEGREE`` = 255 points besides the "undefined" one.
Values are immutable and hashable.  Composition follows the function
convention, so ``compose(tau, sigma)`` applies sigma first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

MAX_DEGREE = 255
_BYTES = bytes(range(MAX_DEGREE + 1))


def _check_degree(degree: int) -> None:
    """Refuse a negative degree, which list and range arithmetic would
    read as degree 0."""
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")


@dataclass(frozen=True)
class PartialInjection:
    code: bytes

    def __post_init__(self):
        code = self.code
        if not isinstance(code, bytes):
            raise TypeError("a partial injection is made from its byte code")
        n = len(code) - 1
        if not 0 <= n <= MAX_DEGREE:
            raise ValueError(f"degree {n} is outside 0..{MAX_DEGREE}")
        if code[n] != n:
            raise ValueError("the last byte must map the degree to itself")
        if code.translate(None, _BYTES[: n + 1]):  # a byte past n survives
            raise ValueError("targets must lie in range")
        # Every defined target is distinct exactly when the set of bytes has
        # one entry per defined point plus one for n.
        if len(set(code)) + code.count(n) != n + 2:
            raise ValueError("targets must be distinct")

    @classmethod
    def _trusted(cls, code: bytes) -> "PartialInjection":
        """The map with byte code ``code``, made without the checks: only for
        a code valid by construction."""
        sigma = object.__new__(cls)
        object.__setattr__(sigma, "code", code)
        return sigma

    @property
    def degree(self) -> int:
        return len(self.code) - 1

    @property
    def table(self) -> bytes:
        """The code padded to a 256-byte translation table."""
        return self.code + bytes(MAX_DEGREE - self.degree)

    @property
    def domain(self) -> frozenset[int]:
        n = self.degree
        return frozenset(i for i, t in enumerate(self.code) if t != n)

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.code) - {self.degree}

    @property
    def rank(self) -> int:
        """Number of defined points."""
        return len(self.code) - self.code.count(self.degree)

    def __call__(self, i: int) -> Optional[int]:
        n = self.degree
        if not 0 <= i < n:
            raise IndexError(f"point {i} is outside 0..{n - 1}")
        t = self.code[i]
        return None if t == n else t

    @classmethod
    def from_targets(cls, targets: Iterable[Optional[int]]) -> "PartialInjection":
        """The map sending i to ``targets[i]``, undefined where that is None."""
        targets = list(targets)
        n = len(targets)
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} exceeds {MAX_DEGREE}")
        if not all(t is None or 0 <= t < n for t in targets):
            raise ValueError("targets must lie in range")
        return cls(bytes([n if t is None else t for t in targets] + [n]))

    @classmethod
    def partial_identity(cls, degree: int, fixed: Iterable[int]) -> "PartialInjection":
        """Identity on ``fixed``, undefined elsewhere."""
        _check_degree(degree)
        keep = set(fixed)
        if not keep <= set(range(degree)):
            raise ValueError("fixed points must lie in range")
        return cls.from_targets(i if i in keep else None for i in range(degree))

    def to_pairs(self) -> list[list[int]]:
        """JSON-ready [source, target] pairs sorted by source."""
        n = self.degree
        return [[i, t] for i, t in enumerate(self.code) if t != n]


def compose(tau: PartialInjection, sigma: PartialInjection) -> PartialInjection:
    """tau after sigma, defined where sigma lands inside tau's domain.

    >>> k = PartialInjection.partial_identity(3, [0, 1])
    >>> l = PartialInjection.partial_identity(3, [1, 2])
    >>> compose(k, l) == PartialInjection.partial_identity(3, [1])
    True
    """
    if tau.degree != sigma.degree:
        raise ValueError("cannot compose maps of different degrees")
    return PartialInjection(sigma.code.translate(tau.table))


def inverse(sigma: PartialInjection) -> PartialInjection:
    """Map reversal: composing back yields the partial identities on the
    image and domain respectively.

    >>> s = PartialInjection.from_targets([4, 3, None, None, None, None])
    >>> inverse(s).to_pairs()
    [[3, 1], [4, 0]]
    """
    n = sigma.degree
    code = bytearray([n]) * (n + 1)
    for i, t in enumerate(sigma.code[:n]):
        if t != n:
            code[t] = i
    return PartialInjection(bytes(code))


def stable_domain(sigma: PartialInjection) -> frozenset[int]:
    """Points whose forward orbit under sigma stays defined forever: the
    domain of the invertible part, on which sigma is a permutation."""
    return invertible_part(sigma).domain


def invertible_part(sigma: PartialInjection) -> PartialInjection:
    """Restriction of sigma to its stable domain: a bijection of that set.

    A point off every cycle leaves the domain within ``degree`` steps, so
    sigma^(2^k) with 2^k > degree, found by k squarings, is defined exactly
    on the cycles; its inverse after it is the partial identity there.

    >>> s = PartialInjection.from_targets([4, 3, None, None, 5, 0])
    >>> sorted(invertible_part(s).domain)
    [0, 4, 5]
    """
    n = sigma.degree
    power = _stable_power(sigma.code)
    # maketrans sends each image back to its source: the inverse's table.
    cycles = power.translate(bytes.maketrans(power, _BYTES[: n + 1]))
    return PartialInjection(cycles.translate(sigma.table))


def _stable_power(code: bytes) -> bytes:
    """The code of sigma^(2^k), 2^k > degree, for sigma's code, by k
    squarings.  A point off every cycle leaves the domain within ``degree``
    steps, so this power is defined exactly on the stable domain S and maps
    S onto S: its image is S, and S lies in a set D exactly when the
    partial identity on D leaves it unchanged."""
    n = len(code) - 1
    pad = bytes(MAX_DEGREE - n)
    power, steps = code, 1
    while steps <= n:
        power, steps = power.translate(power + pad), 2 * steps
    return power
