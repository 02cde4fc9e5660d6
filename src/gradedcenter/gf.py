"""Exact arithmetic in prime fields F_p.

Everything here is exact integer arithmetic modulo a prime; there are no
tolerances anywhere.  Constructing FieldScalar(0, p) is the library's
check that p is prime.
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldScalar:
    """A residue in F_p, stored fully reduced."""

    value: int
    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        object.__setattr__(self, "value", self.value % self.p)

    def __add__(self, other: "FieldScalar") -> "FieldScalar":
        return add(self, other)

    def __mul__(self, other: "FieldScalar") -> "FieldScalar":
        return mul(self, other)

    def __neg__(self) -> "FieldScalar":
        return FieldScalar(-self.value, self.p)

    def __sub__(self, other: "FieldScalar") -> "FieldScalar":
        return add(self, -other)

    def is_zero(self) -> bool:
        return self.value == 0


def _check_same_modulus(x: FieldScalar, y: FieldScalar) -> None:
    if x.p != y.p:
        raise ValueError(f"modulus mismatch: {x.p} != {y.p}")


def add(x: FieldScalar, y: FieldScalar) -> FieldScalar:
    _check_same_modulus(x, y)
    return FieldScalar(x.value + y.value, x.p)


def mul(x: FieldScalar, y: FieldScalar) -> FieldScalar:
    _check_same_modulus(x, y)
    return FieldScalar(x.value * y.value, x.p)


def inv(x: FieldScalar) -> FieldScalar:
    if x.value == 0:
        raise ZeroDivisionError("inversion of zero")
    # Fermat: x^(p-2) is the inverse in F_p.
    return FieldScalar(pow(x.value, x.p - 2, x.p), x.p)
