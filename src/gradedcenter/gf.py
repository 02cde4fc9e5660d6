"""Prime fields F_p.

Every computation in the package is exact integer arithmetic reduced
modulo a prime; there are no tolerances anywhere.  Constructing
FieldScalar(0, p) is the library's check that p is prime.
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
