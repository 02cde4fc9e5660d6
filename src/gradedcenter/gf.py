"""Prime fields F_p.

Every computation in the package is exact integer arithmetic reduced
modulo a prime; there are no tolerances anywhere.  Constructing
FieldScalar(0, p) is the library's check that p is prime.
"""

from __future__ import annotations

from dataclasses import dataclass


# Miller-Rabin on the primes up to 41 decides every n below
# 3317044064679887385961981 (about 3.3 * 10^24), the least strong
# pseudoprime to all of them (Sorenson and Webster, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DECIDED_BELOW = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Whether p is prime, by deterministic Miller-Rabin; ValueError for
    a p it cannot decide."""
    if p >= _DECIDED_BELOW:
        raise ValueError(f"modulus {p} is too large to test for primality")
    if p < 2:
        return False
    for q in _BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _BASES:
        x = pow(q, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
