"""The primality test that gradedcenter.gf's deterministic Miller-Rabin
replaced, kept unchanged but for its name as its oracle: trial division
by 2 and every odd d with d * d <= p, so its time grows with sqrt(p)."""


def is_prime(p: int) -> bool:
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
