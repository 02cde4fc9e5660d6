import random

import pytest

from gradedcenter.gf import FieldScalar, _is_prime

from null_space_oracle import SparseMatrix, null_space
from trial_division import is_prime


def test_scalar_is_reduced():
    assert FieldScalar(7, 3).value == 1
    assert FieldScalar(-1, 5).value == 4


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        FieldScalar(1, 4)
    with pytest.raises(ValueError):
        FieldScalar(0, 1)


# the Carmichael numbers below 5.2 * 10^5, and 151 * 751 * 28351, which
# is also a strong pseudoprime to the bases 2, 3, 5 and 7
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 52633, 62745,
              63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461, 252601, 278545, 294409, 314821,
              334153, 340561, 399001, 410041, 449065, 488881, 512461, 3215031751]


def test_primality_matches_trial_division():
    assert [n for n in range(10 ** 5) if _is_prime(n) != is_prime(n)] == []
    # Korselt's criterion: n is squarefree, with at least two prime
    # factors q, each with q - 1 dividing n - 1
    for n in CARMICHAEL:
        factors = [q for q in range(2, 30000) if n % q == 0 and is_prime(q)]
        product = 1
        for q in factors:
            product *= q
        assert len(factors) >= 2 and product == n and all((n - 1) % (q - 1) == 0 for q in factors), n
        assert _is_prime(n) is is_prime(n) is False, n


def test_primality_beyond_trial_division():
    # 2^61 - 1 is prime; the least strong pseudoprime to the bases 2..37
    # is composite, and only the base 41 tells; from the least one to
    # the bases 2..41 on, no modulus is decided
    assert _is_prime(2 ** 61 - 1)
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not _is_prime(318665857834031151167461)
    assert 1287836182261 * 2575672364521 == 3317044064679887385961981
    assert _is_prime(3317044064679887385961981 - 1) is False
    for p in (3317044064679887385961981, 2 ** 127 - 1):
        with pytest.raises(ValueError, match="too large"):
            FieldScalar(0, p)


def test_null_space_zero_matrix():
    M = SparseMatrix(2, 2, 3)
    basis = null_space(M)
    assert len(basis) == 2


def test_null_space_identity():
    M = SparseMatrix(3, 3, 5, [(i, i, 1) for i in range(3)])
    assert null_space(M) == []


def test_null_space_single_relation():
    M = SparseMatrix(2, 2, 2, [(0, 0, 1), (0, 1, 1)])
    basis = null_space(M)
    assert len(basis) == 1
    assert [s.value for s in basis[0]] == [1, 1]


def test_null_space_vectors_satisfy_system():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(25):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            M = SparseMatrix(rows, cols, p)
            for r in range(rows):
                for c in range(cols):
                    if rng.random() < 0.5:
                        M.set(r, c, rng.randrange(p))
            for vec in null_space(M):
                for r in range(rows):
                    s = sum(M.get(r, c).value * vec[c].value for c in range(cols)) % p
                    assert s == 0


def _dense_rank(M: SparseMatrix) -> int:
    # Independent dense row reduction, used only as an oracle here.
    p = M.p
    A = [[M.get(r, c).value for c in range(M.cols)] for r in range(M.rows)]
    rank = 0
    for c in range(M.cols):
        piv = next((r for r in range(rank, M.rows) if A[r][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        s = pow(A[rank][c], p - 2, p)
        A[rank] = [(v * s) % p for v in A[rank]]
        for r in range(M.rows):
            if r != rank and A[r][c]:
                f = A[r][c]
                A[r] = [(A[r][j] - f * A[rank][j]) % p for j in range(M.cols)]
        rank += 1
    return rank


def test_rank_nullity():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(40):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            M = SparseMatrix(rows, cols, p)
            for r in range(rows):
                for c in range(cols):
                    if rng.random() < 0.4:
                        M.set(r, c, rng.randrange(p))
            assert _dense_rank(M) + len(null_space(M)) == cols


def test_null_space_deterministic():
    rng = random.Random(3)
    M = SparseMatrix(5, 7, 3)
    for r in range(5):
        for c in range(7):
            if rng.random() < 0.5:
                M.set(r, c, rng.randrange(3))
    first = null_space(M)
    assert first == null_space(M)
    # Free-column unit pattern: basis k has 1 at its own free column and
    # zeros at the other free columns.
    free = [i for i, vec in enumerate(first)]
    cols_of_ones = []
    for vec in first:
        ones = [c for c, s in enumerate(vec) if s.value == 1]
        cols_of_ones.append(ones)
    taken = [min(c for c in ones if all(first[j][c].value == 0 for j in range(len(first)) if j != i))
             for i, ones in enumerate(cols_of_ones)]
    assert taken == sorted(taken)


def test_entries_sorted_and_no_zeros():
    M = SparseMatrix(2, 2, 3, [(1, 1, 2), (0, 0, 3), (0, 1, 1)])
    # (0, 0, 3) reduces to zero and must not be stored.
    assert [(r, c, v.value) for r, c, v in M.entries()] == [(0, 1, 1), (1, 1, 2)]
