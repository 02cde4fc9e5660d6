"""Criterion 4's predictions as three loop nests, one per generator
family, each stating which sign law its generator satisfies and when the
other law agrees: the case list that acceptance._c4_membership's single
rule replaces, kept as its differential oracle."""


def membership_cases():
    """(r, n, m, name, q, variant, char, expected) for every check."""
    out = []
    for n in (2, 3, 4):
        for m in (0, 1, 2):
            rnm = (n - 1, n, m)
            for q in range(4):
                for char in (2, 3):
                    # the two sign laws agree unless the degree is odd
                    agree = n % 2 == 0 or char == 2
                    out.append((*rnm, "eta_prime", q, "graded", char, True))
                    out.append((*rnm, "eta_prime", q, "commutative", char, agree))
                    out.append((*rnm, "eta_dprime", q, "commutative", char, True))
                    out.append((*rnm, "eta_dprime", q, "graded", char, agree))
    for n in (1, 2, 3, 4):
        for q in range(4):
            for char in (2, 3):
                for variant in ("graded", "commutative"):
                    out.append((1, n, 0, "eta_zero", q, variant, char, True))
    for n in (1, 2, 3, 4):
        for m in (0, 1, 2):
            for k in range(1, 4):
                for char in (2, 3):
                    agree = (k * n) % 2 == 0 or char == 2
                    out.append((n, n, m, "eta_power", k, "commutative", char, True))
                    out.append((n, n, m, "eta_power", k, "graded", char, agree))
    return out
