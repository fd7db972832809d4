"""Brute-force oracles shared by several test modules."""

from itertools import product
from math import isqrt

from tcores.qseries import MacdonaldTerm


def cycle_sign(perm) -> int:
    """Sign of a permutation of 0..n-1, as (-1)^(n - number of cycles)."""
    seen = set()
    cycles = 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return -1 if (len(perm) - cycles) % 2 else 1


def macdonald_box_terms(t: int, N: int) -> list[MacdonaldTerm]:
    """The type-A Macdonald terms by brute force over a box of Z^t: every a
    with entry sum 1+..+t, one entry per residue class mod t and exponent
    (sum a_i^2 - sum i^2)/(2t) at most N, signed as the permutation taking
    the residues of 1..t to those of a, sorted by (exponent, a).  No coding
    and no pruned search is involved."""
    total = t * (t + 1) // 2
    sq_base = sum(i * i for i in range(1, t + 1))
    bound = sq_base + 2 * t * N
    r = isqrt(bound)
    out = []
    for head in product(range(-r, r + 1), repeat=t - 1):
        a = head + (total - sum(head),)
        sq = sum(x * x for x in a)
        # residue of i in 1..t sits at position (i - 1), so x lands at (x - 1) mod t
        perm = [(x - 1) % t for x in a]
        if sq > bound or len(set(perm)) != t:
            continue
        omega, rem = divmod(sq - sq_base, 2 * t)
        assert rem == 0, a
        out.append(MacdonaldTerm(a, cycle_sign(perm), omega))
    out.sort(key=lambda term: (term.omega, term.a))
    return out
