"""Reference routes and brute-force oracles shared by several test modules.

The exact QQ[beta] forms of Nekrasov-Okounkov and r-multiplication, the
`Poly` hook-content sides, the exp-log eta product and the cell/box map of
the exploded tableau are the independent routes that the integer-point
verifiers and the tests are checked against; none of them runs in a verifier.
"""

from fractions import Fraction
from itertools import product
from math import isqrt

from tcores.exploded import ExplodedWindow, RelationViolationError
from tcores.partitions import Partition
from tcores.qseries import (
    MacdonaldTerm,
    TruncatedSeries,
    binomial_product,
    partition_sum_series,
    schur_principal,
)
from tcores.rings import Poly, PolynomialRing, RationalField


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


# ---------------------------------------------------------------------------
# ring and series helpers


def substitute(poly: Poly, name: str, value) -> Poly:
    """Replace one variable of `poly` by an int or Fraction value; a
    negative exponent needs a nonzero value and gives its exact inverse
    power."""
    idx = poly.names.index(name)
    rest = poly.names[:idx] + poly.names[idx + 1 :]
    out = Poly(rest, {})
    for e, c in poly.terms.items():
        scalar = c * Fraction(value) ** e[idx]
        out = out + Poly(rest, {e[:idx] + e[idx + 1 :]: scalar})
    return out


def series_pow(f: TruncatedSeries, n: int) -> TruncatedSeries:
    """f^n by repeated squaring; a negative n inverts f first."""
    if n < 0:
        return series_pow(f.inverse(), -n)
    result = TruncatedSeries.one(f.ring, f.order, f.var)
    base = f
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def log_one_minus_power(ring, m: int, order: int, var: str = "q") -> TruncatedSeries:
    """log(1 - q^m) = -sum_j q^(j m) / j, truncated."""
    c = [ring.zero] * (order + 1)
    j = 1
    while j * m <= order:
        c[j * m] = c[j * m] - ring.coerce(Fraction(1, j))
        j += 1
    return TruncatedSeries(ring, c, var)


def eta_like_product(exponent, order: int, ring=None, var: str = "q") -> TruncatedSeries:
    """prod_m (1 - q^m)^exponent, with a ring-element exponent.

    Computed as exp(exponent * sum_m log(1 - q^m)); factors with m beyond
    the truncation order cannot contribute.
    """
    if ring is None:
        ring = RationalField()
    total = TruncatedSeries.zero(ring, order, var)
    for m in range(1, order + 1):
        total = total + log_one_minus_power(ring, m, order, var)
    return TruncatedSeries(ring, [c * exponent for c in total.coeffs], var).exp()


# ---------------------------------------------------------------------------
# the polynomial routes of the integer-point verifiers


def nekrasov_okounkov_pair(N: int):
    """Both sides of Nekrasov-Okounkov in QQ[beta]: the hook sum with weight
    1 - beta/h^2 and prod (1 - q^k)^(beta - 1)."""
    ring = PolynomialRing(("beta",))
    beta = ring.var("beta")
    lhs = partition_sum_series(
        lambda h: ring.one - beta * Fraction(1, h * h), 1, N, ring
    )
    rhs = eta_like_product(beta - 1, N, ring)
    return lhs, rhs


def multiplication_pair(r: int, N: int):
    """Marked hook sum over hooks divisible by r, and its product form,
    in QQ[beta, x].  The marker x rides in the weight: each hook divisible
    by r contributes x (1 - beta/h^2)."""
    ring = PolynomialRing(("beta", "x"))
    beta = ring.var("beta")
    x = ring.var("x")
    lhs = partition_sum_series(
        lambda h: x * (ring.one - beta * Fraction(1, h * h)), r, N, ring
    )
    inner = eta_like_product(beta * Fraction(1, r * r) - 1, N // r, ring)
    coeffs = [ring.zero] * (N + 1)
    for j, c in enumerate(inner.coeffs):
        if r * j <= N:
            coeffs[r * j] = c * ring.monomial((0, j))
    substituted = TruncatedSeries(ring, coeffs)
    minus_one = -ring.one
    rhs = series_pow(substituted, r) * binomial_product(
        ring, N, [(minus_one, m) for m in range(r, N + 1, r)] * r
    )
    denom = binomial_product(ring, N, [(minus_one, k) for k in range(1, N + 1)])
    rhs = rhs * denom.inverse()
    return lhs, rhs


def hook_content_sides(lam: Partition, n: int):
    """Schur side times the hook factors, and the content-product side, as
    polynomials in p."""
    names = ("p",)
    one = Poly.constant(names, 1)
    lhs = schur_principal(lam, n)
    for h in lam.hooks():
        lhs = lhs * (one - Poly(names, {(h,): 1}))
    shifts = [n + c for c in lam.contents()]
    if 0 in shifts:
        rhs = Poly(names, {})
    else:
        assert all(e > 0 for e in shifts)
        rhs = Poly(names, {(lam.row_moment(),): 1})
        for e in shifts:
            rhs = rhs * (one - Poly(names, {(e,): 1}))
    return lhs, rhs


# ---------------------------------------------------------------------------
# exploded tableau


def cell_box_map(window: ExplodedWindow) -> dict[tuple[int, int], tuple[int, int]]:
    """The bijection cell (i, j) -> doubled box (x, y), whose entry is hook + t.

    Every box with entry above t arises this way exactly once.
    """
    p = window.partition
    conj = window.conjugate
    t = window.t
    shift = t + 1
    mapping = {
        (i, j): (2 * (p.parts[i - 1] - i) + shift, 2 * (conj.parts[j - 1] - j) + shift)
        for i, j in p.cells()
    }
    delta_boxes = {(x, y) for (x, y) in window.boxes() if x + y > 2 * t}
    image = set(mapping.values())
    if image != delta_boxes or len(image) != len(mapping):
        raise RelationViolationError("cells do not match the boxes above entry t")
    return mapping
