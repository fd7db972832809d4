"""Coefficient rings for truncated series: rationals, a prime field, and
polynomials over either.

Every ring is exact.  Polynomials are sparse maps from exponent tuples to
int or Fraction coefficients, never floats; an integral value is held as an
int, so the integer rings (and GF(p), whose residues are ints) do plain
integer arithmetic.  Negative exponents are allowed when the ring is created
as a Laurent ring.  The rationals compare by equality, the prime field GF(p)
compares ints modulo p, and a polynomial ring compares coefficientwise by
the rule of its base.

The verifiers work in ints and GF(p) residues.  A Fraction is made in
`src/` only by `identities.partition_gf` (its log terms 1/k, and its `exp`
dividing through `RationalField.div_int`), by `RationalField`'s `div_int`
and `inv`, and in error text (the size formulas of `coding`, and the
mismatch text of the r-multiplication check).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from operator import add
from types import MappingProxyType


def _settled(names, terms: dict) -> "Poly":
    """The Poly of nonzero exact `terms` fresh from arithmetic, with an
    integral Fraction among them read as an int."""
    if Fraction in map(type, terms.values()):
        terms = {e: c.numerator if c.denominator == 1 else c for e, c in terms.items()}
    p = object.__new__(Poly)
    p.names = names
    p._terms = terms
    return p


class Poly:
    """Sparse multivariate polynomial with int or Fraction coefficients.

    One dict maps each exponent tuple to its nonzero coefficient, held as
    an int unless its denominator is real.  A float or complex coefficient
    raises TypeError.
    """

    __slots__ = ("names", "_terms")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != len(self.names):
                    raise ValueError("exponent tuple does not match variable count")
                if not isinstance(coeff, (int, Fraction)):
                    raise TypeError(f"coefficient {coeff!r} is not an int or Fraction")
                if coeff != 0:
                    clean[exps] = coeff.numerator if coeff.denominator == 1 else coeff
        self._terms = clean

    @classmethod
    def constant(cls, names, value) -> "Poly":
        names = tuple(names)
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def variable(cls, names, name, coeff=1) -> "Poly":
        idx = tuple(names).index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(names)))
        return cls(names, {exps: coeff})

    @property
    def terms(self) -> Mapping:
        """Exponent tuple -> nonzero coefficient, as a read-only mapping."""
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _lift(self, other):
        if isinstance(other, Poly):
            if other.names != self.names:
                raise ValueError("polynomials over different variables")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.names, other)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        get = terms.get
        for e, c in other._terms.items():
            s = get(e, 0) + c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return _settled(self.names, terms)

    __radd__ = __add__

    def __neg__(self):
        return _settled(self.names, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        terms: dict[tuple, object] = {}
        get = terms.get
        if len(self.names) == 1:
            for (e1,), c1 in self._terms.items():
                for (e2,), c2 in other._terms.items():
                    e = (e1 + e2,)
                    terms[e] = get(e, 0) + c1 * c2
        else:
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = tuple(map(add, e1, e2))
                    terms[e] = get(e, 0) + c1 * c2
        if 0 in terms.values():
            terms = {e: c for e, c in terms.items() if c}
        return _settled(self.names, terms)

    __rmul__ = __mul__

    def coefficient(self, exps) -> object:
        return self._terms.get(tuple(exps), 0)

    def degree_in(self, name: str) -> int:
        """Largest exponent of the variable; -1 for the zero polynomial."""
        idx = self.names.index(name)
        if not self._terms:
            return -1
        return max(e[idx] for e in self._terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.names, other)
        if not isinstance(other, Poly) or self.names != other.names:
            return False
        return self._terms == other._terms

    def __hash__(self):
        return hash((self.names, frozenset(self._terms.items())))

    def _monomial_str(self, exps) -> str:
        pieces = []
        for name, e in zip(self.names, exps):
            if e == 0:
                continue
            pieces.append(name if e == 1 else f"{name}^{e}")
        return "*".join(pieces)

    def __str__(self):
        terms = self._terms
        if not terms:
            return "0"
        chunks = []
        for exps in sorted(terms):
            c = terms[exps]
            mono = self._monomial_str(exps)
            if mono:
                chunks.append(f"{c}*{mono}")
            else:
                chunks.append(f"{c}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"Poly({self})"


class RationalField:
    """Exact rational coefficients: ints, and Fractions where a denominator
    is real."""

    name = "QQ"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coerce(self, value):
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"{value!r} is not an int or Fraction")
        return value

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return a == 0

    def div_int(self, a, n: int):
        return Fraction(a, n)  # a / n would give a float for an int a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def str_coeff(self, a) -> str:
        return str(a)


P = 2**61 - 31  # prime, and P % 4 == 1, so -1 has a square root mod P


class PrimeField:
    """GF(P) with plain ints as elements.

    Sums and products are Python's and may leave [0, P); coerce, div_int
    and inv reduce, and eq/is_zero compare modulo P, so any representative
    of a residue may be passed in.
    """

    name = "GF(p)"
    zero = 0
    one = 1

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % P
        if isinstance(value, Fraction):
            return value.numerator * pow(value.denominator, -1, P) % P
        raise TypeError(f"{value!r} has no residue in GF(p)")

    def eq(self, a, b) -> bool:
        return (a - b) % P == 0

    def is_zero(self, a) -> bool:
        return a % P == 0

    def div_int(self, a, n: int) -> int:
        return a * pow(n, -1, P) % P

    def inv(self, a) -> int:
        if a % P == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, P)

    def str_coeff(self, a) -> str:
        return str(a % P)


class PolynomialRing:
    """Polynomials (or Laurent polynomials) over QQ or GF(p); coefficients
    are coerced, compared, divided and inverted by the base ring."""

    def __init__(self, names, base=None, laurent: bool = False):
        self.names = tuple(names)
        self.base = base if base is not None else RationalField()
        self.laurent = laurent
        kind = "Laurent" if laurent else "poly"
        self.name = f"{self.base.name}[{','.join(self.names)}]({kind})"

    @property
    def zero(self):
        return Poly(self.names, {})

    @property
    def one(self):
        return Poly.constant(self.names, self.base.one)

    def var(self, name: str) -> Poly:
        return Poly.variable(self.names, name, self.base.one)

    def monomial(self, exps, coeff=1) -> Poly:
        exps = tuple(exps)
        if not self.laurent and any(e < 0 for e in exps):
            raise ValueError("negative exponents need a Laurent ring")
        return Poly(self.names, {exps: self.base.coerce(coeff)})

    def coerce(self, value) -> Poly:
        if isinstance(value, Poly):
            if value.names != self.names:
                raise ValueError("polynomial from a different ring")
            return self._map(value, self.base.coerce)
        return Poly.constant(self.names, self.base.coerce(value))

    def _map(self, a: Poly, f) -> Poly:
        return Poly(self.names, {e: f(c) for e, c in a.terms.items()})

    def eq(self, a, b) -> bool:
        return self.is_zero(a - b)

    def is_zero(self, a) -> bool:
        return all(map(self.base.is_zero, a.terms.values()))

    def div_int(self, a: Poly, n: int) -> Poly:
        return self._map(a, lambda c: self.base.div_int(c, n))

    def inv(self, a: Poly) -> Poly:
        if len(a.terms) != 1:
            raise ZeroDivisionError("only monomials are invertible here")
        (exps, coeff), = a.terms.items()
        if any(exps) and not self.laurent:
            raise ZeroDivisionError("nonconstant monomial needs a Laurent ring")
        return Poly(self.names, {tuple(-e for e in exps): self.base.inv(coeff)})

    def str_coeff(self, a) -> str:
        return f"({a})"
