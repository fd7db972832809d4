"""Coefficient rings for truncated series: rationals, complexes, polynomials.

Polynomials are sparse maps from exponent tuples to coefficients; negative
exponents are allowed when the ring is created as a Laurent ring.  Exact
coefficients are ints or Fractions, never floats; exact rings compare
coefficients by equality, the complex ones by an absolute tolerance.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import add


def _reduced(names, num: dict, den: int) -> "Poly":
    """The exact Poly num/den, with the common factor of den and every
    numerator divided out (so zero has denominator 1)."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return Poly._make(names, num, den)


class _Terms(Mapping):
    """Read-only exponent -> coefficient view of a Poly; an exact coefficient
    becomes a Fraction (an int when the denominator is 1) only when read."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den):
        self._num = num
        self._den = den

    def __len__(self):
        return len(self._num)

    def __iter__(self):
        return iter(self._num)

    def __getitem__(self, exps):
        c = self._num[exps]
        return c if self._den in (None, 1) else Fraction(c, self._den)


class Poly:
    """Sparse multivariate polynomial over exact or complex coefficients.

    Exact (int/Fraction) coefficients are stored as integer numerators over
    one positive common denominator that shares no factor with all of them;
    the integer rings keep the denominator 1, so their products and sums are
    plain integer arithmetic.  A polynomial built with a float or complex
    coefficient, or from one that has one, keeps its coefficients as given
    (denominator None) and combines them in the order the sparse loops
    visit them.
    """

    __slots__ = ("names", "_num", "_den")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != len(self.names):
                    raise ValueError("exponent tuple does not match variable count")
                if coeff != 0:
                    clean[exps] = coeff
        if all(isinstance(c, (int, Fraction)) for c in clean.values()):
            den = lcm(*(c.denominator for c in clean.values()))
            self._num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
            self._den = den
        else:
            self._num = clean
            self._den = None

    @classmethod
    def _make(cls, names, num: dict, den) -> "Poly":
        """A Poly from its stored form: nonzero integer numerators reduced
        against `den`, or nonzero coefficients as given with den None."""
        p = object.__new__(cls)
        p.names = names
        p._num = num
        p._den = den
        return p

    @classmethod
    def constant(cls, names, value) -> "Poly":
        names = tuple(names)
        if isinstance(value, (int, Fraction)):
            num = {(0,) * len(names): value.numerator} if value else {}
            return cls._make(names, num, value.denominator)
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def variable(cls, names, name, coeff=1) -> "Poly":
        idx = tuple(names).index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(names)))
        return cls(names, {exps: coeff})

    @property
    def terms(self) -> Mapping:
        """Exponent tuple -> nonzero coefficient, as a read-only mapping."""
        return _Terms(self._num, self._den)

    def _coeffs(self) -> dict:
        """Exponent tuple -> coefficient as a dict the caller must not change;
        Fractions are built only for a denominator above 1."""
        den = self._den
        if den is None or den == 1:
            return self._num
        return {e: Fraction(c, den) for e, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def _lift(self, other):
        if isinstance(other, Poly):
            if other.names != self.names:
                raise ValueError("polynomials over different variables")
            return other
        if isinstance(other, (int, Fraction, float, complex)):
            return Poly.constant(self.names, other)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        da, db = self._den, other._den
        if da is None or db is None:
            terms = dict(self._coeffs())
            for e, c in other._coeffs().items():
                s = terms.get(e, 0) + c
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
            return Poly._make(self.names, terms, None)
        den = lcm(da, db)
        ma, mb = den // da, den // db
        num = dict(self._num) if ma == 1 else {e: c * ma for e, c in self._num.items()}
        get = num.get
        for e, c in other._num.items():
            s = get(e, 0) + c * mb
            if s:
                num[e] = s
            else:
                del num[e]
        return _reduced(self.names, num, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.names, {e: -c for e, c in self._num.items()}, self._den)

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
        if self._den is None or other._den is None:
            terms: dict[tuple, object] = {}
            a, b = self._coeffs(), other._coeffs()
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = tuple(map(add, e1, e2))
                    s = terms.get(e, 0) + c1 * c2
                    if s == 0:
                        terms.pop(e, None)
                    else:
                        terms[e] = s
            return Poly._make(self.names, terms, None)
        # integer convolution of the numerators, one product of denominators
        num: dict[tuple, int] = {}
        get = num.get
        if len(self.names) == 1:
            for (e1,), c1 in self._num.items():
                for (e2,), c2 in other._num.items():
                    e = (e1 + e2,)
                    num[e] = get(e, 0) + c1 * c2
        else:
            for e1, c1 in self._num.items():
                for e2, c2 in other._num.items():
                    e = tuple(map(add, e1, e2))
                    num[e] = get(e, 0) + c1 * c2
        if 0 in num.values():
            num = {e: c for e, c in num.items() if c}
        return _reduced(self.names, num, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers need a Laurent monomial")
        result = Poly.constant(self.names, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, name: str, value):
        """Replace one variable by a scalar value; exponents may be negative
        only if the value is invertible (handled by Python's ** operator)."""
        idx = self.names.index(name)
        rest = self.names[:idx] + self.names[idx + 1 :]
        out = Poly(rest, {})
        for e, c in self._coeffs().items():
            scalar = c * value ** e[idx]
            out = out + Poly(rest, {e[:idx] + e[idx + 1 :]: scalar})
        return out

    def coefficient(self, exps) -> object:
        c = self._num.get(tuple(exps), 0)
        return c if self._den in (None, 1) else Fraction(c, self._den)

    def degree_in(self, name: str) -> int:
        """Largest exponent of the variable; -1 for the zero polynomial."""
        idx = self.names.index(name)
        if not self._num:
            return -1
        return max(e[idx] for e in self._num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = Poly.constant(self.names, other)
        if not isinstance(other, Poly) or self.names != other.names:
            return False
        if self._den is not None and other._den is not None:
            return self._den == other._den and self._num == other._num
        return self._coeffs() == other._coeffs()

    def __hash__(self):
        return hash((self.names, frozenset(self._coeffs().items())))

    def isclose(self, other, tol: float) -> bool:
        a, b = self._coeffs(), self._lift(other)._coeffs()
        for e in set(a) | set(b):
            if abs(complex(a.get(e, 0)) - complex(b.get(e, 0))) > tol:
                return False
        return True

    def max_abs_difference(self, other) -> float:
        a, b = self._coeffs(), self._lift(other)._coeffs()
        keys = set(a) | set(b)
        if not keys:
            return 0.0
        return max(abs(complex(a.get(e, 0)) - complex(b.get(e, 0))) for e in keys)

    def _monomial_str(self, exps) -> str:
        pieces = []
        for name, e in zip(self.names, exps):
            if e == 0:
                continue
            pieces.append(name if e == 1 else f"{name}^{e}")
        return "*".join(pieces)

    def __str__(self):
        terms = self._coeffs()
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
    exact = True

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_fraction(self, fr: Fraction):
        return Fraction(fr)

    def coerce(self, value):
        return value if isinstance(value, int) else Fraction(value)

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


class ComplexField:
    """Double-precision complex coefficients with an absolute tolerance."""

    exact = False

    def __init__(self, tol: float = 1e-8):
        self.tol = tol
        self.name = "CC"

    @property
    def zero(self):
        return 0j

    @property
    def one(self):
        return 1 + 0j

    def from_fraction(self, fr: Fraction):
        return complex(fr)

    def coerce(self, value):
        return complex(value)

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.tol

    def is_zero(self, a) -> bool:
        return a == 0

    def div_int(self, a, n: int):
        return a / n

    def inv(self, a):
        return 1 / a

    def str_coeff(self, a) -> str:
        return str(a)


class PolynomialRing:
    """Polynomials (or Laurent polynomials) over an exact or complex base."""

    def __init__(self, names, base=None, laurent: bool = False):
        self.names = tuple(names)
        self.base = base if base is not None else RationalField()
        self.laurent = laurent
        kind = "Laurent" if laurent else "poly"
        self.name = f"{self.base.name}[{','.join(self.names)}]({kind})"

    @property
    def exact(self) -> bool:
        return self.base.exact

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

    def from_fraction(self, fr: Fraction) -> Poly:
        return Poly.constant(self.names, self.base.from_fraction(fr))

    def coerce(self, value) -> Poly:
        if isinstance(value, Poly):
            if value.names != self.names:
                raise ValueError("polynomial from a different ring")
            return value
        return Poly.constant(self.names, self.base.coerce(value))

    def eq(self, a, b) -> bool:
        if self.base.exact:
            return a == b
        return a.isclose(b, self.base.tol)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def div_int(self, a: Poly, n: int) -> Poly:
        if self.base.exact:
            return a * Fraction(1, n)
        return a * (1.0 / n)

    def inv(self, a: Poly) -> Poly:
        if len(a.terms) != 1:
            raise ZeroDivisionError("only monomials are invertible here")
        (exps, coeff), = a.terms.items()
        if any(exps) and not self.laurent:
            raise ZeroDivisionError("nonconstant monomial needs a Laurent ring")
        inv_c = (
            1 / Fraction(coeff) if self.base.exact else 1 / coeff
        )
        return Poly(self.names, {tuple(-e for e in exps): inv_c})

    def str_coeff(self, a) -> str:
        return f"({a})"
