"""Exact symmetric Laurent polynomials in q with half-integer exponents.

Everything lives in Z[q^{1/2}, q^{-1/2}].  Exponents are stored doubled
(the key for q^{5/2} is 5, the key for q^3 is 6) so that all arithmetic
stays in plain Python integers.  Coefficients are arbitrary-precision
ints; zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple


class EngineError(ValueError):
    """An identity the engine relies on failed: a fault, never a usage error."""


class LaurentPoly:
    """A Laurent polynomial as a map {doubled exponent: integer coefficient}."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[Tuple[int, int]] = ()):
        c: Dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for e2, v in items:
            if v:
                c[e2] = c.get(e2, 0) + v
                if not c[e2]:
                    del c[e2]
        self._c = c

    # -- basic queries ----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    def is_zero(self) -> bool:
        return not self._c

    def coeff2(self, e2: int) -> int:
        """Coefficient of q^(e2/2)."""
        return self._c.get(e2, 0)

    def degree2(self) -> int:
        """Doubled top exponent.  Undefined for the zero polynomial."""
        if not self._c:
            raise ValueError("degree of the zero Laurent polynomial is undefined")
        return max(self._c)

    def degree(self) -> Fraction:
        return Fraction(self.degree2(), 2)

    def valuation2(self) -> int:
        if not self._c:
            raise ValueError("valuation of the zero Laurent polynomial is undefined")
        return min(self._c)

    def is_symmetric(self) -> bool:
        """True iff the coefficient of q^e equals the coefficient of q^-e for all e."""
        return all(self._c.get(-e2, 0) == v for e2, v in self._c.items())

    def has_nonnegative_coeffs(self) -> bool:
        return all(v >= 0 for v in self._c.values())

    def evaluate_at_one(self) -> int:
        return sum(self._c.values())

    def evaluate_at_minus_one(self) -> int:
        """Value at q = -1, i.e. q^{1/2} = i; only sensible for symmetric input."""
        total = 0
        for e2, v in self._c.items():
            if e2 % 2:
                raise ValueError("half-integer exponent has no real value at q=-1")
            total += -v if (e2 // 2) % 2 else v
        return total

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for e2, v in other._c.items():
            c[e2] = c.get(e2, 0) + v
            if not c[e2]:
                del c[e2]
        out = LaurentPoly.zero()
        out._c = c
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for e2, v in other._c.items():
            c[e2] = c.get(e2, 0) - v
            if not c[e2]:
                del c[e2]
        out = LaurentPoly.zero()
        out._c = c
        return out

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        c: Dict[int, int] = {}
        for e2, v in self._c.items():
            for f2, w in other._c.items():
                k = e2 + f2
                c[k] = c.get(k, 0) + v * w
                if not c[k]:
                    del c[k]
        out = LaurentPoly.zero()
        out._c = c
        return out

    def scalar_mul(self, k: int) -> "LaurentPoly":
        if not k:
            return LaurentPoly.zero()
        out = LaurentPoly.zero()
        out._c = {e2: k * v for e2, v in self._c.items()}
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(self.key())

    def key(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical hashable form, sorted by exponent."""
        return tuple(sorted(self._c.items()))

    # -- codegree and symmetry helpers ---------------------------------------

    def substitute_q_squared(self) -> "LaurentPoly":
        """P(q) -> P(q^2): every exponent doubles."""
        out = LaurentPoly.zero()
        out._c = {2 * e2: v for e2, v in self._c.items()}
        return out

    def codegree_coeff(self, i: int) -> int:
        """Coefficient of degree (top - i); 0 when that term is absent."""
        if i < 0:
            raise ValueError("codegree must be nonnegative")
        return self._c.get(self.degree2() - 2 * i, 0)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()!r})"

    def render(self) -> str:
        """Text form with descending exponents, e.g. 'q^2 + 2*q + 2 + 2*q^-1 + q^-2'."""
        if not self._c:
            return "0"
        parts = []
        for e2 in sorted(self._c, reverse=True):
            v = self._c[e2]
            if e2 == 0:
                body = str(abs(v))
            else:
                power = "q" if e2 == 2 else ("q^%d" % (e2 // 2) if e2 % 2 == 0 else "q^%d/2" % e2)
                body = power if abs(v) == 1 else "%d*%s" % (abs(v), power)
            if not parts:
                parts.append(body if v > 0 else "-" + body)
            else:
                parts.append(("+ " if v > 0 else "- ") + body)
        return " ".join(parts)

    def to_json(self) -> Dict[str, int]:
        """JSON form keyed by doubled exponents, e.g. {"2": 1, "0": 10, "-2": 1}."""
        return {str(e2): v for e2, v in sorted(self._c.items(), reverse=True)}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "LaurentPoly":
        return cls({int(k): v for k, v in data.items()})


def quantum_integer(k: int) -> LaurentPoly:
    """[k](q) = q^{(k-1)/2} + q^{(k-3)/2} + ... + q^{-(k-1)/2}."""
    if k <= 0:
        raise ValueError("quantum integer needs k >= 1, got %d" % k)
    return LaurentPoly({k - 1 - 2 * j: 1 for j in range(k)})


def prod(factors: Iterable[LaurentPoly]) -> LaurentPoly:
    out = LaurentPoly.one()
    for f in factors:
        out = out * f
    return out


def divide_exact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact quotient p/d in Z[q^{1/2},q^{-1/2}], by long division from the top.

    Raises EngineError when the division is not exact; that always signals a
    violated identity upstream, never an expected condition.
    """
    if d.is_zero():
        raise ValueError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero()
    rem = dict(p._c)
    dtop = d.degree2()
    dlead = d._c[dtop]
    min_shift = p.valuation2() - d.valuation2()
    q: Dict[int, int] = {}
    while rem:
        rtop = max(rem)
        lead = rem[rtop]
        if lead % dlead:
            raise EngineError("non-exact Laurent division (leading coefficient)")
        c = lead // dlead
        shift = rtop - dtop
        if shift < min_shift:
            raise EngineError("non-exact Laurent division (remainder)")
        q[shift] = c
        for e2, v in d._c.items():
            k = e2 + shift
            rem[k] = rem.get(k, 0) - c * v
            if not rem[k]:
                del rem[k]
    return LaurentPoly(q)


def poly_geq(p: LaurentPoly, r: LaurentPoly) -> bool:
    """True iff p - r has only nonnegative coefficients."""
    return (p - r).has_nonnegative_coeffs()
