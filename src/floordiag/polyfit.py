"""Exact polynomial fitting: discrete derivatives, and interpolation on
tensor grids of distinct integer values (one variable or several), with a
polynomiality verifier on top.  One routine, Newton divided differences,
does every fit.  All arithmetic is over Fraction; a nonzero residue is a
failure, never noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .laurent import signed_sum

Monomial = Tuple[int, ...]
PolyDict = Dict[Monomial, Fraction]


@dataclass(frozen=True)
class RationalPoly:
    """Multivariate polynomial with exact rational coefficients."""

    variables: Tuple[str, ...]
    coeffs: Tuple[Tuple[Monomial, Fraction], ...]

    @classmethod
    def from_dict(cls, variables: Sequence[str], data: Mapping[Monomial, Fraction]) -> "RationalPoly":
        cleaned = tuple(sorted((m, Fraction(c)) for m, c in data.items() if c != 0))
        return cls(tuple(variables), cleaned)

    def as_dict(self) -> PolyDict:
        return dict(self.coeffs)

    def evaluate(self, point: Sequence[int]) -> Fraction:
        if len(point) != len(self.variables):
            raise ValueError("point has %d coordinates, the polynomial %d variables"
                             % (len(point), len(self.variables)))
        total = Fraction(0)
        for mono, c in self.coeffs:
            term = c
            for x, e in zip(point, mono):
                term *= x ** e
            total += term
        return total

    def degree_in(self, var_index: int) -> int:
        return max((m[var_index] for m, _ in self.coeffs), default=0)

    def render(self) -> str:
        terms = []
        for mono, c in sorted(self.coeffs, key=lambda mc: (-sum(mc[0]), mc[0])):
            factors = []
            for name, e in zip(self.variables, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            terms.append((c, "*".join(factors)))
        return signed_sum(terms)

    def to_json(self) -> Dict:
        return {
            "variables": list(self.variables),
            "terms": [
                {"exponents": list(m), "coeff": str(c)} for m, c in self.coeffs
            ],
        }


def discrete_derivative(values: Sequence, n: int) -> List:
    """n-th discrete derivative of a sequence sampled at consecutive points:
    out[k] = sum_{l=0}^{n} (-1)^l C(n,l) values[k+l].  Length shrinks by n."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if len(values) < n + 1:
        raise ValueError("sequence too short for the %d-th discrete derivative" % n)
    signs = [(-1) ** l * comb(n, l) for l in range(n + 1)]
    return [
        sum(sign * values[k + l] for l, sign in enumerate(signs))
        for k in range(len(values) - n)
    ]


def interpolate(points: Sequence[Tuple[int, Fraction]], variable: str = "x") -> RationalPoly:
    """The unique polynomial of degree < len(points) through the given points,
    whose x values must be distinct but may come in any order."""
    values = dict(points)
    return fit_on_box(lambda **at: values[at[variable]], {variable: [x for x, _ in points]})


def _newton_monomials(xs: Sequence[int], ys: Sequence[Fraction]) -> List[Fraction]:
    """Monomial coefficients of the polynomial of degree < len(xs) through
    (xs[k], ys[k]): Newton divided differences c_k in the basis
    prod_{m<k} (x - x_m), expanded by Horner's rule."""
    cs = list(ys)
    for k in range(1, len(xs)):
        for j in range(len(xs) - 1, k - 1, -1):
            cs[j] = (cs[j] - cs[j - 1]) / (xs[j] - xs[j - k])
    poly = [cs[-1]]
    for k in range(len(xs) - 2, -1, -1):
        poly = [Fraction(0)] + poly  # poly * (x - x_k) + c_k
        for e in range(len(poly) - 1):
            poly[e] -= xs[k] * poly[e + 1]
        poly[0] += cs[k]
    return poly


@dataclass
class FitReport:
    name: str
    passed: bool
    polynomial: RationalPoly
    degrees: Dict[str, int] = field(default_factory=dict)
    expected_degrees: Dict[str, int] = field(default_factory=dict)
    region: Dict[str, List[int]] = field(default_factory=dict)
    details: List[str] = field(default_factory=list)

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "polynomial": self.polynomial.to_json(),
            "degrees": self.degrees,
            "expected_degrees": self.expected_degrees,
            "region": self.region,
            "details": self.details,
        }


def fit_on_box(
    sampler: Callable[..., int], box: Mapping[str, Sequence[int]]
) -> RationalPoly:
    """Exact tensor-grid Newton fit on a box of distinct integer values.

    Each axis is a list of distinct integers in any order; the fitted
    polynomial has degree < len(axis) in each variable and matches every
    grid point.
    """
    poly, _ = _fit_with_grid(sampler, box)
    return poly


def _fit_with_grid(
    sampler: Callable[..., int], box: Mapping[str, Sequence[int]]
) -> Tuple[RationalPoly, Dict[Tuple[int, ...], Fraction]]:
    names = tuple(box)
    axes = [list(box[v]) for v in names]
    for v, axis in zip(names, axes):
        if len(set(axis)) != len(axis):
            raise ValueError("axis %s repeats a value: %s" % (v, axis))
    grid = {pt: Fraction(sampler(**dict(zip(names, pt)))) for pt in product(*axes)}
    # Keyed by index along each axis: sample values at first; after the pass
    # along axis d, index k of that axis holds the coefficient of x_d^k.
    table = dict(zip(product(*(range(len(axis)) for axis in axes)), grid.values()))
    for d, axis in enumerate(axes):
        for start in [idx for idx in table if idx[d] == 0]:
            line = [start[:d] + (k,) + start[d + 1:] for k in range(len(axis))]
            ys = [table[key] for key in line]
            if any(ys):  # a line of zeros fits the zero polynomial as it stands
                table.update(zip(line, _newton_monomials(axis, ys)))
    return RationalPoly.from_dict(names, table), grid


def verify_polynomiality(
    sampler: Callable[..., int],
    box: Mapping[str, Sequence[int]],
    degrees: Mapping[str, int],
    holdout: Optional[Mapping[str, int]] = None,
    name: str = "polynomiality",
) -> FitReport:
    """Fit on the box, check exactness, per-variable degrees, and one
    held-out point per report.

    Each axis needs degrees[v] + 2 distinct points: one extra point per
    axis beyond the claimed degree, so the degree claim itself is tested.
    A shorter axis, like a repeated value, raises ValueError: nothing is
    verified.
    """
    names = tuple(box.keys())
    for v in names:
        if len(box[v]) < degrees[v] + 2:
            raise ValueError("axis %s needs %d points for degree %d, got %d"
                             % (v, degrees[v] + 2, degrees[v], len(box[v])))
    fitted, grid = _fit_with_grid(sampler, box)
    got_degrees = {v: fitted.degree_in(d) for d, v in enumerate(names)}
    details = []
    passed = True
    bad_grid = sum(1 for pt, val in grid.items() if fitted.evaluate(pt) != val)
    if bad_grid:
        passed = False
        details.append("fit misses %d of %d grid points" % (bad_grid, len(grid)))
    else:
        details.append("fit exact on all %d grid points" % len(grid))
    for v in names:
        if got_degrees[v] != degrees[v]:
            passed = False
            details.append("degree in %s is %d, expected %d" % (v, got_degrees[v], degrees[v]))
    if holdout is not None:
        point = tuple(holdout[v] for v in names)
        want = Fraction(sampler(**holdout))
        got = fitted.evaluate(point)
        if want != got:
            passed = False
            details.append("held-out point %r: sampled %s, fit %s" % (holdout, want, got))
        else:
            details.append("held-out residual: 0")
    return FitReport(
        name,
        passed,
        fitted,
        degrees=got_degrees,
        expected_degrees=dict(degrees),
        region={k: list(v) for k, v in box.items()},
        details=details,
    )
