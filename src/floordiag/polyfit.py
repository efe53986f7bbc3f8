"""Exact polynomial fitting: discrete derivatives, univariate interpolation,
and multivariate polynomiality verification by tensor-grid forward
differences.  All arithmetic is over Fraction; a nonzero residue is a
failure, never noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
        total = Fraction(0)
        for mono, c in self.coeffs:
            term = c
            for x, e in zip(point, mono):
                term *= Fraction(x) ** e
            total += term
        return total

    def degree_in(self, var_index: int) -> int:
        return max((m[var_index] for m, _ in self.coeffs), default=0)

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for mono, c in sorted(self.coeffs, key=lambda mc: (-sum(mc[0]), mc[0])):
            factors = []
            for name, e in zip(self.variables, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            body = "*".join(factors)
            if not body:
                body = str(abs(c))
            elif abs(c) != 1:
                body = "%s*%s" % (abs(c), body)
            parts.append(("+ " if c > 0 else "- ") + body)
        first = parts[0]
        out = (first[2:] if first.startswith("+ ") else "-" + first[2:])
        return " ".join([out] + parts[1:])

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
    """The unique polynomial of degree < len(points) through the given points."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x values")
    # Newton divided differences, then expansion into monomials.
    coeffs = [Fraction(y) for _, y in points]
    for k in range(1, len(points)):
        for i in range(len(points) - 1, k - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - k])
    poly: List[Fraction] = [Fraction(0)] * len(points)
    basis = [Fraction(1)]  # product (x - x_0)...(x - x_{k-1})
    for k, c in enumerate(coeffs):
        for e, b in enumerate(basis):
            poly[e] += c * b
        new = [Fraction(0)] * (len(basis) + 1)
        for e, b in enumerate(basis):
            new[e + 1] += b
            new[e] -= b * xs[k]
        basis = new
    return RationalPoly.from_dict(
        (variable,), {(e,): c for e, c in enumerate(poly) if c != 0}
    )


def _binomial_poly(shift: int, k: int) -> List[Fraction]:
    """Coefficients of C(x - shift, k) = (x-shift)(x-shift-1).../k! in x."""
    poly = [Fraction(1)]
    for j in range(k):
        root = shift + j
        new = [Fraction(0)] * (len(poly) + 1)
        for e, c in enumerate(poly):
            new[e + 1] += c
            new[e] -= c * root
        poly = new
    return [c / Fraction(factorial(k)) for c in poly]


@dataclass
class FitReport:
    name: str
    passed: bool
    polynomial: Optional[RationalPoly]
    degrees: Dict[str, int] = field(default_factory=dict)
    expected_degrees: Dict[str, int] = field(default_factory=dict)
    region: Dict[str, List[int]] = field(default_factory=dict)
    details: List[str] = field(default_factory=list)

    def line(self) -> str:
        return "%s %s" % ("PASS" if self.passed else "FAIL", self.name)

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "polynomial": self.polynomial.to_json() if self.polynomial else None,
            "degrees": self.degrees,
            "expected_degrees": self.expected_degrees,
            "region": self.region,
            "details": self.details,
        }


def fit_on_box(
    sampler: Callable[..., int], box: Mapping[str, Sequence[int]]
) -> RationalPoly:
    """Exact tensor-grid Newton fit on a box of consecutive integer values.

    Each axis must be a run of consecutive integers; the fitted polynomial
    has degree < len(axis) in each variable and matches every grid point.
    """
    poly, _ = _fit_with_grid(sampler, box)
    return poly


def _fit_with_grid(
    sampler: Callable[..., int], box: Mapping[str, Sequence[int]]
) -> Tuple[RationalPoly, Dict[Tuple[int, ...], Fraction]]:
    names = tuple(box)
    axes = [list(box[v]) for v in names]
    for v, axis in zip(names, axes):
        if any(axis[k + 1] - axis[k] != 1 for k in range(len(axis) - 1)):
            raise ValueError("axis %s is not a run of consecutive integers" % v)
    # tabulate
    grid: Dict[Tuple[int, ...], Fraction] = {}

    def fill(prefix):
        d = len(prefix)
        if d == len(names):
            grid[prefix] = Fraction(sampler(**dict(zip(names, prefix))))
            return
        for x in axes[d]:
            fill(prefix + (x,))

    fill(())
    # iterated forward differences along each axis
    diff = dict(grid)
    for d, axis in enumerate(axes):
        new: Dict[Tuple[int, ...], Fraction] = {}
        for pt in diff:
            if pt[d] != axis[0]:
                continue
            seq = []
            key = list(pt)
            for x in axis:
                key[d] = x
                seq.append(diff[tuple(key)])
            # forward differences: delta^k f at the axis origin
            for k in range(len(seq)):
                key[d] = axis[0] + k  # reuse the slot as the difference order
                new[tuple(key)] = seq[0]
                seq = [b - a for a, b in zip(seq, seq[1:])]
        diff = new
    # Newton-basis coefficients expand into monomials
    poly: PolyDict = {}
    for orders_pt, c in diff.items():
        if c == 0:
            continue
        orders = tuple(o - axis[0] for o, axis in zip(orders_pt, axes))
        expansion: Dict[Monomial, Fraction] = {(): Fraction(1)}
        for d, k in enumerate(orders):
            binom = _binomial_poly(axes[d][0], k)
            new_exp: Dict[Monomial, Fraction] = {}
            for mono, mc in expansion.items():
                for e, bc in enumerate(binom):
                    if bc == 0:
                        continue
                    key = mono + (e,)
                    new_exp[key] = new_exp.get(key, Fraction(0)) + mc * bc
            expansion = new_exp
        for mono, mc in expansion.items():
            poly[mono] = poly.get(mono, Fraction(0)) + c * mc
    return RationalPoly.from_dict(names, poly), grid


def verify_polynomiality(
    sampler: Callable[..., int],
    box: Mapping[str, Sequence[int]],
    degrees: Mapping[str, int],
    holdout: Optional[Mapping[str, int]] = None,
    name: str = "polynomiality",
) -> FitReport:
    """Fit on the box, check exactness, per-variable degrees, and one
    held-out point per report.

    Each axis needs degrees[v] + 2 consecutive points: one extra point per
    axis beyond the claimed degree, so the degree claim itself is tested.
    """
    names = tuple(box.keys())
    for v in names:
        if len(box[v]) < degrees[v] + 2:
            return FitReport(
                name, False, None,
                details=["axis %s needs %d points for degree %d" % (v, degrees[v] + 2, degrees[v])],
                region={k: list(vv) for k, vv in box.items()},
            )
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
