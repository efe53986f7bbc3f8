"""Closed-form codegree coefficients for the Delta_{a,b,n} family in genus 0.

Combines three ingredients: the composition sums F(k,l) and Phi_l(k) that
give codegree coefficients of products of squared quantum integers, the
chain diagrams D_{a,b,n,u,utilde} classifying small-codegree classes, and
the nested binomial marking count nu.  The headline evaluation is

    coef_i G_{Delta_{a,b,n}}(0;s)
        = sum over (u,ut) in C_i of nu_{u,ut}(a,b,n,s) * Phi_{i-codeg(u,ut)}(a-1)

valid on the region an+b >= i+2s, b > i, a > i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Iterator, List, Sequence, Tuple

from .diagram import FloorDiagram, bounded_vectors
from .laurent import prod, quantum_integer


def F(k: int, l: int) -> int:
    """Sum over compositions of l into k positive parts of the part product."""
    if k < 0 or l < 0:
        raise ValueError("F needs nonnegative arguments")
    return _F(k, l)


@lru_cache(maxsize=None)
def _F(k: int, l: int) -> int:
    if k == 0:
        return 1 if l == 0 else 0
    if l < k:
        return 0
    # peel off the first part
    return sum(i1 * _F(k - 1, l - i1) for i1 in range(1, l - k + 2))


def Phi(l: int, k: int) -> int:
    """Phi_l(k) = F(k, k+l); polynomial of degree l in k."""
    return F(k, k + l)


def coeff_product_of_squares(i: int, weights: Sequence[int]) -> int:
    """Codegree-i coefficient of prod [a_j]^2.

    Equals Phi_i(k) whenever every weight exceeds i (that value depends on
    k alone); weights <= i invalidate the shortcut, so the small factors
    are expanded and convolved against the Phi values of the rest.
    """
    if i < 0:
        raise ValueError("codegree must be nonnegative")
    if all(a > i for a in weights):
        return Phi(i, len(weights))
    small = [a for a in weights if 1 < a <= i]
    k_large = sum(1 for a in weights if a > i)
    p = prod(quantum_integer(a) * quantum_integer(a) for a in small)
    return sum(p.codegree_coeff(c) * Phi(i - c, k_large) for c in range(i + 1))


# -- the C_i family of chain diagrams ----------------------------------------


@dataclass(frozen=True)
class UVector:
    u: Tuple[int, ...]
    u_tilde: Tuple[int, ...]

    @property
    def codeg(self) -> int:
        return sum((j + 1) * (a + b) for j, (a, b) in enumerate(zip(self.u, self.u_tilde)))


def enumerate_C(i: int) -> List[UVector]:
    """C_i = {(u, ut) of length i with sum j*(u_j + ut_j) <= i}, lex ordered."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    costs = range(1, i + 1)
    out = []
    for u in bounded_vectors(costs, i):
        used = sum(c * v for c, v in zip(costs, u))
        for ut in bounded_vectors(costs, i - used):
            out.append(UVector(u, ut))
    return out


def build_D(a: int, b: int, n: int, uv: UVector) -> FloorDiagram:
    """The chain diagram with totally ordered floors v_1..v_a, u_j extra
    sources at floor v_{j+1}, ut_j extra sinks at floor v_{a-j}, and
    elevator weights forced by divergence n at every floor."""
    i = len(uv.u)
    if a <= i:
        raise ValueError("need a > i so the decorated floors exist")
    if b < 0 or n < 0:
        raise ValueError("need b, n >= 0")
    sources = [0] * a
    sinks = [0] * a
    sources[0] = a * n + b - sum(uv.u)
    if sources[0] < 0:
        raise ValueError("more displaced sources than d_b provides")
    sinks[a - 1] = b - sum(uv.u_tilde)
    if sinks[a - 1] < 0:
        raise ValueError("more displaced sinks than d_t provides")
    for j in range(1, i + 1):
        sources[j] += uv.u[j - 1]
        sinks[a - 1 - j] += uv.u_tilde[j - 1]
    elevators = []
    flow = 0
    for k in range(a - 1):
        flow += sources[k] - sinks[k] - n
        if flow <= 0:
            raise ValueError("forced elevator weight is nonpositive at gap %d" % k)
        elevators.append((k, k + 1, flow))
    return FloorDiagram(
        tuple((0, n, s, t) for s, t in zip(sources, sinks)),
        tuple(elevators),
    )


# -- marking counts and the closed form ---------------------------------------


def _clamped_comb(top: int, bottom: int) -> int:
    if bottom < 0 or top < 0 or bottom > top:
        return 0
    return comb(top, bottom)


def _nu_tilde(u: Tuple[int, ...], a: int, b: int, n: int, s: int) -> int:
    """Markings of the bottom decoration pattern compatible with the
    consecutive pairing of order s: a multinomial sum of products of
    binomials, with degenerate binomials contributing zero."""
    i = len(u)
    total = 0
    for split in _sum_tuples(s, i + 1):
        coeff = factorial(s)
        for part in split:
            coeff //= factorial(part)
        term = coeff
        cum = 0
        for j in range(1, i + 1):
            cum += 2 * split[j]  # 2*s_1 + ... + 2*s_j (s_0 handled below)
            top = (
                a * n + b + 2 * j - 2 * split[0] - cum - sum(u[j:])
            )
            term *= _clamped_comb(top, u[j - 1] - 2 * split[j])
            if not term:
                break
        total += term
    return total


def _sum_tuples(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for tail in _sum_tuples(total - first, parts - 1):
            yield (first,) + tail


def nu(uv: UVector, a: int, b: int, n: int, s: int) -> int:
    """Number of markings of build_D(a,b,n,uv) compatible with the
    consecutive pairing of order s; valid for b >= i and an+b >= i+2s."""
    i = len(uv.u)
    if b < i or a * n + b < i + 2 * s:
        raise ValueError("(a,b,n,s) outside the marking-count region")
    return _nu_tilde(uv.u, a, b, n, s) * _nu_tilde(uv.u_tilde, 0, b, 0, 0)


def in_region_U(i: int, a: int, b: int, n: int, s: int) -> bool:
    return a * n + b >= i + 2 * s and b > i and a > i


def coeff_closed_form(i: int, a: int, b: int, n: int, s: int) -> int:
    """coef_i G_{Delta_{a,b,n}}(0;s) on the region U_i, evaluated exactly."""
    if not in_region_U(i, a, b, n, s):
        raise ValueError("(a,b,n,s)=(%d,%d,%d,%d) outside U_%d" % (a, b, n, s, i))
    total = 0
    for uv in enumerate_C(i):
        total += nu(uv, a, b, n, s) * Phi(i - uv.codeg, a - 1)
    return total
