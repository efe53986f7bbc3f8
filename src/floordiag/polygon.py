"""h-transverse lattice polygons given by their side data (d_l, d_r, d_b, d_t).

A convex lattice polygon is h-transverse when every boundary edge is
horizontal, vertical, or of slope 1/k with k an integer.  Such a polygon
is encoded by the multiset d_l of left slopes, the multiset d_r of right
slopes, and the lengths d_b, d_t of the bottom and top horizontal edges.
A slope entry k means the boundary moves by (-k, +1) per lattice row when
walked upward.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple


@dataclass(frozen=True)
class HTransversePolygon:
    d_l: Tuple[int, ...]  # left slopes, stored sorted
    d_r: Tuple[int, ...]  # right slopes, stored sorted
    d_b: int  # bottom edge length
    d_t: int  # top edge length

    def __post_init__(self):
        object.__setattr__(self, "d_l", tuple(sorted(self.d_l)))
        object.__setattr__(self, "d_r", tuple(sorted(self.d_r)))

    @property
    def height(self) -> int:
        return len(self.d_l)

    def key(self) -> str:
        """Canonical text form, used as cache key and in reports."""
        return "ht:dl=%s;dr=%s;db=%d;dt=%d" % (
            list(self.d_l), list(self.d_r), self.d_b, self.d_t)

    def left_profile(self) -> List[int]:
        """Left slopes row by row from bottom to top (convex order)."""
        return sorted(self.d_l, reverse=True)

    def right_profile(self) -> List[int]:
        """Right slopes row by row from bottom to top (convex order)."""
        return sorted(self.d_r)


@dataclass(frozen=True)
class LatticeStats:
    interior: int
    boundary: int
    n_delta: int
    s_max: int


def validate(p: HTransversePolygon) -> List[str]:
    """Return the list of violated invariants (empty when the polygon is valid)."""
    errs = []
    if len(p.d_l) != len(p.d_r):
        errs.append("left and right slope multisets differ in size")
        return errs
    if len(p.d_l) < 1:
        errs.append("polygon needs at least one row")
        return errs
    if p.d_b < 0 or p.d_t < 0:
        errs.append("horizontal edge lengths must be nonnegative")
    if p.d_b != p.d_t + sum(p.d_r) - sum(p.d_l):
        errs.append("closure fails: d_b != d_t + sum(d_r) - sum(d_l)")
        return errs
    # Row widths must stay nonnegative and the area positive.
    widths = _row_widths(p)
    if any(w < 0 for w in widths):
        errs.append("boundary sides cross: some row has negative width")
    if all(w == 0 for w in widths):
        errs.append("degenerate polygon with zero area")
    return errs


def _row_widths(p: HTransversePolygon) -> List[int]:
    """Widths of the lattice rows y = 0..a, bottom to top."""
    xl, xr = 0, p.d_b
    widths = [xr - xl]
    for l, r in zip(p.left_profile(), p.right_profile()):
        xl -= l
        xr -= r
        widths.append(xr - xl)
    return widths


def ensure_valid(p: HTransversePolygon) -> HTransversePolygon:
    errs = validate(p)
    if errs:
        raise ValueError("invalid h-transverse polygon: " + "; ".join(errs))
    return p


def make_delta_abn(a: int, b: int, n: int) -> HTransversePolygon:
    """The polygon with vertices (0,0), (0,a), (b,a), (an+b,0).

    Covers the projective plane (b=0, n=1), Hirzebruch surfaces (b>0) and
    weighted projective planes (b=0, n>=2).
    """
    if a < 1:
        raise ValueError("need a >= 1")
    if b < 0 or n < 0:
        raise ValueError("need b, n >= 0")
    if b == 0 and n == 0:
        raise ValueError("degenerate polygon: b = n = 0")
    return ensure_valid(HTransversePolygon((0,) * a, (n,) * a, a * n + b, b))


def make_delta_d(d: int) -> HTransversePolygon:
    """The degree-d triangle (0,0), (d,0), (0,d)."""
    return make_delta_abn(d, 0, 1)


@lru_cache(maxsize=4096)
def lattice_stats(p: HTransversePolygon) -> LatticeStats:
    """Interior and boundary lattice counts from the row widths.

    Every boundary edge joins lattice rows, so each row 0 < y < a has its
    two end points on the boundary and w_y - 1 points inside, while the
    bottom and top rows lie on the boundary.
    """
    widths = _row_widths(ensure_valid(p))
    interior = sum(w - 1 for w in widths[1:-1])
    boundary = p.d_b + p.d_t + 2 * p.height
    n_delta = boundary - 1
    return LatticeStats(interior, boundary, n_delta, n_delta // 2)


def chop_top(p: HTransversePolygon) -> HTransversePolygon:
    """Remove the top two rows of the polygon, producing the smaller
    companion used by the descendant-invariant recursion.

    Supported shapes: no top edge, and both top rows bounded by a vertical
    left side and a slope-1 right side.  This covers the triangle family
    and its cut-corner variants.
    """
    ensure_valid(p)
    if p.height < 3:
        raise ValueError("polygon too short to chop two rows")
    if p.d_t != 0:
        raise ValueError("chop_top needs a polygon with a pointed top (d_t = 0)")
    lp, rp = p.left_profile(), p.right_profile()
    if lp[-2:] != [0, 0] or rp[-2:] != [1, 1]:
        raise ValueError("top two rows are not of the supported (vertical, slope-1) shape")
    new_l = tuple(sorted(lp[:-2]))
    new_r = tuple(sorted(rp[:-2]))
    new_t = p.d_b - sum(new_r) + sum(new_l)
    return ensure_valid(HTransversePolygon(new_l, new_r, p.d_b, new_t))


def parse_polygon(text: str) -> HTransversePolygon:
    """Parse a polygon literal: 'abn:a,b,n' or 'ht:dl=[...];dr=[...];db=N;dt=M'."""
    text = text.strip()
    if text.startswith("abn:"):
        try:
            a, b, n = (int(x) for x in text[4:].split(","))
        except ValueError:
            raise ValueError("abn literal %r needs three integers a,b,n" % text) from None
        return make_delta_abn(a, b, n)
    if text.startswith("ht:"):
        items = [item.partition("=") for item in text[3:].split(";")]
        fields = {k.strip(): v.strip() for k, _, v in items}
        if len(items) != 4 or sorted(fields) != ["db", "dl", "dr", "dt"]:
            raise ValueError("ht literal %r needs the fields dl, dr, db and dt, each once" % text)
        try:
            if not all(fields[k].startswith("[") and fields[k].endswith("]") for k in ("dl", "dr")):
                raise ValueError
            d_l = [int(x) for x in fields["dl"][1:-1].split(",")]
            d_r = [int(x) for x in fields["dr"][1:-1].split(",")]
            d_b = int(fields["db"])
            d_t = int(fields["dt"])
        except ValueError:
            raise ValueError("ht literal %r needs integer lists dl=[...] and dr=[...] and integers "
                             "db and dt" % text) from None
        return ensure_valid(HTransversePolygon(tuple(d_l), tuple(d_r), d_b, d_t))
    raise ValueError("unknown polygon literal %r (use abn:... or ht:...)" % text)
