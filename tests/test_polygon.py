import pytest
from hypothesis import given, settings

from floordiag.polygon import (
    HTransversePolygon,
    chop_top,
    ensure_valid,
    lattice_stats,
    make_delta_abn,
    make_delta_d,
    parse_polygon,
    validate,
)
from strategies import small_polygons


def vertices(p):
    """Boundary vertex loop, counterclockwise from (0,0), collinear points dropped."""
    ensure_valid(p)
    a = p.height
    pts = [(0, 0)]
    if p.d_b:
        pts.append((p.d_b, 0))
    x = p.d_b
    for y, r in enumerate(p.right_profile(), start=1):
        x -= r
        pts.append((x, y))
    if p.d_t:
        pts.append((x - p.d_t, a))
    # left side from top to bottom
    x_left = [0]
    for l in p.left_profile():
        x_left.append(x_left[-1] - l)
    for y in range(a - 1, 0, -1):
        pts.append((x_left[y], y))
    # dedupe consecutive equal points and collinear runs
    out = []
    for q in pts:
        if out and q == out[-1]:
            continue
        out.append(q)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    merged = []
    m = len(out)
    for i, q in enumerate(out):
        prev = out[(i - 1) % m]
        nxt = out[(i + 1) % m]
        cross = (q[0] - prev[0]) * (nxt[1] - q[1]) - (q[1] - prev[1]) * (nxt[0] - q[0])
        if cross != 0:
            merged.append(q)
    return merged


def brute_force_counts(poly):
    """Interior/boundary lattice counts by scanning the bounding box."""
    vs = vertices(poly)
    m = len(vs)
    xs = [x for x, _ in vs]
    ys = [y for _, y in vs]
    interior = boundary = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            on_edge = False
            inside = True
            for i in range(m):
                x0, y0 = vs[i]
                x1, y1 = vs[(i + 1) % m]
                cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
                if cross == 0 and min(x0, x1) <= x <= max(x0, x1) and min(y0, y1) <= y <= max(y0, y1):
                    on_edge = True
                if cross < 0:
                    inside = False
            if on_edge:
                boundary += 1
            elif inside:
                interior += 1
    return interior, boundary


def test_delta_3_stats():
    stats = lattice_stats(make_delta_d(3))
    assert (stats.interior, stats.boundary, stats.n_delta, stats.s_max) == (1, 9, 8, 4)


def test_delta_4_stats():
    stats = lattice_stats(make_delta_d(4))
    assert stats.interior == 3
    assert stats.n_delta == 11
    assert stats.s_max == 5


def test_delta_221_interior():
    assert lattice_stats(make_delta_abn(2, 2, 1)).interior == 2


def test_make_delta_abn_data():
    p = make_delta_abn(3, 0, 1)
    assert (p.d_l, p.d_r, p.d_b, p.d_t) == ((0, 0, 0), (1, 1, 1), 3, 0)
    p = make_delta_abn(2, 2, 1)
    assert (p.d_l, p.d_r, p.d_b, p.d_t) == ((0, 0), (1, 1), 4, 2)
    p = make_delta_abn(3, 2, 0)
    assert p.d_b == p.d_t == 2 and p.d_r == (0, 0, 0)


def test_make_delta_abn_rejects_degenerate():
    with pytest.raises(ValueError):
        make_delta_abn(0, 1, 1)
    with pytest.raises(ValueError):
        make_delta_abn(3, 0, 0)


@pytest.mark.parametrize(
    "a,b,n",
    [(a, b, n) for a in range(1, 7) for b in range(7) for n in range(4) if b or n],
)
def test_interior_closed_form_and_bruteforce(a, b, n):
    poly = make_delta_abn(a, b, n)
    stats = lattice_stats(poly)
    closed = (a * a * n + 2 * a * b - (n + 2) * a - 2 * b + 2) // 2
    assert stats.interior == closed
    brute_i, brute_b = brute_force_counts(poly)
    assert stats.interior == brute_i
    assert stats.boundary == brute_b


def test_general_h_transverse_polygon():
    # the four-row polygon with slopes on both sides
    p = HTransversePolygon((-2, 0, 1, 1), (2, 0, 0, -1), 2, 1)
    assert validate(p) == []
    assert lattice_stats(p).interior == 11
    brute_i, brute_b = brute_force_counts(p)
    assert lattice_stats(p).interior == brute_i
    assert lattice_stats(p).boundary == brute_b


@settings(max_examples=150, deadline=None)
@given(small_polygons(max_height=6, max_slope=3, max_top=4))
def test_lattice_stats_matches_bruteforce_on_random_polygons(poly):
    stats = lattice_stats(poly)
    assert (stats.interior, stats.boundary) == brute_force_counts(poly)


def test_lattice_stats_rejects_invalid_polygon():
    with pytest.raises(ValueError):
        lattice_stats(HTransversePolygon((0,), (1,), 5, 0))  # closure fails


def test_vertices_of_triangle():
    assert set(vertices(make_delta_d(3))) == {(0, 0), (3, 0), (0, 3)}


def test_validate_violations():
    assert validate(HTransversePolygon((0,), (1,), 1, 0)) == []
    bad = HTransversePolygon((0, 0), (1,), 1, 0)
    assert validate(bad)
    bad = HTransversePolygon((0,), (1,), 5, 0)
    assert any("closure" in e for e in validate(bad))


def test_chop_top_delta4():
    assert chop_top(make_delta_d(4)) == make_delta_abn(2, 2, 1)


def test_chop_top_delta3():
    got = chop_top(make_delta_d(3))
    assert (got.d_l, got.d_r, got.d_b, got.d_t) == ((0,), (1,), 3, 2)


def test_chop_top_preserves_validity():
    for d in (3, 4, 5, 6):
        assert validate(chop_top(make_delta_d(d))) == []


def test_chop_top_too_short():
    with pytest.raises(ValueError):
        chop_top(make_delta_abn(2, 2, 1))


def test_chop_top_unsupported_top():
    with pytest.raises(ValueError):
        chop_top(make_delta_abn(3, 2, 0))  # slope-0 right side
    with pytest.raises(ValueError):
        chop_top(make_delta_abn(4, 1, 1).__class__((0, 0, 0), (1, 1, 1), 4, 1))


def test_parse_polygon():
    assert parse_polygon("abn:3,0,1") == make_delta_d(3)
    p = parse_polygon("ht:dl=[-2,0,1,1];dr=[2,0,0,-1];db=2;dt=1")
    assert p == HTransversePolygon((-2, 0, 1, 1), (2, 0, 0, -1), 2, 1)
    with pytest.raises(ValueError):
        parse_polygon("abn:3,0")
    with pytest.raises(ValueError):
        parse_polygon("nonsense")


FIELDS = "needs the fields dl, dr, db and dt, each once"
ENTRIES = "needs integer lists dl=[...] and dr=[...] and integers db and dt"


@pytest.mark.parametrize("literal,message", [
    ("abn:3,x,1", "needs three integers"),
    ("abn:3,0", "needs three integers"),
    ("abn:3,0,1,2", "needs three integers"),
    ("ht:dl=[0,0];dr=[1,1];db=2;dt=0;x=9", FIELDS),
    ("ht:dl=[0,0];dr=[1,1];db=2;dt=0;", FIELDS),
    ("ht:dl=[0,0];dr=[1,1];db=2;dt=0;dt=1", FIELDS),
    ("ht:dl=[0,0];dr=[1,1];db=2;db=2", FIELDS),
    ("ht:dl=[0,0];dr=[1,1];db=2", FIELDS),
    ("ht:dl=[0,y];dr=[1,1];db=2;dt=0", ENTRIES),
    ("ht:dl=[0,,0];dr=[1,1];db=2;dt=0", ENTRIES),
    ("ht:dl=[0,0];dr=[1,1,];db=2;dt=0", ENTRIES),
    ("ht:dl=[0,0];dr=[1,1];db=x;dt=0", ENTRIES),
    ("ht:dl=[[0,0]];dr=[1,1];db=2;dt=0", ENTRIES),
    ("ht:dl=0,0;dr=[1,1];db=2;dt=0", ENTRIES),
    ("ht:dl=[0,0;dr=[1,1];db=2;dt=0", ENTRIES),
])
def test_parse_polygon_rejects_malformed_literal(literal, message):
    with pytest.raises(ValueError) as exc:
        parse_polygon(literal)
    assert repr(literal) in str(exc.value) and message in str(exc.value)
