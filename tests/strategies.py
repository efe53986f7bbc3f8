"""Hypothesis strategies shared by the test modules."""

from hypothesis import assume
from hypothesis import strategies as st

from floordiag.polygon import HTransversePolygon, validate


@st.composite
def small_polygons(draw, max_height=3, max_slope=1, max_top=2):
    """Valid h-transverse polygons of height <= max_height, every slope in
    [-max_slope, max_slope] and top edge <= max_top."""
    a = draw(st.integers(1, max_height))
    slopes = st.lists(st.integers(-max_slope, max_slope), min_size=a, max_size=a)
    d_l = draw(slopes)
    d_r = draw(slopes)
    d_t = draw(st.integers(0, max_top))
    polygon = HTransversePolygon(tuple(d_l), tuple(d_r), d_t + sum(d_r) - sum(d_l), d_t)
    assume(not validate(polygon))
    return polygon
