import pytest

from floordiag import templates
from floordiag.diagram import canonical_form, codegree, enumerate_floor_diagrams
from floordiag.laurent import EngineError
from floordiag.polygon import make_delta_abn
from floordiag.templates import (
    POINT,
    AdmissibleCollection,
    CappingTree,
    Template,
    enumerate_admissible_collections,
    enumerate_capping_trees,
    enumerate_templates,
    is_template,
    positions,
    reconstructions,
    template_census,
    verify_bijection,
)

FIG_CENSUS = {(0, 0): 1, (0, 1): 2, (0, 2): 4, (1, 0): 1, (1, 1): 3, (1, 2): 10}


def test_census_matches_figure():
    assert template_census(1, 2) == FIG_CENSUS


def test_census_subsets():
    assert template_census(0, 2) == {(0, 0): 1, (0, 1): 2, (0, 2): 4}
    assert template_census(1, 1) == {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 3}


def test_point_template():
    assert POINT.genus() == 0 and POINT.codeg() == 0
    assert is_template(POINT)


def test_known_templates():
    # single edge with a source on the upper vertex: genus 0, codegree 1
    t = Template(2, (1,), (), (0, 1), (0, 0))
    assert is_template(t) and t.genus() == 0 and t.codeg() == 1
    # two parallel edges: the unique (1,0) template
    t = Template(2, (2,), (), (0, 0), (0, 0))
    assert is_template(t) and t.genus() == 1 and t.codeg() == 0
    # triangle with a doubled long edge: codegree 2
    t = Template(3, (1, 1), ((1, 3, 2),), (0, 0, 0), (0, 0, 0))
    assert is_template(t) and t.genus() == 1 and t.codeg() == 2


def test_invalid_templates():
    # bare edge: its short edge is separating
    assert not is_template(Template(2, (1,), (), (0, 0), (0, 0)))
    # source on the bottom vertex
    assert not is_template(Template(2, (1,), (), (1, 0), (0, 1)))
    # sink on the top vertex
    assert not is_template(Template(2, (2,), (), (0, 0), (0, 1)))
    # sources and sinks together never fit an admissible collection
    assert not is_template(Template(2, (1,), (), (0, 1), (1, 0)))
    # chain of two bare gaps: both short edges separating
    assert not is_template(Template(3, (1, 1), (), (0, 0, 0), (0, 0, 0)))


def test_composites_excluded():
    # two parallel pairs stacked at a shared vertex = two (1,0) templates
    assert not is_template(Template(3, (2, 2), (), (0, 0, 0), (0, 0, 0)))
    # parallel pair with a trailing sink-edge piece
    assert not is_template(Template(3, (2, 1), (), (0, 0, 0), (0, 1, 0)))
    # but anchored variants that no split explains stay atomic
    assert is_template(Template(3, (2, 1), (), (0, 0, 0), (1, 0, 0)))
    assert is_template(Template(3, (2, 1), (), (0, 0, 1), (0, 0, 0)))


def test_length_bound():
    for bounds in ((0, 2), (1, 1), (1, 2)):
        for t in enumerate_templates(*bounds):
            assert t.codeg() + t.genus() >= t.length - 1
    # sharpness at every census cell
    cells = {}
    for t in enumerate_templates(1, 2):
        key = (t.genus(), t.codeg())
        cells.setdefault(key, []).append(t.length)
    for (g, c), lengths in cells.items():
        assert max(lengths) == g + c + 1


def test_capping_tree_examples():
    trees = enumerate_capping_trees(4, 1, 2)
    assert len(trees) == 1
    assert trees[0].codeg() == 2
    assert sorted(len(str(c)) for c in trees[0].shape) == sorted(
        len(str(c)) for c in ((), ((),))
    )
    trees = enumerate_capping_trees(3, 2, 2)
    assert len(trees) == 1 and trees[0].codeg() == 2
    assert enumerate_capping_trees(5, 1, 2) == []
    assert enumerate_capping_trees(3, 1, 0) == []


def test_capping_tree_lower_bound():
    for a in (3, 4, 5):
        for n in (1, 2):
            for t in enumerate_capping_trees(a, n, 12):
                assert t.codeg() >= n * (a - 2)


def test_admissible_collections_structure():
    cols = enumerate_admissible_collections(0, 1)
    for col in cols:
        assert col.is_admissible()
        assert col.genus() == 0 and col.codeg() == 1
    # sink templates can only close a collection, source templates open one
    src_t = Template(2, (1,), (), (0, 1), (0, 0))
    snk_t = Template(2, (1,), (), (0, 0), (1, 0))
    assert not AdmissibleCollection((snk_t, POINT)).is_admissible()
    assert not AdmissibleCollection((POINT, src_t)).is_admissible()
    assert AdmissibleCollection((src_t, POINT)).is_admissible()
    assert AdmissibleCollection((POINT, snk_t)).is_admissible()


def test_positions_pin_ends():
    src_t = Template(2, (1,), (), (0, 1), (0, 0))
    col = AdmissibleCollection((src_t, POINT))
    assert list(positions(col, 4)) == [(1, 4)]
    col = AdmissibleCollection((POINT, POINT))
    assert list(positions(col, 4)) == [(1, 4)]


def test_positions_allow_touching_spans():
    pair = Template(2, (2,), (), (0, 0), (0, 0))
    snk_t = Template(2, (1,), (), (0, 0), (1, 0))
    col = AdmissibleCollection((POINT, pair, snk_t))
    # the parallel pair may share its top vertex with the sink piece
    assert (1, 2, 3) in set(positions(col, 4))


def test_reconstruct_codegree_zero_chain():
    col = AdmissibleCollection((POINT, POINT))
    kappa = next(iter(positions(col, 4)))
    (d,) = reconstructions(col, kappa, 4, 2, 1)
    assert codegree(d) == 0
    assert d.genus() == 0
    assert d.newton_polygon() == make_delta_abn(4, 2, 1)


def test_reconstruct_matches_template_invariants():
    for col in enumerate_admissible_collections(1, 2)[:12]:
        for kappa in positions(col, 5):
            for d in reconstructions(col, kappa, 5, 3, 1):
                assert d.genus() == col.genus()
                assert codegree(d) == col.codeg()
                assert d.is_layered()
                break


def test_reconstruct_infeasible_positions_yield_nothing():
    snk_t = Template(2, (1,), (), (0, 0), (1, 0))
    pair = Template(2, (2,), (), (0, 0), (0, 0))
    # on Delta_{4,0,1} the sink template finds no sink to take, and the top
    # gap carries weight 1, too little for two parallel edges
    for t in (snk_t, pair):
        col = AdmissibleCollection((POINT, t))
        assert list(positions(col, 4)) == [(1, 3)]
        assert list(reconstructions(col, (1, 3), 4, 0, 1)) == []


BIJECTION_TUPLES = [(4, 3, 1, 0, 1), (4, 3, 1, 1, 1), (3, 2, 0, 0, 1), (4, 2, 1, 0, 2)]
EXTRA_TUPLES = [(5, 3, 1, 1, 2), (5, 4, 0, 1, 1), (4, 4, 2, 2, 1)]


@pytest.mark.parametrize("a,b,n,g,i", BIJECTION_TUPLES + EXTRA_TUPLES)
def test_reconstructions_are_their_own_canonical_forms(a, b, n, g, i):
    """verify_bijection compares reconstructed diagrams by key: each is
    layered, so its one topological order makes it its own canonical form."""
    seen = 0
    for col in enumerate_admissible_collections(g, i):
        for kappa in positions(col, a):
            for d in reconstructions(col, kappa, a, b, n):
                assert d.is_layered(), d
                assert canonical_form(d) == d, d
                seen += 1
    assert seen > 0


@pytest.mark.parametrize("a,b,n,g,i", BIJECTION_TUPLES)
def test_bijection_acceptance_tuples(a, b, n, g, i):
    report = verify_bijection(a, b, n, g, i)
    assert report.passed, report.details
    assert report.reconstructed == report.enumerated > 0


@pytest.mark.parametrize("a,b,n,g,i", EXTRA_TUPLES)
def test_bijection_extra_tuples(a, b, n, g, i):
    report = verify_bijection(a, b, n, g, i)
    assert report.passed, report.details


def test_bijection_region_error():
    with pytest.raises(ValueError):
        verify_bijection(4, 0, 1, 0, 1)  # b < i
    with pytest.raises(ValueError):
        verify_bijection(2, 3, 1, 0, 2)  # a <= i


def test_layeredness_in_region():
    """Every class of codegree <= i is layered when a > i and b >= i."""
    for (a, b, n, i) in [(4, 3, 1, 2), (4, 2, 1, 2), (3, 2, 0, 1)]:
        poly = make_delta_abn(a, b, n)
        for g in (0, 1):
            for d in enumerate_floor_diagrams(poly, g, max_codeg=i):
                assert d.is_layered()


def test_template_json():
    t = Template(2, (1,), (), (0, 1), (0, 0))
    data = t.to_json()
    assert data["genus"] == 0 and data["codegree"] == 1
    assert data["short_edges_per_gap"] == [1]


def test_negative_capping_tree_codegree_is_an_engine_fault(monkeypatch):
    monkeypatch.setattr(CappingTree, "codeg", lambda self: -1)
    with pytest.raises(EngineError):
        enumerate_capping_trees(4, 1, 2)


def test_invalid_reconstruction_is_an_engine_fault(monkeypatch):
    monkeypatch.setattr(templates, "validate_diagram", lambda d, p: ["forced"])
    col = AdmissibleCollection((POINT, POINT))
    kappa = next(iter(positions(col, 4)))
    with pytest.raises(EngineError):
        list(reconstructions(col, kappa, 4, 2, 1))
