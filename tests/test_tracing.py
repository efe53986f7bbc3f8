"""The benchmark tracer (perfbench/spans.py) rebinds engine functions by
name, so a rename in the engine breaks the traced benchmark run; these
tests install it on the imported floordiag modules to catch that here."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from floordiag import cli, coeff, diagram, invariant, laurent, marking, polyfit, templates
from floordiag.polygon import make_delta_abn, make_delta_d

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_invariant_counts_one_miss_and_every_class(monkeypatch):
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    spans = load_spans()
    polygon = make_delta_d(4)
    expected = invariant.refined_invariant(polygon, 1)
    classes = len(diagram.enumerate_floor_diagrams(polygon, 1))
    original = invariant.refined_invariant
    fd = SimpleNamespace(diagram=diagram, marking=marking, laurent=laurent,
                         invariant=invariant, coeff=coeff, polyfit=polyfit,
                         templates=templates, cli=cli)
    tracer = spans.Tracer()
    spans.install(tracer, fd)
    try:
        value = invariant.refined_invariant(polygon, 1)
    finally:
        tracer.uninstall()
    assert invariant.refined_invariant is original
    assert value == expected
    metrics = spans.layer_metrics(tracer, 1.0, 0)
    assert metrics["invariant.cache_misses"] == 1
    assert metrics["invariant.cache_hits"] == 0
    assert metrics["diagram.classes"] == classes
    # enumerate_floor_diagrams hands each class's automorphism count over
    assert metrics["diagram.auts_calls"] == 0


def test_traced_codegree_coeff_lists_no_shape(monkeypatch):
    # the spans still find every name they rebind, and the transfer reaches
    # neither the shape sum nor the coefficients of a shape's product
    monkeypatch.setenv("FLOORDIAG_CACHE_DIR", "")
    spans = load_spans()
    polygon = make_delta_abn(8, 3, 2)
    expected = invariant.invariant_codegree_coeff(polygon, 2, 2)
    fd = SimpleNamespace(diagram=diagram, marking=marking, laurent=laurent,
                         invariant=invariant, coeff=coeff, polyfit=polyfit,
                         templates=templates, cli=cli)
    tracer = spans.Tracer()
    spans.install(tracer, fd)
    try:
        value = invariant.invariant_codegree_coeff(polygon, 2, 2)
    finally:
        tracer.uninstall()
    assert value == expected
    metrics = spans.layer_metrics(tracer, 1.0, 0)
    assert metrics["invariant.cache_hits"] == 0
    assert metrics["diagram.shapes"] == 0
    assert metrics["diagram.sweep_calls"] == 0
    assert metrics["coeff.squares_calls"] == 0
