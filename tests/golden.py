"""The paper's worked examples, read from floordiag's golden table."""

from floordiag.cli import paper_examples
from floordiag.laurent import LaurentPoly
from floordiag.polygon import parse_polygon

GOLDEN = paper_examples()


def golden_values(section, polygon):
    """{genus or s: value} of the `invariants` or `descendants` entries for polygon."""
    param = "genus" if section == "invariants" else "s"
    values = {
        e[param]: LaurentPoly.from_json(e["value"])
        for e in GOLDEN[section]
        if parse_polygon(e["polygon"]) == polygon
    }
    assert values, "no %s entries for %s" % (section, polygon.key())
    return values
