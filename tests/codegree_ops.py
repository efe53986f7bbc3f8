"""The codegree-reducing operations on floor diagrams.

The paper uses the slides A+ and A- and the swaps B^l and B^r as a proof
device: each one lowers the codegree, which shows that small-codegree
classes are layered and rebuilt from templates.  floordiag checks that
conclusion directly (templates.verify_bijection), so only the tests apply
the operations; each result is validated and returned in canonical form.
"""

from typing import Tuple

from floordiag.diagram import FloorDiagram, canonical_form, validate
from floordiag.laurent import EngineError

EdgeRef = Tuple[str, int, int]  # ("elev", index, 0) | ("src", floor, copy) | ("snk", floor, copy)


def _consecutive(diagram: FloorDiagram, v1: int, v2: int) -> bool:
    """v2 covers v1 in the floor order induced by reachability."""
    # above[v]: bitmask of the floors reachable from v; the elevators are
    # sorted, so those leaving higher floors come first in reverse
    above = [0] * diagram.n_floors
    for i, j, _ in reversed(diagram.elevators):
        above[i] |= 1 << j | above[j]
    if not above[v1] >> v2 & 1:
        return False
    return not any(above[w] >> v2 & 1 for w in range(diagram.n_floors) if above[v1] >> w & 1)


def _rebuild(floors, elevators) -> FloorDiagram:
    d = FloorDiagram(tuple(floors), tuple(elevators))
    poly = d.newton_polygon()
    errs = validate(d, poly)
    if errs:
        raise EngineError("operation produced an invalid diagram: " + "; ".join(errs))
    return canonical_form(d)


def _op_A(diagram: FloorDiagram, e1_index: int, e2: EdgeRef, side: int) -> FloorDiagram:
    """Slide e2 along an elevator e1 from v1 to v2: for A+ (side 0) an
    elevator or sink leaving v1 moves its tail up to v2, for A- (side 1) an
    elevator or source ending at v2 moves its head down to v1."""
    v1, v2, w1 = diagram.elevators[e1_index]
    here, there = (v1, v2) if side == 0 else (v2, v1)
    name, tag, monovalent, at, leaving, other = (
        ("A+", "snk", "sink", "v1", "leaving v1", "v2"),
        ("A-", "src", "source", "v2", "ending at v2", "v1"),
    )[side]
    elevs = list(diagram.elevators)
    floors = [list(f) for f in diagram.floors]
    kind, idx, _ = e2
    if kind == "elev":
        i, j, w2 = elevs[idx]
        ends = [i, j]
        if idx == e1_index or ends[side] != here or ends[1 - side] == there:
            raise ValueError("%s needs a second elevator %s, not adjacent to %s"
                             % (name, leaving, other))
        ends[side] = there
        if ends[0] > ends[1]:
            raise ValueError("%s would reverse an elevator (configuration not of the %s shape)"
                             % (name, name))
        elevs[idx] = (ends[0], ends[1], w2)
    elif kind == tag:
        column = 3 - side  # sinks, or sources
        if floors[idx][column] <= 0 or idx != here:
            raise ValueError("%s needs a %s at %s" % (name, monovalent, at))
        w2 = 1
        floors[here][column] -= 1
        floors[there][column] += 1
    else:
        raise ValueError("%s moves an elevator or %s %s" % (name, monovalent, leaving))
    elevs[e1_index] = (v1, v2, w1 + w2)
    return _rebuild([tuple(f) for f in floors], elevs)


def op_A_plus(diagram: FloorDiagram, e1_index: int, e2: EdgeRef) -> FloorDiagram:
    """Slide an elevator or sink leaving v1 up to v2 along an elevator e1 from v1 to v2."""
    return _op_A(diagram, e1_index, e2, 0)


def op_A_minus(diagram: FloorDiagram, e1_index: int, e2: EdgeRef) -> FloorDiagram:
    """Slide an elevator or source ending at v2 down to v1 along an elevator e1 from v1 to v2."""
    return _op_A(diagram, e1_index, e2, 1)


def _op_B(diagram: FloorDiagram, v1: int, v2: int, side: int) -> FloorDiagram:
    """Swap the l (side 0) or r (side 1) labels of consecutive floors v1 < v2
    and add their difference to the elevator joining them."""
    name = "B^" + "lr"[side]
    if not _consecutive(diagram, v1, v2):
        raise ValueError(name + " needs consecutive floors")
    x1, x2 = diagram.floors[v1][side], diagram.floors[v2][side]
    delta = x2 - x1 if side == 0 else x1 - x2
    if delta <= 0:
        raise ValueError(name + (" needs l(v1) < l(v2)", " needs r(v1) > r(v2)")[side])
    # v2 covers v1 in the reachability order, so an elevator joins them
    link = next(k for k, (i, j, _) in enumerate(diagram.elevators) if (i, j) == (v1, v2))
    floors = [list(f) for f in diagram.floors]
    floors[v1][side], floors[v2][side] = x2, x1
    elevs = list(diagram.elevators)
    i, j, w = elevs[link]
    elevs[link] = (i, j, w + delta)
    return _rebuild([tuple(f) for f in floors], elevs)


def op_B_l(diagram: FloorDiagram, v1: int, v2: int) -> FloorDiagram:
    """Swap the l labels of consecutive floors v1 < v2 with l(v1) < l(v2)."""
    return _op_B(diagram, v1, v2, 0)


def op_B_r(diagram: FloorDiagram, v1: int, v2: int) -> FloorDiagram:
    """Swap the r labels of consecutive floors v1 < v2 with r(v1) > r(v2)."""
    return _op_B(diagram, v1, v2, 1)
