"""The improvement pass after a construction, priced the naive way.

``polish`` below drops, one at a time, the sensing triple whose removal
saves the most, as ``wsnsched.solve._polish`` does, but keeps no counts:
for every candidate it assembles the schedule with and without it and
reads activity, switch-ons, uncovered demand and energies from the two
assignments.  It prices a drop with the package's formula, in the same
order of terms, and breaks ties the same way, so the two must choose the
same drops.  The differential test in ``test_polish_reference`` compares
the counts and their updates; the assembler is shared.
"""

from __future__ import annotations

from wsnsched.solve import BATTERY_TOL, _assemble, _charges, _Structures


def _read(s: _Structures, flows):
    """(active pairs, switch-ons, uncovered triples, energies) of a schedule."""
    values = _assemble(s, flows, "reference", 0.0).values
    kinds = {"y": set(), "w": set(), "h": set()}
    energy = [0.0] * s.n
    for ref in values:
        if ref.kind in kinds:
            kinds[ref.kind].add(ref.indices)
        elif ref.kind == "e":
            energy[ref.indices[0]] = values[ref]
    return kinds["y"], kinds["w"], kinds["h"], energy


def polish(s: _Structures, flows):
    """Drop redundant sensing while a drop saves; returns the schedule."""
    tb = s.tables
    cap = tb.eb + BATTERY_TOL
    flows = dict(flows)
    while True:
        y, w, h, energy = _read(s, flows)
        best = None
        for key in sorted(flows):
            rest_flows = {k: v for k, v in flows.items() if k != key}
            y2, w2, h2, energy2 = _read(s, rest_flows)
            if h2 != h:
                continue  # the drop uncovers a demanded point
            if any(e2 > cap and e2 > e for e, e2 in zip(energy, energy2)):
                continue  # the drop raises a sensor above its battery
            stream = sum(_charges(s, key[2], flows.get(key, ())).values())
            removed, created = len(w - w2), len(w2 - w)
            saving = tb.eg + stream + tb.em * len(y - y2) + tb.ea * (removed - created)
            if saving > 0 and (best is None or saving > best[0]):
                best = (saving, key)
        if best is None:
            return flows
        flows.pop(best[1], None)
