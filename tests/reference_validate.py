"""Reference feasibility checker for differential tests.

A verbatim copy of the original ``check_feasibility`` and
``_required_variables``, which materialize the whole variable universe as
``VarRef`` objects and check every row over it.  The production checker in
``wsnsched.validate`` must report the same violations and raise the same
index errors on every zero-filled solution with finite values.
"""

from __future__ import annotations

from wsnsched.instance import ArcSets, EnergyTables, Instance
from wsnsched.model import VarRef
from wsnsched.validate import ENERGY_TOL, SolutionIndexError, Violation, _values_of


def _required_variables(instance: Instance, arcs: ArcSets) -> list[VarRef]:
    """The variable universe, re-derived here from the arc sets alone."""
    n = len(instance.sensors)
    T = instance.periods
    G = len(instance.phenomena)
    refs: list[VarRef] = []
    for g in range(G):
        for (i, j) in arcs.coverage[g]:
            for t in range(T):
                refs.append(VarRef("x", (i, j, t, g)))
    for i in range(n):
        for t in range(T):
            refs.append(VarRef("y", (i, t)))
            refs.append(VarRef("w", (i, t)))
            for g in range(G):
                refs.append(VarRef("r", (i, t, g)))
        refs.append(VarRef("e", (i,)))
    stream_arcs = list(arcs.comm) + [(i, n + k) for i, k in arcs.to_sink]
    for g in range(G):
        for l in sorted({i for i, _ in arcs.coverage[g]}):
            for (a, b) in stream_arcs:
                if b == l:
                    continue
                for t in range(T):
                    refs.append(VarRef("z", (l, a, b, t, g)))
    for g in range(G):
        for j in instance.demand_indices(g):
            for t in range(T):
                refs.append(VarRef("h", (j, t, g)))
    return refs


def check_feasibility(instance: Instance, arcs: ArcSets, solution) -> list[Violation]:
    """All violated constraint rows of a solution; empty means feasible.

    Raises :class:`SolutionIndexError` when the solution's variable set is
    not exactly the universe the instance implies (a missing or foreign
    variable is an indexing bug, not an infeasibility).
    """
    values = _values_of(solution)
    required = _required_variables(instance, arcs)
    required_set = set(required)
    for ref in required:
        if ref not in values:
            raise SolutionIndexError(f"solution is missing variable {ref.name}")
    for ref in values:
        if ref not in required_set:
            raise SolutionIndexError(f"solution has foreign variable {ref.name}")

    n = len(instance.sensors)
    T = instance.periods
    G = len(instance.phenomena)
    tables = EnergyTables(instance, arcs)
    v = values.__getitem__
    out: list[Violation] = []

    # C13: binaries take values in {0, 1}.
    for ref in required:
        if ref.kind != "e" and v(ref) not in (0.0, 1.0):
            out.append(Violation(f"C13_{ref.name}", float(v(ref)), "bin", 0.0))

    cover_of: dict[tuple[int, int], list[int]] = {}
    for g in range(G):
        for (i, j) in arcs.coverage[g]:
            cover_of.setdefault((j, g), []).append(i)

    # C2: demanded coverage or penalty.
    for g in range(G):
        for j in instance.demand_indices(g):
            for t in range(T):
                lhs = sum(v(VarRef("x", (i, j, t, g))) for i in cover_of.get((j, g), []))
                lhs += v(VarRef("h", (j, t, g)))
                if not lhs >= 1.0:
                    out.append(Violation(f"C2_j{j}_t{t}_g{g}", lhs, ">=", 1.0))

    # C3: covering requires sensing.
    for g in range(G):
        for (i, j) in arcs.coverage[g]:
            for t in range(T):
                lhs = v(VarRef("x", (i, j, t, g))) - v(VarRef("r", (i, t, g)))
                if not lhs <= 0.0:
                    out.append(Violation(f"C3_i{i}_j{j}_t{t}_g{g}", lhs, "<=", 0.0))

    # C4: sensing requires activity.
    for i in range(n):
        for t in range(T):
            for g in range(G):
                lhs = v(VarRef("r", (i, t, g))) - v(VarRef("y", (i, t)))
                if not lhs <= 0.0:
                    out.append(Violation(f"C4_i{i}_t{t}_g{g}", lhs, "<=", 0.0))

    stream_arcs = list(arcs.comm) + [(i, n + k) for i, k in arcs.to_sink]
    in_s: dict[int, list[tuple[int, int]]] = {j: [] for j in range(n)}
    out_all: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for (a, b) in arcs.comm:
        in_s[b].append((a, b))
    for (a, b) in stream_arcs:
        out_all[a].append((a, b))
    sources = {g: sorted({i for i, _ in arcs.coverage[g]}) for g in range(G)}

    # C5: stream conservation at non-source sensors (sinks absorb).
    for g in range(G):
        for l in sources[g]:
            for t in range(T):
                for j in range(n):
                    if j == l:
                        continue
                    terms = [(a, b) for (a, b) in in_s[j]]
                    outs = [(a, b) for (a, b) in out_all[j] if b != l]
                    if not terms and not outs:
                        continue
                    lhs = sum(v(VarRef("z", (l, a, b, t, g))) for (a, b) in terms)
                    lhs -= sum(v(VarRef("z", (l, a, b, t, g))) for (a, b) in outs)
                    if lhs != 0.0:
                        out.append(Violation(f"C5_l{l}_j{j}_t{t}_g{g}", lhs, "=", 0.0))

    # C6: stream leaves its source iff the source senses.
    for g in range(G):
        src = set(sources[g])
        for l in range(n):
            for t in range(T):
                lhs = 0.0
                if l in src:
                    lhs = sum(v(VarRef("z", (l, a, b, t, g)))
                              for (a, b) in out_all[l] if b != l)
                lhs -= v(VarRef("r", (l, t, g)))
                if lhs != 0.0:
                    out.append(Violation(f"C6_l{l}_t{t}_g{g}", lhs, "=", 0.0))

    # C7/C8: carrying arcs need active endpoints.
    for g in range(G):
        for l in sources[g]:
            for (a, b) in stream_arcs:
                if b == l:
                    continue
                for t in range(T):
                    zv = v(VarRef("z", (l, a, b, t, g)))
                    if zv - v(VarRef("y", (a, t))) > 0.0:
                        out.append(Violation(
                            f"C7_l{l}_i{a}_j{b}_t{t}_g{g}",
                            zv - v(VarRef("y", (a, t))), "<=", 0.0))
                    if b < n and zv - v(VarRef("y", (b, t))) > 0.0:
                        out.append(Violation(
                            f"C8_l{l}_i{a}_j{b}_t{t}_g{g}",
                            zv - v(VarRef("y", (b, t))), "<=", 0.0))

    # C9: drawn energy covers maintenance, activation and traffic.
    for i in range(n):
        lhs = 0.0
        for t in range(T):
            lhs += tables.em * v(VarRef("y", (i, t)))
            lhs += tables.ea * v(VarRef("w", (i, t)))
            for g in range(G):
                for (a, b) in in_s[i]:
                    for l in sources[g]:
                        if l == i:
                            continue
                        lhs += tables.er[g] * v(VarRef("z", (l, a, b, t, g)))
                for (a, b) in out_all[i]:
                    for l in sources[g]:
                        if l == b:
                            continue
                        lhs += tables.et[(a, b)][g] * v(VarRef("z", (l, a, b, t, g)))
        lhs -= v(VarRef("e", (i,)))
        if lhs > ENERGY_TOL:
            out.append(Violation(f"C9_i{i}", lhs, "<=", 0.0))

    # C10: battery bounds.
    for i in range(n):
        ei = v(VarRef("e", (i,)))
        if ei < -ENERGY_TOL:
            out.append(Violation(f"C10_i{i}", ei, ">=", 0.0))
        elif ei > tables.eb + ENERGY_TOL:
            out.append(Violation(f"C10_i{i}", ei, "<=", tables.eb))

    # C11/C12: off-to-on transitions are counted.
    for i in range(n):
        lhs = v(VarRef("w", (i, 0))) - v(VarRef("y", (i, 0)))
        if not lhs >= 0.0:
            out.append(Violation(f"C11_i{i}", lhs, ">=", 0.0))
        for t in range(1, T):
            lhs = (v(VarRef("w", (i, t))) - v(VarRef("y", (i, t)))
                   + v(VarRef("y", (i, t - 1))))
            if not lhs >= 0.0:
                out.append(Violation(f"C12_i{i}_t{t}", lhs, ">=", 0.0))

    return out
