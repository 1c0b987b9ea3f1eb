"""The exhaustive oracle as it was before it left the coverage bits x to
the schedule assembler.

That version enumerated every assignment of x, z and r, checked C3 (no x
without its r), C5 and C6 over the whole bit matrix of a batch, and
rebuilt its winner with a scalar completion of its own.
``brute_force_oracle`` below is a verbatim copy of it; only the imports
differ.  ``test_oracle_reference`` compares the package's oracle with it.
"""

from __future__ import annotations

import math
import time

from wsnsched.instance import ArcSets, Instance, arcs_for
from wsnsched.model import VarRef, variable_universe
from wsnsched.solve import BATTERY_TOL, ORACLE_CAP_DEFAULT, OracleCapExceeded, Solution


def brute_force_oracle(
    instance: Instance,
    arcs: ArcSets | None = None,
    cap: int = ORACLE_CAP_DEFAULT,
) -> Solution:
    """Optimal solution by exhaustive enumeration.

    Enumerates every assignment of the independent binaries (x, z, r) and
    derives the forced completion of the dependent ones: y is the minimal
    activity pattern consistent with the assignment, w its transitions, h
    the uncovered indicators, e the accounted energy.  When activation
    energy does not exceed maintenance energy, or there are fewer than
    three periods, some optimal solution always has this shape, so the
    enumeration loses nothing.  Otherwise keeping a sensor on through an
    idle period can save a switch-on, and the result is optimal only among
    schedules with minimal activity.  Ties go to
    the lexicographically smallest (x, z, r) assignment in model variable
    order, and with positive fixed energies the completion is the unique
    optimal one.

    Raises :class:`OracleCapExceeded` when the model has more than ``cap``
    binary variables (enumeration time grows as 2^free).
    """
    import numpy as np

    arcs = arcs_for(instance, arcs)
    t0 = time.perf_counter()
    universe = variable_universe(instance, arcs)
    n_binary = sum(1 for ref in universe if ref.kind != "e")
    if n_binary > cap:
        raise OracleCapExceeded(
            f"instance has {n_binary} binary variables, oracle cap is {cap}"
        )
    tables = arcs.tables
    n = len(instance.sensors)
    T = instance.periods
    G = len(instance.phenomena)

    free = [ref for ref in universe if ref.kind in ("x", "z", "r")]
    col = {ref: k for k, ref in enumerate(free)}
    nf = len(free)

    demanded = [
        (j, t, g)
        for g in range(G)
        for j in instance.demand_indices(g)
        for t in range(T)
    ]
    cover_cols: dict[tuple[int, int, int], list[int]] = {key: [] for key in demanded}
    for ref in free:
        if ref.kind == "x":
            i, j, t, g = ref.indices
            if (j, t, g) in cover_cols:
                cover_cols[(j, t, g)].append(col[ref])
    # C5/C6 rows as free-column index lists.
    c5_rows: list[tuple[list[int], list[int]]] = []
    c6_rows: list[tuple[list[int], int]] = []
    for g in range(G):
        src = set(arcs.sources[g])
        for l in arcs.sources[g]:
            for t in range(T):
                for j in range(n):
                    if j == l:
                        continue
                    ins = [col[VarRef("z", (l, a, b, t, g))] for (a, b) in arcs.in_arcs[j]]
                    outs = [col[VarRef("z", (l, a, b, t, g))]
                            for (a, b) in arcs.out_arcs[j] if b != l]
                    if ins or outs:
                        c5_rows.append((ins, outs))
        for l in range(n):
            for t in range(T):
                outs = []
                if l in src:
                    outs = [col[VarRef("z", (l, a, b, t, g))]
                            for (a, b) in arcs.out_arcs[l] if b != l]
                c6_rows.append((outs, col[VarRef("r", (l, t, g))]))

    x_pairs = []  # C3: x column with its matching r column
    for ref in free:
        if ref.kind == "x":
            i, j, t, g = ref.indices
            x_pairs.append((col[ref], col[VarRef("r", (i, t, g))]))

    # Which free columns force a sensor active at (i, t), and what each
    # chosen column costs each sensor.
    act_cols: dict[tuple[int, int], list[int]] = {
        (i, t): [] for i in range(n) for t in range(T)
    }
    energy_coef: list[dict[int, float]] = [dict() for _ in range(n)]
    for ref in free:
        if ref.kind == "r":
            i, t, g = ref.indices
            act_cols[(i, t)].append(col[ref])
        elif ref.kind == "z":
            l, a, b, t, g = ref.indices
            c = col[ref]
            act_cols[(a, t)].append(c)
            energy_coef[a][c] = energy_coef[a].get(c, 0.0) + tables.et[(a, b)][g]
            if b < n:
                act_cols[(b, t)].append(c)
                energy_coef[b][c] = energy_coef[b].get(c, 0.0) + tables.er[g]

    r_cols_all = [col[ref] for ref in free if ref.kind == "r"]

    best_code = None
    best_obj = math.inf
    batch_bits = min(nf, 20)
    total = 1 << nf
    shifts = np.array([nf - 1 - k for k in range(nf)], dtype=np.uint64)
    for start in range(0, total, 1 << batch_bits):
        stop = min(total, start + (1 << batch_bits))
        codes = np.arange(start, stop, dtype=np.uint64)
        bits = ((codes[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
        feas = np.ones(len(codes), dtype=bool)

        for xc, rc in x_pairs:  # C3
            feas &= bits[:, xc] <= bits[:, rc]
        for ins, outs in c5_rows:  # C5
            lhs = bits[:, ins].sum(axis=1, dtype=np.int32) if ins else 0
            rhs = bits[:, outs].sum(axis=1, dtype=np.int32) if outs else 0
            feas &= lhs == rhs
        for outs, rc in c6_rows:  # C6
            lhs = bits[:, outs].sum(axis=1, dtype=np.int32) if outs else 0
            feas &= lhs == bits[:, rc]

        # Forced completion: activity, transitions, energy, uncovered.
        y = np.zeros((len(codes), n, T), dtype=bool)
        for (i, t), cols in act_cols.items():
            if cols:
                y[:, i, t] = bits[:, cols].any(axis=1)
        w = np.zeros_like(y)
        w[:, :, 0] = y[:, :, 0]
        if T > 1:
            w[:, :, 1:] = y[:, :, 1:] & ~y[:, :, :-1]
        obj = np.zeros(len(codes), dtype=np.float64)
        for i in range(n):
            e_i = tables.em * y[:, i, :].sum(axis=1) + tables.ea * w[:, i, :].sum(axis=1)
            cmap = energy_coef[i]
            if cmap:
                cols = sorted(cmap)
                coefs = np.array([cmap[c] for c in cols])
                e_i = e_i + bits[:, cols].astype(np.float64) @ coefs
            feas &= e_i <= tables.eb + BATTERY_TOL  # C10
            obj += e_i
        for key, cols in cover_cols.items():
            covered = (bits[:, cols].any(axis=1) if cols
                       else np.zeros(len(codes), dtype=bool))
            obj += tables.eh * (~covered)
        if r_cols_all and tables.eg:
            obj += tables.eg * bits[:, r_cols_all].sum(axis=1)

        obj[~feas] = math.inf
        k = int(np.argmin(obj))
        if obj[k] < best_obj:
            best_obj = float(obj[k])
            best_code = int(codes[k])

    assert best_code is not None  # the all-zero assignment is always feasible

    # Rebuild the winner in exact scalar arithmetic.
    best = [(best_code >> (nf - 1 - k)) & 1 for k in range(nf)]
    values = {ref: 1 for ref, bit in zip(free, best) if bit}
    y_set = set()
    for (i, t), cols in act_cols.items():
        if any(best[c] for c in cols):
            y_set.add((i, t))
            values[VarRef("y", (i, t))] = 1
    objective = 0.0
    for i in range(n):
        energy = 0.0
        prev = False
        for t in range(T):
            cur = (i, t) in y_set
            if cur:
                energy += tables.em
                if not prev:
                    values[VarRef("w", (i, t))] = 1
                    energy += tables.ea
            prev = cur
        for c, coef in sorted(energy_coef[i].items()):
            if best[c]:
                energy += coef
        if energy:
            values[VarRef("e", (i,))] = energy
        objective += energy
    for (j, t, g), cols in cover_cols.items():
        if not any(best[c] for c in cols):
            values[VarRef("h", (j, t, g))] = 1
            objective += tables.eh
    for ref, bit in zip(free, best):
        if ref.kind == "r" and bit:
            objective += tables.eg

    return Solution(values=values, provenance="oracle",
                    wall_time_s=time.perf_counter() - t0, objective=objective)
