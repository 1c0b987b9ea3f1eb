#!/usr/bin/env python3
"""Prove reference optima for the benchmark's instance pool with HiGHS.

Untimed and separate from the benchmark.  Each distinct instance of the
plan, ilp_roundtrip and exact_budget pools is exported as an ``IlpModel``
and handed to HiGHS through ``scipy.optimize.milp``.  A result is stored
only if HiGHS proves it optimal and the assignment, read back through
``load_external_solution``, passes ``check_feasibility``.  The stored
objective is the validator's (``evaluate``), so it compares like for like
with the benchmark's ``objective_sum``.  Results are keyed by instance
content, so a changed generator simply stops matching.

    python3 perfbench/reference.py

writes perfbench/reference_optima.json, with a HiGHS time limit of
``bench_common.REFERENCE_TIME_LIMIT_S`` per instance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import bench_common as bc


def _load_highs():
    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csr_matrix
    except ImportError as exc:
        raise SystemExit(f"error: HiGHS needs scipy.optimize.milp: {exc}")
    return np, Bounds, LinearConstraint, milp, csr_matrix


def solve_highs(model):
    """Solve an IlpModel with HiGHS; returns (scipy result, seconds)."""
    np, Bounds, LinearConstraint, milp, csr_matrix = _load_highs()
    index = model.variable_index
    n = len(model.variables)
    cost = np.zeros(n)
    for ref, coef in model.objective:
        cost[index[ref]] += coef
    rows, cols, vals = [], [], []
    lower = np.full(len(model.constraints), -np.inf)
    upper = np.full(len(model.constraints), np.inf)
    for k, con in enumerate(model.constraints):
        for ref, coef in con.terms:
            rows.append(k)
            cols.append(index[ref])
            vals.append(coef)
        if con.sense in (">=", "="):
            lower[k] = con.rhs
        if con.sense in ("<=", "="):
            upper[k] = con.rhs
    matrix = csr_matrix((vals, (rows, cols)), shape=(len(model.constraints), n))
    lb, ub = np.zeros(n), np.ones(n)
    for ref, lo, hi in model.bounds:
        lb[index[ref]], ub[index[ref]] = lo, hi
    integrality = np.array([int(model.is_binary(ref)) for ref in model.variables])
    start = time.perf_counter()
    result = milp(cost, constraints=LinearConstraint(matrix, lower, upper),
                  integrality=integrality, bounds=Bounds(lb, ub),
                  options={"time_limit": bc.REFERENCE_TIME_LIMIT_S, "mip_rel_gap": 0.0,
                           "disp": False})
    return result, time.perf_counter() - start


def reference_for(w, layout, scratch: str) -> dict | None:
    instance = bc.make_instance(w, layout)
    arcs = w.build_arcs(instance)
    model = w.build_model(instance, arcs)
    result, seconds = solve_highs(model)
    label = bc.layout_label(layout)
    if result.status != 0:
        print(f"{label}: not proven in {seconds:.1f} s ({result.message})")
        return None
    path = os.path.join(scratch, "highs.sol")
    values = {ref: float(x) for ref, x in zip(model.variables, result.x)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bc.schedule_text(values))
    solution = w.load_external_solution(path, instance, arcs)
    violations = w.check_feasibility(instance, arcs, solution)
    if violations:
        print(f"{label}: HiGHS assignment rejected ({violations[0].tag})")
        return None
    objective = w.evaluate(instance, solution, arcs).objective
    print(f"{label}: proven {objective} in {seconds:.1f} s")
    return {"label": label, "objective": objective,
            "highs_objective": float(result.fun), "highs_seconds": round(seconds, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    w = bc.load_package()
    _load_highs()
    layouts = list(dict.fromkeys(bc.PLAN_LAYOUTS + bc.ILP_LAYOUTS + bc.EXACT_LAYOUTS))
    optima = {}
    bc.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bc.OUT_DIR) as scratch:
        for layout in layouts:
            entry = reference_for(w, layout, scratch)
            if entry is not None:
                optima[bc.instance_key(w, bc.make_instance(w, layout))] = entry
    data = {"provenance": bc.provenance(solver="HiGHS via scipy.optimize.milp",
                                        time_limit_s=bc.REFERENCE_TIME_LIMIT_S),
            "optima": optima}
    with open(bc.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {bc.REFERENCE_FILE}: {len(optima)} of {len(layouts)} instances proven")
    return 0


if __name__ == "__main__":
    sys.exit(main())
