#!/usr/bin/env python3
"""wsnsched benchmark: three workloads timed end to end, with schedule quality.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):

* ``plan``           the CLI ``solve`` + ``render`` path, one op per layout.
* ``ilp_roundtrip``  the external-solver path: model, LP text round trip,
                     imported schedules, validation.
* ``exact_budget``   branch and bound at a fixed node budget, plus the
                     50-instance tiny exact-vs-oracle cross-check.

One process, one thread.  The instance pool is fixed; ``--seed`` orders
the ops of each pass.  Passes repeat until ``--seconds`` would be
exceeded (at least two, so outputs can be compared across passes).
Every op passes correctness gates after its timed section; an op that
fails one, or raises, counts as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate; every public call
gets a span, spans are written to ``.perfbench/trace-<workload>-seed<n>.json``
and the last line carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import bench_common as bc

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
TINY_PAIRS = 50
LAYERS = ("instance", "model", "lp", "solve", "validate", "report")
TIMED_CALLS = (
    "instance.load_instance", "instance.build_arcs",
    "model.variable_universe", "model.build_model",
    "lp.export_lp", "lp.parse_lp",
    "solve.solve_heuristic", "solve.solve_exact", "solve.brute_force_oracle",
    "solve.save_solution", "solve.load_solution", "solve.load_external_solution",
    "validate.check_feasibility", "validate.evaluate",
    "report.save_views",
)
COUNTS = (
    "model.variables", "model.constraints", "lp.bytes", "report.svg_bytes",
    "validate.violations", "solve.solution_values", "solve.solution_nonzeros",
    "instance.stream_arcs", "solve.raw_json_changed", "solve.time_limit_hits",
)


# -- tracing -----------------------------------------------------------------------


class Tracer:
    """Times ops always; records a span per public call only when enabled.

    A span is (id, name, start, end, parent span id, op id); call spans
    have their op's span as parent.  Spans stay in memory until written.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self._op_span = None
        self._op_id = None

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((len(self.spans), name, start, time.perf_counter(),
                               self._op_span, self._op_id))

    def begin_op(self, op_id: str) -> float:
        self._op_id = op_id
        if self.enabled:
            self._op_span = len(self.spans)
            self.spans.append(None)  # placeholder, filled by end_op
        return time.perf_counter()

    def end_op(self, start: float) -> float:
        end = time.perf_counter()
        if self.enabled:
            self.spans[self._op_span] = (self._op_span, f"op.{self._op_id}", start,
                                         end, None, self._op_id)
        self._op_span = self._op_id = None
        return end - start


def span_totals(spans) -> dict[str, float]:
    """Per call name totals, per-layer self time and benchmark glue."""
    totals: Counter = Counter()
    child_time: Counter = Counter()
    for _, name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
            totals[name + "_s"] += end - start
            totals[name.split(".")[0] + ".self_s"] += end - start
    for sid, name, start, end, parent, _ in spans:
        if parent is None:
            totals["op_s"] += end - start
            totals["bench.glue_s"] += (end - start) - child_time[sid]
    return totals


# -- ops ---------------------------------------------------------------------------


@dataclass
class Schedule:
    """Quality of one schedule a workload produced, from ``evaluate``."""

    objective: float
    energy: float
    uncovered: int
    demanded: int
    reference: float | None = None
    certified: bool | None = None


@dataclass
class Outcome:
    op_id: str
    seconds: float = 0.0
    failures: list = field(default_factory=list)
    schedules: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    digest: str = ""
    raw_digest: str = ""


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _count_solution(out: Outcome, solution) -> None:
    out.counts["solve.solution_values"] += len(solution.values)
    out.counts["solve.solution_nonzeros"] += sum(1 for v in solution.values.values() if v)


def _check_metrics(out: Outcome, what: str, metrics) -> None:
    if metrics.objective != metrics.real_objective + metrics.penalty_total:
        out.failures.append(f"{what}: objective != real_objective + penalty_total")


def _schedule(instance, metrics, reference, certified=None) -> Schedule:
    demanded = instance.demanded_triples()
    return Schedule(objective=metrics.objective, energy=metrics.real_objective,
                    uncovered=round(metrics.uncovered_rate * demanded),
                    demanded=demanded, reference=reference, certified=certified)


def _validate(w, call, out: Outcome, what: str, instance, arcs, solution):
    """check_feasibility then evaluate, as the CLI does; None if infeasible."""
    violations = call("validate.check_feasibility", w.check_feasibility,
                      instance, arcs, solution)
    if violations:
        out.counts["validate.violations"] += len(violations)
        out.failures.append(f"{what}: {len(violations)} violation(s), "
                            f"first {violations[0].tag}")
        return None
    return call("validate.evaluate", w.evaluate, instance, solution, arcs)


def _evaluate_only(w, call, out: Outcome, what: str, instance, arcs, solution):
    """evaluate alone: it re-runs the full check and raises on a violation."""
    try:
        return call("validate.evaluate", w.evaluate, instance, solution, arcs)
    except w.InfeasibleSolutionError as exc:
        out.counts["validate.violations"] += len(exc.violations)
        out.failures.append(f"{what}: infeasible ({exc.violations[0].tag})")
        return None


class _LayoutOp:
    """An op on one pool layout.  Set-up writes the instance JSON; the op
    starts by reading it back and deriving arcs, as every CLI command does."""

    def __init__(self, w, layout, workdir: Path, references):
        self.op_id = bc.layout_label(layout)
        self.instance = bc.make_instance(w, layout)
        self.reference = references.get(bc.instance_key(w, self.instance))
        self.dir = workdir / self.op_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.instance_path = self.dir / "instance.json"
        w.save_instance(self.instance, self.instance_path)

    def load(self, w, call, out: Outcome):
        instance = call("instance.load_instance", w.load_instance, self.instance_path)
        arcs = call("instance.build_arcs", w.build_arcs, instance)
        out.counts["instance.stream_arcs"] += len(arcs.comm) + len(arcs.to_sink)
        return instance, arcs


class PlanOp(_LayoutOp):
    """load_instance -> build_arcs -> solve_heuristic -> check_feasibility ->
    evaluate -> save_solution -> load_solution -> save_views, i.e. the
    ``solve`` and ``render`` commands call for call."""

    def __init__(self, w, layout, workdir: Path, references):
        super().__init__(w, layout, workdir, references)
        self.solution_path = self.dir / "solution.json"
        self.views_dir = self.dir / "views"

    def run(self, w, call, out: Outcome):
        instance, arcs = self.load(w, call, out)
        solution = call("solve.solve_heuristic", w.solve_heuristic, instance, arcs)
        metrics = _validate(w, call, out, "heuristic", instance, arcs, solution)
        if metrics is None:
            return
        call("solve.save_solution", w.save_solution, solution, self.solution_path)
        loaded = call("solve.load_solution", w.load_solution, self.solution_path,
                      instance, arcs)
        paths = call("report.save_views", w.save_views, instance, loaded, self.views_dir)
        # Gates and digests, outside the timed section.
        return lambda: self._check(out, metrics, solution, loaded, instance, paths)

    def _check(self, out, metrics, solution, loaded, instance, paths):
        _count_solution(out, solution)
        _count_solution(out, loaded)
        _check_metrics(out, "heuristic", metrics)
        if loaded.values != solution.values:
            out.failures.append("save_solution -> load_solution changed values")
        raw = self.solution_path.read_bytes()
        data = json.loads(raw)
        data.pop("wall_time_s", None)
        svgs = [Path(p).read_bytes() for p in sorted(paths)]
        out.counts["report.svg_bytes"] += sum(len(s) for s in svgs)
        out.raw_digest = _sha(raw)
        schedule = _schedule(instance, metrics, self.reference)
        out.schedules.append(schedule)
        out.digest = _sha(json.dumps([data, [_sha(s) for s in svgs], repr(schedule)],
                                     sort_keys=True))


class IlpOp(_LayoutOp):
    """load_instance -> build_arcs -> variable_universe -> build_model ->
    export_lp -> parse_lp -> export_lp, then two external schedules in
    ``name = value`` text, each through load_external_solution ->
    check_feasibility -> evaluate: the all-penalty probe, and the
    heuristic's schedule (computed during set-up)."""

    def __init__(self, w, layout, workdir: Path, references):
        super().__init__(w, layout, workdir, references)
        inst = self.instance
        probe = {w.VarRef("h", (j, t, g)): 1
                 for g in range(len(inst.phenomena)) for j in inst.demand_indices(g)
                 for t in range(inst.periods)}
        self.probe_path = self.dir / "all_penalty.sol"
        self.probe_path.write_text(bc.schedule_text(probe))
        arcs = w.build_arcs(inst)
        heuristic = w.solve_heuristic(inst, arcs)
        self.heuristic_objective = w.evaluate(inst, heuristic, arcs).objective
        self.heuristic_path = self.dir / "heuristic.sol"
        self.heuristic_path.write_text(bc.schedule_text(heuristic.values))

    def run(self, w, call, out: Outcome):
        inst, arcs = self.load(w, call, out)
        universe = call("model.variable_universe", w.variable_universe, inst, arcs)
        model = call("model.build_model", w.build_model, inst, arcs)
        text = call("lp.export_lp", w.export_lp, model)
        parsed = call("lp.parse_lp", w.parse_lp, text)
        again = call("lp.export_lp", w.export_lp, parsed)
        imported, solutions = {}, []
        for what, path in (("all-penalty", self.probe_path),
                           ("heuristic", self.heuristic_path)):
            solution = call("solve.load_external_solution", w.load_external_solution,
                            path, inst, arcs)
            solutions.append(solution)
            imported[what] = _validate(w, call, out, what, inst, arcs, solution)
        return lambda: self._check(out, universe, model, text, again, imported, solutions)

    def _check(self, out, universe, model, text, again, imported, solutions):
        for solution in solutions:
            _count_solution(out, solution)
        out.counts["model.variables"] += len(model.variables)
        out.counts["model.constraints"] += len(model.constraints)
        out.counts["lp.bytes"] += len(text.encode())
        if tuple(universe) != tuple(model.variables):
            out.failures.append("model variables differ from variable_universe")
        if again != text:
            out.failures.append("LP export -> parse -> export is not byte-identical")
        probe, heuristic = imported["all-penalty"], imported["heuristic"]
        if probe is not None:
            _check_metrics(out, "all-penalty", probe)
            expected = self.instance.penalty_uncovered * self.instance.demanded_triples()
            if not math.isclose(probe.objective, expected, rel_tol=1e-12):
                out.failures.append(f"all-penalty objective {probe.objective} != "
                                    f"penalty x demanded triples {expected}")
        if heuristic is not None:
            _check_metrics(out, "heuristic", heuristic)
            if heuristic.objective != self.heuristic_objective:
                out.failures.append("imported heuristic schedule changed objective")
            schedule = _schedule(self.instance, heuristic, self.reference)
            out.schedules.append(schedule)
        out.digest = _sha(json.dumps([_sha(text), repr(out.schedules)]))


class ExactOp(_LayoutOp):
    """load_instance -> build_arcs -> solve_exact at a fixed node budget ->
    evaluate once."""

    def __init__(self, w, layout, workdir: Path, references):
        super().__init__(w, layout, workdir, references)
        self.config = w.SolveConfig(time_limit_s=bc.TIME_LIMIT_S,
                                    node_limit=bc.NODE_LIMIT)

    def run(self, w, call, out: Outcome):
        instance, arcs = self.load(w, call, out)
        solution, certificate = call("solve.solve_exact", w.solve_exact,
                                     instance, arcs, config=self.config)
        if solution.wall_time_s >= bc.TIME_LIMIT_S:
            out.counts["solve.time_limit_hits"] += 1
            out.failures.append(f"stopped by the {bc.TIME_LIMIT_S} s time limit, "
                                "not the node budget")
        metrics = _evaluate_only(w, call, out, "exact", instance, arcs, solution)
        return lambda: self._check(out, solution, metrics, certificate)

    def _check(self, out, solution, metrics, certificate):
        _count_solution(out, solution)
        if metrics is None:
            return
        _check_metrics(out, "exact", metrics)
        out.schedules.append(_schedule(self.instance, metrics, self.reference,
                                       certified=bool(certificate)))
        out.digest = _sha(repr(out.schedules))


class TinyPairOp:
    """Exact search against the exhaustive oracle on one tiny instance."""

    def __init__(self, w, seed: int):
        self.op_id = f"tiny-{seed}"
        self.instance, self.arcs = tiny_instance(w, seed)

    def run(self, w, call, out: Outcome):
        inst, arcs = self.instance, self.arcs
        exact, certificate = call("solve.solve_exact", w.solve_exact, inst, arcs)
        oracle = call("solve.brute_force_oracle", w.brute_force_oracle, inst, arcs)
        a = _evaluate_only(w, call, out, "exact", inst, arcs, exact)
        b = _evaluate_only(w, call, out, "oracle", inst, arcs, oracle)
        return lambda: self._check(out, (exact, oracle), certificate, a, b)

    def _check(self, out, solutions, certificate, a, b):
        for solution in solutions:
            _count_solution(out, solution)
        if not certificate:
            out.failures.append("exact search hit a limit on a tiny instance")
        if a is None or b is None:
            return
        _check_metrics(out, "exact", a)
        _check_metrics(out, "oracle", b)
        if abs(a.objective - b.objective) > 1e-9 * abs(b.objective):
            out.failures.append(f"exact {a.objective} != oracle {b.objective}")
        out.digest = _sha(repr((a.objective, b.objective)))


def tiny_instance(w, seed: int, max_free: int = 16, max_binaries: int = 40):
    """Random instance small enough for the oracle.

    A frozen copy of ``tests/helpers.py:tiny_instance`` (the acceptance
    suite's oracle-equivalence generator, same RNG stream and bounds).  It
    is copied, not imported, to pin the workload: the benchmark compares a
    change against its parent, so its inputs must not move when the test
    helpers do.  ``test_smoke.py`` reports when the two drift apart.
    Resamples deterministically until the model has at most ``max_free``
    x/z/r and ``max_binaries`` binaries."""
    import numpy as np

    rng = np.random.default_rng(seed)
    for _ in range(64):
        n_sensors = int(rng.integers(2, 4))
        n_dp = int(rng.integers(1, 4))
        periods = int(rng.integers(1, 3))
        extent = 8.0
        sensors = [tuple(rng.uniform(0, extent, 2)) for _ in range(n_sensors)]
        dps = [tuple(rng.uniform(0, extent, 2)) for _ in range(n_dp)]
        sink = tuple(rng.uniform(0, extent, 2))
        battery = 1.3 if rng.random() < 0.3 else 4.0
        radius = float(rng.uniform(1.5, 3.0))
        comm_radius = float(rng.uniform(2.5, 4.0))
        phenomena = (w.Phenomenon(id=0, coverage_radius=radius, sampling_rate=2.0,
                                  bits_per_sample=16),)
        device = w.DeviceProfile(battery_capacity=battery, activation_energy=0.25,
                                 maintenance_energy=0.5, receive_energy_per_bit=1.25e-4,
                                 transmit=w.TransmitModel(base=2.5e-4, distance_coef=0.0))
        instance = w.Instance(
            area=(extent, extent),
            sensors=tuple(w.Point2D(*p) for p in sensors),
            demand_points=tuple(w.DemandPoint(w.Point2D(*p), (0,)) for p in dps),
            sinks=(w.Point2D(*sink),),
            phenomena=phenomena, periods=periods, period_length=60.0,
            comm_radius=comm_radius, device=device,
            penalty_uncovered=w.default_penalty_uncovered(device, phenomena, 60.0,
                                                          comm_radius),
            penalty_activation=0.01, seed=seed,
        )
        arcs = w.build_arcs(instance)
        refs = w.variable_universe(instance, arcs)
        free = sum(1 for ref in refs if ref.kind in ("x", "z", "r"))
        binaries = sum(1 for ref in refs if ref.kind != "e")
        if free <= max_free and binaries <= max_binaries:
            return instance, arcs
    raise RuntimeError(f"no tiny instance found for seed {seed}")


def _plan(w, workdir, refs):
    return [PlanOp(w, lay, workdir, refs) for lay in bc.PLAN_LAYOUTS]


def _ilp(w, workdir, refs):
    return [IlpOp(w, lay, workdir, refs) for lay in bc.ILP_LAYOUTS]


def _exact(w, workdir, refs):
    return ([ExactOp(w, lay, workdir, refs) for lay in bc.EXACT_LAYOUTS]
            + [TinyPairOp(w, seed) for seed in range(TINY_PAIRS)])


WORKLOADS = {"plan": _plan, "ilp_roundtrip": _ilp, "exact_budget": _exact}


# -- passes and metrics -------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    seconds: float
    outcomes: list
    spans: list


def run_pass(w, ops, tracer: Tracer, rng: random.Random, traced: bool) -> Pass:
    order = list(ops)
    rng.shuffle(order)
    tracer.enabled = traced
    first_span = len(tracer.spans)
    outcomes = []
    for op in order:
        out = Outcome(op.op_id)
        check = None
        start = tracer.begin_op(op.op_id)
        try:
            check = op.run(w, tracer.call, out)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out.failures.append(f"raised {type(exc).__name__}: {exc}")
        out.seconds = tracer.end_op(start)
        if check is not None:
            try:
                check()
            except Exception as exc:
                out.failures.append(f"gate raised {type(exc).__name__}: {exc}")
        outcomes.append(out)
    tracer.enabled = False
    return Pass(traced, sum(o.seconds for o in outcomes), outcomes,
                tracer.spans[first_span:])


def compare_passes(passes: list[Pass]) -> None:
    """Determinism gate: every op's outputs (LP text, SVGs, solution JSON
    without wall_time_s, quality numbers) match its first pass.  Also counts
    ops whose raw solution JSON bytes changed, which wall_time_s causes."""
    first = {o.op_id: o for o in passes[0].outcomes}
    for p in passes[1:]:
        for out in p.outcomes:
            ref = first[out.op_id]
            if out.digest != ref.digest and not ref.failures and not out.failures:
                out.failures.append("output differs from the first pass")
            if out.raw_digest != ref.raw_digest:
                out.counts["solve.raw_json_changed"] += 1


def op_median_total(passes: list[Pass]) -> float:
    """Σ over ops of the op's median time across ``passes``.  A stall on
    the host hits one op in one pass; the per-op median drops it."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for out in p.outcomes:
            times.setdefault(out.op_id, []).append(out.seconds)
    return sum(statistics.median(t) for t in times.values())


def import_seconds() -> float:
    """Median time to import wsnsched in a fresh interpreter.  One
    in-process import is a single cold sample; this repeats it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import wsnsched; "
            "print(time.perf_counter() - t)")
    runs = [float(subprocess.run([sys.executable, "-c", code, str(bc.SRC)],
                                 check=True, capture_output=True, text=True,
                                 timeout=120).stdout)
            for _ in range(IMPORT_REPEATS)]
    return statistics.median(runs)


def quality(outcomes) -> dict:
    schedules = [s for o in outcomes for s in o.schedules]
    covered = [s for s in schedules if s.reference is not None]
    certified = [s.certified for s in schedules if s.certified is not None]
    demanded = sum(s.demanded for s in schedules)
    return {
        "objective_sum": sum(s.objective for s in schedules),
        "energy_sum": sum(s.energy for s in schedules),
        "uncovered_rate": (sum(s.uncovered for s in schedules) / demanded
                           if demanded else 0.0),
        "excess_over_ref": sum(s.objective - s.reference for s in covered),
        "ref_covered": len(covered),
        "schedules": len(schedules),
        "certified_share": (sum(certified) / len(certified)) if certified else 0.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p: Pass) -> dict[str, float]:
    totals = span_totals(p.spans)
    counts: Counter = Counter()
    for out in p.outcomes:
        counts.update(out.counts)
    calls = Counter(name for _, name, *_ in p.spans)
    m = {f"{name}_s": totals[f"{name}_s"] for name in TIMED_CALLS}
    m.update({f"{layer}.self_s": totals[f"{layer}.self_s"] for layer in LAYERS})
    m["bench.glue_s"] = totals["bench.glue_s"]
    m.update({name: counts[name] for name in COUNTS})
    m["solve.nonzero_share"] = _ratio(counts["solve.solution_nonzeros"],
                                      counts["solve.solution_values"])
    m["validate.check_over_solve"] = _ratio(
        m["validate.check_feasibility_s"] + m["validate.evaluate_s"],
        m["solve.solve_heuristic_s"])
    m["lp.parse_over_export"] = _ratio(
        _ratio(m["lp.parse_lp_s"], calls["lp.parse_lp"]),
        _ratio(m["lp.export_lp_s"], calls["lp.export_lp"]))
    m["trace.coverage"] = _ratio(sum(totals[f"{layer}.self_s"] for layer in LAYERS),
                                 totals["op_s"])
    return m


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_share", ".coverage")):
        return "share"
    if "_over_" in name:
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wsnsched benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = bc.load_package()
    import_s = import_seconds()
    references = {}
    if bc.REFERENCE_FILE.is_file():
        references = {k: v["objective"] for k, v in
                      json.loads(bc.REFERENCE_FILE.read_text())["optima"].items()}

    bc.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=bc.OUT_DIR))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ops = WORKLOADS[args.workload](w, workdir, references)
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        tracer = Tracer()
        rng = random.Random(args.seed)
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(w, ops, tracer, rng, traced))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p.seconds for p in passes)
            if len(passes) >= 2 and elapsed + typical > args.seconds:
                break
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    compare_passes(passes)
    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failures)
    q = quality(passes[0].outcomes)
    wall_s = op_median_total([p for p in passes if not p.traced])
    prov = bc.provenance(workload=args.workload, seed=args.seed,
                         seconds=args.seconds, passes=len(passes),
                         node_limit=bc.NODE_LIMIT, time_limit_s=bc.TIME_LIMIT_S)

    for o in outcomes:
        for failure in o.failures:
            print(f"FAILED {o.op_id}: {failure}")
    print(f"{args.workload}: {len(passes)} passes in {measured_s:.1f} s, "
          f"{attempted} ops, {failed} failed")
    print("  pass seconds: " + " ".join(
        f"{p.seconds:.3f}{'t' if p.traced else ''}" for p in passes))
    if args.trace:
        traced = [p for p in passes if p.traced]
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name in per_pass[0]}
        metrics["trace.overhead_s"] = op_median_total(traced) - wall_s
        metrics["bench.ref_covered"] = q["ref_covered"]
        metrics["solve.certified_share"] = q["certified_share"]
        trace_path = bc.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "provenance": prov,
            "span_fields": ["id", "name", "start", "end", "parent", "op_id"],
            "spans": tracer.spans}) + "\n")
        print(f"wrote {trace_path.relative_to(bc.ROOT)} ({len(tracer.spans)} spans)")
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_rate": (attempted - failed) / attempted,
            "objective_sum": q["objective_sum"],
            "energy_sum": q["energy_sum"],
            "uncovered_rate": q["uncovered_rate"],
            "excess_over_ref": q["excess_over_ref"],
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                 "ok_rate": "ok/attempted", "objective_sum": "objective",
                 "energy_sum": "energy", "uncovered_rate": "uncovered/demand",
                 "excess_over_ref": "objective"}
        print(f"  setup_s = import {import_s:.4f} s + set-up {setup_s - import_s:.4f} s "
              f"(medians of {IMPORT_REPEATS} and {SETUP_REPEATS})")
        print(f"  error_rate      {failed / attempted:.6g} failed/attempted")
        print(f"  excess_over_ref covers {q['ref_covered']} of {q['schedules']} schedules")
        if args.workload == "exact_budget":
            print(f"  certified_share {q['certified_share']:.6g} of budgeted exact runs")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:.6g} {units[name]}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
