"""Independent feasibility checking and solution metrics.

This module re-derives every constraint family directly from the instance
and its arc sets rather than reading them out of a built model, so model
construction bugs and solver bugs cannot cancel each other out.  The arc
sets supply the stream network (``arcs.stream`` in comm-then-sink order,
per-node ``in_arcs`` and ``out_arcs``, ``sources``, ``covering``) and the
energy tables, all derived from the geometry alone; the rows, their order
and the membership predicates are written here.  Binary
rows are checked exactly; only the energy accounting row and the battery
bounds use a small absolute tolerance, and a non-finite energy never
passes them.

A solution lists its nonzero values only; a variable it leaves out reads
as 0.  :func:`check_feasibility` makes one pass over those values.  It
files each value under its kind, keyed by the bare index tuple, so the
rows read plain tuple-keyed dicts instead of hashing ``VarRef`` objects.
Membership in the universe is a predicate per kind over the same arc sets
(coverage pairs, stream sources and arcs, demanded points, index ranges),
so the universe itself is never built; it is walked in order only to list
fractional binaries (C13), or every stream variable when an activity value
is negative (C7/C8).  The other stream rows visit only the nonzero stream
variables, since a zero term adds an exact zero to any row sum; every
other row keeps its loop and summation order over all the indices the
instance implies, so reports are the same, value for value, as those of
a checker that walks the full universe of a zero-filled solution.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .instance import ArcSets, Instance, arcs_for
from .model import VarRef

# Absolute slack on the energy rows (C9, C10).  It is the acceptance bound
# for schedules from external LP solvers, whose energies are only as exact
# as their own feasibility tolerance; anything the package's solvers emit
# passes it, since they keep within solve.BATTERY_TOL (1e-9).
ENERGY_TOL = 1e-6
_BINARY = frozenset((0.0, 1.0))


class SolutionIndexError(Exception):
    """The solution's variables do not match the instance at all."""


class InfeasibleSolutionError(Exception):
    """Raised by :func:`evaluate` when the solution violates a constraint."""

    def __init__(self, violations):
        super().__init__(f"solution violates {len(violations)} constraint(s), "
                         f"first: {violations[0].tag}")
        self.violations = violations


@dataclass(frozen=True)
class Violation:
    """One violated constraint row: ``lhs sense rhs`` does not hold.

    ``sense`` is ``<=``, ``>=``, ``=`` or ``bin`` (a binary variable took a
    fractional value; ``lhs`` is that value).  A NaN ``lhs`` has slack
    ``-inf``, so every violation has negative slack.
    """

    tag: str
    lhs: float
    sense: str
    rhs: float

    @property
    def slack(self) -> float:
        if self.sense == "<=":
            slack = self.rhs - self.lhs
        elif self.sense == ">=":
            slack = self.lhs - self.rhs
        elif self.sense == "=":
            slack = -abs(self.lhs - self.rhs)
        else:
            slack = -min(abs(self.lhs), abs(self.lhs - 1.0))
        return -math.inf if math.isnan(slack) else slack

    def to_json(self) -> dict:
        return {"tag": self.tag, "lhs": self.lhs, "sense": self.sense,
                "rhs": self.rhs, "slack": self.slack}


@dataclass(frozen=True)
class Metrics:
    """Evaluation of a feasible solution."""

    objective: float
    real_objective: float
    penalty_total: float
    uncovered_rate: float
    per_sensor_energy: tuple[float, ...]
    activations: int


def _values_of(solution) -> dict:
    # Accept either a Solution-like object or a bare {VarRef: value} dict.
    if isinstance(solution, dict):
        return solution
    return solution.values


class _Universe:
    """The variable universe of (instance, arcs) as membership predicates.

    ``member[kind](indices)`` says whether a variable belongs to the
    universe, and :meth:`walk` yields its variables as ``(kind, indices)``
    in the order the checker reports them.  Everything is re-derived here
    from the arc sets alone.
    """

    def __init__(self, instance: Instance, arcs: ArcSets):
        n = len(instance.sensors)
        T = instance.periods
        G = len(instance.phenomena)
        self.n, self.T, self.G = n, T, G
        self.arcs = arcs
        self.demand = {g: instance.demand_indices(g) for g in range(G)}

        sensors, periods, phenomena = range(n), range(T), range(G)
        cover = {g: set(pairs) for g, pairs in enumerate(arcs.coverage)}
        src = {g: set(ls) for g, ls in enumerate(arcs.sources)}
        stream = set(arcs.stream)
        demand = {g: set(js) for g, js in self.demand.items()}

        def active(k):  # y and w: (i, t)
            return len(k) == 2 and k[0] in sensors and k[1] in periods

        self.member = {
            "x": lambda k: (len(k) == 4 and (k[0], k[1]) in cover.get(k[3], ())
                            and k[2] in periods),
            "y": active,
            "z": lambda k: (len(k) == 5 and k[0] in src.get(k[4], ())
                            and (k[1], k[2]) in stream and k[2] != k[0]
                            and k[3] in periods),
            "w": active,
            "r": lambda k: (len(k) == 3 and k[0] in sensors and k[1] in periods
                            and k[2] in phenomena),
            "h": lambda k: len(k) == 3 and k[0] in demand.get(k[2], ()) and k[1] in periods,
            "e": lambda k: len(k) == 1 and k[0] in sensors,
        }

    def walk(self):
        n, T, G, arcs = self.n, self.T, self.G, self.arcs
        for g in range(G):
            for (i, j) in arcs.coverage[g]:
                for t in range(T):
                    yield "x", (i, j, t, g)
        for i in range(n):
            for t in range(T):
                yield "y", (i, t)
                yield "w", (i, t)
                for g in range(G):
                    yield "r", (i, t, g)
            yield "e", (i,)
        for g in range(G):
            for l in arcs.sources[g]:
                for (a, b) in arcs.stream:
                    if b == l:
                        continue
                    for t in range(T):
                        yield "z", (l, a, b, t, g)
        for g in range(G):
            for j in self.demand[g]:
                for t in range(T):
                    yield "h", (j, t, g)

    def index_error(self, values) -> SolutionIndexError:
        """The error naming the first foreign variable of ``values``."""
        for ref in values:
            member = self.member.get(ref.kind)
            if member is None:
                return SolutionIndexError(
                    f"solution has foreign variable of unknown kind {ref.kind!r}")
            if not member(ref.indices):
                return SolutionIndexError(f"solution has foreign variable {ref.name}")
        raise AssertionError("unreachable: every variable is in the universe")


def check_feasibility(instance: Instance, arcs: ArcSets, solution) -> list[Violation]:
    """All violated constraint rows of a solution; empty means feasible.

    A variable the solution leaves out reads as 0.  Raises
    :class:`SolutionIndexError` when the solution holds a variable outside
    the universe the instance implies (a foreign variable is an indexing
    bug, not an infeasibility).
    """
    values = _values_of(solution)
    arcs = arcs_for(instance, arcs)
    universe = _Universe(instance, arcs)
    parts: dict[str, dict[tuple, float]] = {kind: {} for kind in universe.member}
    try:
        for ref, val in values.items():
            parts[ref.kind][ref.indices] = val
    except KeyError:
        raise universe.index_error(values) from None
    if not all(all(map(universe.member[kind], part)) for kind, part in parts.items()):
        raise universe.index_error(values)
    X, Y, Z, W, R, H, E = (parts[kind] for kind in "xyzwrhe")

    n, T, G = universe.n, universe.T, universe.G
    tables = arcs.tables
    out: list[Violation] = []

    # C13: binaries take values in {0, 1}.
    if any(not set(part.values()) <= _BINARY for kind, part in parts.items() if kind != "e"):
        for kind, idx in universe.walk():
            val = parts[kind].get(idx, 0)
            if kind != "e" and val not in _BINARY:
                out.append(Violation(f"C13_{VarRef(kind, idx).name}", float(val), "bin", 0.0))

    # C2: demanded coverage or penalty.
    for g in range(G):
        for j in universe.demand[g]:
            for t in range(T):
                lhs = sum(X.get((i, j, t, g), 0) for i in arcs.covering[g][j])
                lhs += H.get((j, t, g), 0)
                if not lhs >= 1.0:
                    out.append(Violation(f"C2_j{j}_t{t}_g{g}", lhs, ">=", 1.0))

    # C3: covering requires sensing.
    for g in range(G):
        for (i, j) in arcs.coverage[g]:
            for t in range(T):
                lhs = X.get((i, j, t, g), 0) - R.get((i, t, g), 0)
                if not lhs <= 0.0:
                    out.append(Violation(f"C3_i{i}_j{j}_t{t}_g{g}", lhs, "<=", 0.0))

    # C4: sensing requires activity.
    for i in range(n):
        for t in range(T):
            for g in range(G):
                lhs = R.get((i, t, g), 0) - Y.get((i, t), 0)
                if not lhs <= 0.0:
                    out.append(Violation(f"C4_i{i}_t{t}_g{g}", lhs, "<=", 0.0))

    stream, in_arcs, out_arcs = arcs.stream, arcs.in_arcs, arcs.out_arcs
    arc_pos = {arc: p for p, arc in enumerate(stream)}

    # The stream rows C5 and C7-C9 visit only nonzero z, in (g, l, arc, t)
    # order: with the instance's finite energy constants, a zero z adds an
    # exact zero to every sum it appears in.
    def z_order(k):
        return k[4], k[0], arc_pos[k[1], k[2]], k[3]

    flows = sorted((k for k, val in Z.items() if val), key=z_order)

    # C5: stream conservation at non-source sensors (sinks absorb).
    touched: dict[tuple[int, int, int], set[int]] = {}
    for (l, a, b, t, g) in flows:
        nodes = touched.setdefault((g, l, t), set())
        nodes.add(a)
        if b < n:
            nodes.add(b)
    for (g, l, t) in sorted(touched):
        for j in sorted(touched[g, l, t]):
            if j == l:
                continue
            lhs = sum(Z.get((l, a, b, t, g), 0) for (a, b) in in_arcs[j])
            lhs -= sum(Z.get((l, a, b, t, g), 0) for (a, b) in out_arcs[j] if b != l)
            if lhs != 0.0:
                out.append(Violation(f"C5_l{l}_j{j}_t{t}_g{g}", lhs, "=", 0.0))

    # C6: stream leaves its source iff the source senses.
    for g in range(G):
        src = set(arcs.sources[g])
        for l in range(n):
            for t in range(T):
                lhs = 0.0
                if l in src:
                    lhs = sum(Z.get((l, a, b, t, g), 0) for (a, b) in out_arcs[l] if b != l)
                lhs -= R.get((l, t, g), 0)
                if lhs != 0.0:
                    out.append(Violation(f"C6_l{l}_t{t}_g{g}", lhs, "=", 0.0))

    # C7/C8: carrying arcs need active endpoints.  A zero z can break them
    # only against a negative activity value, so then every z of the
    # universe is visited, present or not.
    carriers = flows
    if any(yv < 0 for yv in Y.values()):
        carriers = [idx for kind, idx in universe.walk() if kind == "z"]
    for (l, a, b, t, g) in carriers:
        zv = Z.get((l, a, b, t, g), 0)
        ya, yb = Y.get((a, t), 0), Y.get((b, t), 0)
        if zv - ya > 0.0:
            out.append(Violation(f"C7_l{l}_i{a}_j{b}_t{t}_g{g}", zv - ya, "<=", 0.0))
        if b < n and zv - yb > 0.0:
            out.append(Violation(f"C8_l{l}_i{a}_j{b}_t{t}_g{g}", zv - yb, "<=", 0.0))

    # C9: drawn energy covers maintenance, activation and traffic.  Terms of
    # one (sensor, period, phenomenon) are summed in (arc, source) order.
    received: dict[tuple[int, int, int], list] = {}
    sent: dict[tuple[int, int, int], list] = {}
    for (l, a, b, t, g) in flows:
        term = (arc_pos[a, b], l, Z[l, a, b, t, g])
        if b < n:
            received.setdefault((b, t, g), []).append(term)
        sent.setdefault((a, t, g), []).append(term)
    for i in range(n):
        lhs = 0.0
        for t in range(T):
            lhs += tables.em * Y.get((i, t), 0)
            lhs += tables.ea * W.get((i, t), 0)
            for g in range(G):
                for _, _, zv in sorted(received.get((i, t, g), ())):
                    lhs += tables.er[g] * zv
                for p, _, zv in sorted(sent.get((i, t, g), ())):
                    lhs += tables.et[stream[p]][g] * zv
        lhs -= E.get((i,), 0)
        if not lhs <= ENERGY_TOL:  # also flags a NaN energy
            out.append(Violation(f"C9_i{i}", lhs, "<=", 0.0))

    # C10: battery bounds.
    for i in range(n):
        ei = E.get((i,), 0)
        if ei < -ENERGY_TOL:
            out.append(Violation(f"C10_i{i}", ei, ">=", 0.0))
        elif not ei <= tables.eb + ENERGY_TOL:  # also flags a NaN energy
            out.append(Violation(f"C10_i{i}", ei, "<=", tables.eb))

    # C11/C12: off-to-on transitions are counted.
    for i in range(n):
        lhs = W.get((i, 0), 0) - Y.get((i, 0), 0)
        if not lhs >= 0.0:
            out.append(Violation(f"C11_i{i}", lhs, ">=", 0.0))
        for t in range(1, T):
            lhs = W.get((i, t), 0) - Y.get((i, t), 0) + Y.get((i, t - 1), 0)
            if not lhs >= 0.0:
                out.append(Violation(f"C12_i{i}_t{t}", lhs, ">=", 0.0))

    return out


def violations_to_json(violations) -> list[dict]:
    return [vio.to_json() for vio in violations]


def evaluate(instance: Instance, solution, arcs: ArcSets | None = None) -> Metrics:
    """Metrics for a feasible solution; raises
    :class:`InfeasibleSolutionError`, which lists the violations, otherwise.

    The headline objective is real (energy) objective plus penalties by
    construction, so ``objective == real_objective + penalty_total`` holds
    exactly, not merely up to rounding.
    """
    arcs = arcs_for(instance, arcs)
    violations = check_feasibility(instance, arcs, solution)
    if violations:
        raise InfeasibleSolutionError(violations)
    values = _values_of(solution)
    n = len(instance.sensors)
    energy = tuple(float(values.get(VarRef("e", (i,)), 0)) for i in range(n))
    real = sum(energy)
    count = Counter(ref.kind for ref, val in values.items() if val)
    # Penalties are added one at a time, every r before every h, so the
    # float sum does not depend on the order the values were stored in.
    penalty = 0.0
    for _ in range(count["r"]):
        penalty += instance.penalty_activation
    uncovered = count["h"]
    for _ in range(uncovered):
        penalty += instance.penalty_uncovered
    denom = instance.demanded_triples()
    return Metrics(
        objective=real + penalty,
        real_objective=real,
        penalty_total=penalty,
        uncovered_rate=(uncovered / denom) if denom else 0.0,
        per_sensor_energy=energy,
        activations=count["w"],
    )
