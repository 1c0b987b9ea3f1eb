"""Integer linear program for multi-period coverage scheduling.

The decision variables, one binary unless noted:

==========  =====================  ==================================================
kind        indices                meaning
==========  =====================  ==================================================
``x``       (i, j, t, g)           sensor i covers demand point j in period t for
                                   phenomenon g (requires a coverage arc)
``y``       (i, t)                 sensor i is active in period t
``z``       (l, i, j, t, g)        the arc i -> j carries the stream that sensor l
                                   produced for phenomenon g in period t; j is a
                                   global node id (sinks follow sensors)
``w``       (i, t)                 sensor i switches on at the start of period t
``r``       (i, t, g)              sensor i senses phenomenon g in period t
``h``       (j, t, g)              demand point j is left uncovered for g in t
``e``       (i,)                   continuous; total energy drawn by sensor i
==========  =====================  ==================================================

Constraint families, named in tags and in validator reports:

* C2   every demanded (j, t, g) is covered or pays the uncovered penalty
* C3   covering requires sensing the phenomenon
* C4   sensing requires being active
* C5   flow conservation for each stream at every sensor other than its source
* C6   a stream leaves its source exactly when the source senses
* C7   an arc can carry a stream only if its tail sensor is active
* C8   ... and only if its head, when a sensor, is active (sinks are always on)
* C9   per-sensor energy accounting defines e
* C10  battery bounds 0 <= e <= capacity (kept as variable bounds)
* C11  switching on is counted in the first period
* C12  ... and at every off-to-on transition
* C13  integrality (implicit in the binary declarations)

A stream variable z exists for a source l only if l has at least one
coverage arc for g (otherwise C6 pins r to zero and no routing can occur),
and never on an arc pointing back into l.

Variables are :class:`VarRef` records, named tuples that compare, hash and
unpack as the plain tuple of their fields.  The rows are one :class:`Rows`:
flat arrays of column ids and coefficients over a table of VarRefs, read as
:class:`LinearConstraint` records made on demand.  ``build_model`` shares one
VarRef per variable: its column table is ``model.variables`` itself.
The rows walk the stream network the arc sets derive (``arcs.stream``,
``arcs.in_arcs``, ``arcs.out_arcs``, ``arcs.sources``, ``arcs.covering``)
and price arcs with ``arcs.tables``.
"""

from __future__ import annotations

import functools
import gc
import operator
import re
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

from .instance import ArcSets, Instance, arcs_for

KIND_ORDER = ("x", "y", "z", "w", "r", "h", "e")

_KIND_FIELDS = {
    "x": "ijtg",
    "y": "it",
    "z": "lijtg",
    "w": "it",
    "r": "itg",
    "h": "jtg",
    "e": "i",
}

# Per kind: the name template, and the pattern of canonical names (ASCII
# digits without leading zeros), so that a name denotes one variable.
_NAME_FORMATS = {
    kind: kind + "".join(f"_{f}%s" for f in fields) for kind, fields in _KIND_FIELDS.items()
}
_NAME_PATTERNS = {
    kind: re.compile(kind + "".join(f"_{f}(0|[1-9][0-9]*)" for f in fields))
    for kind, fields in _KIND_FIELDS.items()
}


class VarRef(NamedTuple):
    """A model variable, identified by kind and index tuple.

    A named tuple: it hashes, compares and unpacks as the plain tuple
    ``(kind, indices)``.
    """

    kind: str
    indices: tuple[int, ...]

    @property
    def name(self) -> str:
        try:
            return _NAME_FORMATS[self.kind] % self.indices
        except TypeError:  # wrong arity: name the fields there are
            fields = _KIND_FIELDS[self.kind]
            return self.kind + "".join(f"_{f}{v}" for f, v in zip(fields, self.indices))

    def sort_key(self):
        return (KIND_ORDER.index(self.kind), self.indices)


def parse_var_name(name: str) -> VarRef:
    """Inverse of :attr:`VarRef.name`; raises ValueError on malformed names.

    Only the canonical spelling is accepted (ASCII digits, no leading
    zeros), so two different names never denote the same variable.
    """
    pattern = _NAME_PATTERNS.get(name[:1])
    match = pattern.fullmatch(name) if pattern is not None else None
    if match is None:
        raise ValueError(f"malformed variable name {name!r}")
    return VarRef(name[0], tuple(map(int, match.groups())))


class LinearConstraint(NamedTuple):
    """One row ``sum(coef * ref) sense rhs``; a named tuple, like VarRef."""

    tag: str
    terms: tuple[tuple[VarRef, float], ...]
    sense: str  # "<=" | ">=" | "="
    rhs: float


class Rows(Sequence):
    """The constraint rows of a model, held flat.

    Per row a tag, a sense and a right-hand side; per term a column id in
    ``cols`` and a coefficient in ``coefs``, row k's terms running from
    ``starts[k]`` to ``starts[k + 1]``.  A column id indexes ``columns``, a
    table of VarRefs.  Its builder fills the rows once; read as a sequence,
    they are :class:`LinearConstraint` records made on demand, and they
    compare equal to any sequence of equal records.
    """

    __slots__ = ("columns", "tags", "senses", "rhs", "starts", "cols", "coefs")

    def __init__(self, columns: Sequence[VarRef]):
        self.columns = columns
        self.tags: list[str] = []
        self.senses: list[str] = []
        self.rhs = array("d")
        self.starts = array("l", (0,))
        self.cols = array("l")
        self.coefs = array("d")

    @classmethod
    def of(cls, variables: tuple[VarRef, ...], records) -> Rows:
        """The rows of ``records``, over ``variables`` and then the refs the
        records use that ``variables`` lacks, in order of first use."""
        index = {ref: k for k, ref in enumerate(variables)}
        extra: list[VarRef] = []
        rows = cls(variables)
        for tag, terms, sense, rhs in records:
            for ref, coef in terms:
                k = index.get(ref)
                if k is None:
                    k = index[ref] = len(variables) + len(extra)
                    extra.append(ref)
                rows.cols.append(k)
                rows.coefs.append(coef)
            rows.end_row(tag, sense, rhs)
        if extra:
            rows.columns = (*variables, *extra)
        return rows

    def end_row(self, tag: str, sense: str, rhs: float) -> None:
        """Close a row whose terms were appended to ``cols`` and ``coefs``."""
        self.tags.append(tag)
        self.senses.append(sense)
        self.rhs.append(rhs)
        self.starts.append(len(self.cols))

    def add(self, tag: str, cols, coefs, sense: str, rhs: float) -> None:
        """Append a row of the given columns and coefficients."""
        self.cols.extend(cols)
        self.coefs.extend(coefs)
        self.end_row(tag, sense, rhs)

    def __len__(self) -> int:
        return len(self.tags)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        tag = self.tags[k]  # raises the IndexError
        if k < 0:
            k += len(self)
        a, b = self.starts[k], self.starts[k + 1]
        terms = tuple(zip(map(self.columns.__getitem__, self.cols[a:b]), self.coefs[a:b]))
        return LinearConstraint(tag, terms, self.senses[k], self.rhs[k])

    def __iter__(self):
        terms = zip(map(self.columns.__getitem__, self.cols), self.coefs)
        lengths = map(operator.sub, islice(self.starts, 1, None), self.starts)
        for tag, sense, rhs, n in zip(self.tags, self.senses, self.rhs, lengths):
            yield LinearConstraint(tag, tuple(islice(terms, n)), sense, rhs)

    def __eq__(self, other):
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))  # as the tuple of records it equals

    def __repr__(self) -> str:
        return f"<Rows: {len(self)} rows, {len(self.cols)} terms>"


@dataclass(frozen=True)
class IlpModel:
    """An immutable ILP: minimize objective subject to constraints.

    Variables of kind ``e`` are continuous with the bounds listed in
    ``bounds``; all other kinds are binary.  Constraints given as a
    sequence of :class:`LinearConstraint` records become :class:`Rows`.
    """

    variables: tuple[VarRef, ...]
    objective: tuple[tuple[VarRef, float], ...]
    constraints: Rows
    bounds: tuple[tuple[VarRef, float, float], ...]

    def __post_init__(self):
        if not isinstance(self.constraints, Rows):
            object.__setattr__(self, "constraints", Rows.of(self.variables, self.constraints))

    @cached_property
    def variable_index(self) -> dict[VarRef, int]:
        return {ref: k for k, ref in enumerate(self.variables)}

    def is_binary(self, ref: VarRef) -> bool:
        return ref.kind != "e"


def gc_paused(fn):
    """Run ``fn`` with the cyclic garbage collector paused, then put it back
    as the caller had it.  A model's VarRefs, one per variable, are acyclic
    named tuples that the collector tracks for good: the collections that
    allocating them sets off free nothing and walk every VarRef alive.  The
    young-generation pass runs once after."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@gc_paused
def variable_universe(instance: Instance, arcs: ArcSets) -> tuple[VarRef, ...]:
    """Every variable the model for (instance, arcs) contains, in canonical
    order: x, y, z, w, r, h, e; within a kind, sorted by index tuple."""
    arcs = arcs_for(instance, arcs)
    n = len(instance.sensors)
    T = instance.periods
    G = len(instance.phenomena)

    xs = sorted(
        (i, j, t, g)
        for g in range(G)
        for (i, j) in arcs.coverage[g]
        for t in range(T)
    )
    ys = [(i, t) for i in range(n) for t in range(T)]
    zs = sorted(
        (l, i, j, t, g)
        for g in range(G)
        for l in arcs.sources[g]
        for (i, j) in arcs.stream
        if j != l
        for t in range(T)
    )
    ws = [(i, t) for i in range(n) for t in range(T)]
    rs = [(i, t, g) for i in range(n) for t in range(T) for g in range(G)]
    hs = sorted(
        (j, t, g)
        for g in range(G)
        for j in instance.demand_indices(g)
        for t in range(T)
    )
    es = [(i,) for i in range(n)]

    out = []
    out += [VarRef("x", idx) for idx in xs]
    out += [VarRef("y", idx) for idx in ys]
    out += [VarRef("z", idx) for idx in zs]
    out += [VarRef("w", idx) for idx in ws]
    out += [VarRef("r", idx) for idx in rs]
    out += [VarRef("h", idx) for idx in hs]
    out += [VarRef("e", idx) for idx in es]
    return tuple(out)


def universe_size(instance: Instance, arcs: ArcSets) -> int:
    """``len(variable_universe(instance, arcs))``, counted from the arc sets
    without making a variable, so that a model too large to hold can be
    refused before anything is allocated per period."""
    arcs = arcs_for(instance, arcs)
    n = len(instance.sensors)
    G = len(instance.phenomena)
    per_period = (2 + G) * n  # y, w and r
    for g in range(G):
        per_period += len(arcs.coverage[g]) + len(instance.demand_indices(g))  # x and h
        # z: every stream arc but those back into the source
        per_period += sum(len(arcs.stream) - len(arcs.in_arcs[l]) for l in arcs.sources[g])
    return per_period * instance.periods + n  # and e


# The most model variables a command accepts.  Building and exporting a model
# takes about 0.8 KB per variable (peak RSS of `wsnsched build` on bench2
# grid T=3, 55 032 variables, 59 MB against 19 MB at start, Python 3.11),
# so a model at the cap needs about 0.8 GB.
MAX_VARIABLES = 1_000_000


def check_model_size(instance: Instance, arcs: ArcSets, what: str) -> None:
    """A ValueError, naming the model ``what``, when the model of (instance,
    arcs) would have more than MAX_VARIABLES variables."""
    size = universe_size(instance, arcs)
    if size > MAX_VARIABLES:
        raise ValueError(f"the model of {what} would have {size} variables, "
                         f"above the cap of {MAX_VARIABLES}")


@gc_paused
def build_model(
    instance: Instance,
    arcs: ArcSets,
    per_phenomenon_fixed_energy: bool = False,
) -> IlpModel:
    """Assemble the ILP for an instance and its derived arcs.

    Maintenance and activation energy are charged once per period in the
    accounting row C9.  ``per_phenomenon_fixed_energy=True`` switches to
    charging them once per period per phenomenon instead (the accounting
    variant in which the fixed terms sit inside the per-phenomenon sum);
    exports only, the validator always applies the default accounting.
    """
    arcs = arcs_for(instance, arcs)
    n = len(instance.sensors)
    T = instance.periods
    G = len(instance.phenomena)
    tables = arcs.tables
    fixed_mult = G if per_phenomenon_fixed_energy else 1

    variables = variable_universe(instance, arcs)
    # The column of each variable, by kind and index tuple: a term of a
    # variable outside the universe raises KeyError.
    columns: dict[str, dict[tuple, int]] = {kind: {} for kind in KIND_ORDER}
    for k, ref in enumerate(variables):
        columns[ref.kind][ref.indices] = k
    x, y, z, w, r, h, e = (columns[kind] for kind in KIND_ORDER)

    in_arcs, out_arcs, sources = arcs.in_arcs, arcs.out_arcs, arcs.sources
    rows = Rows(variables)
    add = rows.add
    plus_minus = (1.0, -1.0)

    # C2: cover every demanded (j, t, g) or take the penalty.
    for g in range(G):
        for j in instance.demand_indices(g):
            for t in range(T):
                cols = [x[i, j, t, g] for i in arcs.covering[g][j]]
                cols.append(h[j, t, g])
                add(f"C2_j{j}_t{t}_g{g}", cols, [1.0] * len(cols), ">=", 1.0)

    # C3: covering a point requires sensing the phenomenon.
    for g in range(G):
        for (i, j) in arcs.coverage[g]:
            for t in range(T):
                add(f"C3_i{i}_j{j}_t{t}_g{g}", (x[i, j, t, g], r[i, t, g]), plus_minus, "<=", 0.0)

    # C4: sensing requires being active.
    for i in range(n):
        for t in range(T):
            for g in range(G):
                add(f"C4_i{i}_t{t}_g{g}", (r[i, t, g], y[i, t]), plus_minus, "<=", 0.0)

    # C5: at every sensor other than the source, stream in equals stream out.
    # Sinks absorb; no balance row is written for them.  Rows with no terms
    # at all (isolated sensors) are skipped.
    for g in range(G):
        for l in sources[g]:
            for t in range(T):
                for j in range(n):
                    if j == l:
                        continue
                    ins = [z[l, a, b, t, g] for (a, b) in in_arcs[j]]
                    outs = [z[l, a, b, t, g] for (a, b) in out_arcs[j] if b != l]
                    if not ins and not outs:
                        continue
                    add(f"C5_l{l}_j{j}_t{t}_g{g}", ins + outs,
                        [1.0] * len(ins) + [-1.0] * len(outs), "=", 0.0)

    # C6: a stream leaves its source exactly when the source senses.  For
    # sensors with no coverage arc the z-sum is empty and the row pins r to 0.
    for g in range(G):
        src = set(sources[g])
        for l in range(n):
            for t in range(T):
                cols = []
                if l in src:
                    cols = [z[l, a, b, t, g] for (a, b) in out_arcs[l] if b != l]
                coefs = [1.0] * len(cols)
                cols.append(r[l, t, g])
                coefs.append(-1.0)
                add(f"C6_l{l}_t{t}_g{g}", cols, coefs, "=", 0.0)

    # C7/C8: arcs carry streams only between active sensors.
    for (l, i, j, t, g), col in z.items():
        add(f"C7_l{l}_i{i}_j{j}_t{t}_g{g}", (col, y[i, t]), plus_minus, "<=", 0.0)
    for (l, i, j, t, g), col in z.items():
        if j < n:  # sink heads have no activity variable
            add(f"C8_l{l}_i{i}_j{j}_t{t}_g{g}", (col, y[j, t]), plus_minus, "<=", 0.0)

    # C9: energy accounting per sensor.
    for i in range(n):
        cols = [y[i, t] for t in range(T)] + [w[i, t] for t in range(T)]
        coefs = [tables.em * fixed_mult] * T + [tables.ea * fixed_mult] * T
        for t in range(T):
            for g in range(G):
                for (a, b) in in_arcs[i]:
                    for l in sources[g]:
                        if i == l:
                            continue
                        cols.append(z[l, a, b, t, g])
                        coefs.append(tables.er[g])
                for (a, b) in out_arcs[i]:
                    for l in sources[g]:
                        if b == l:
                            continue
                        cols.append(z[l, a, b, t, g])
                        coefs.append(tables.et[(a, b)][g])
        cols.append(e[(i,)])
        coefs.append(-1.0)
        add(f"C9_i{i}", cols, coefs, "<=", 0.0)

    # C11/C12: count off-to-on transitions.
    for i in range(n):
        add(f"C11_i{i}", (w[i, 0], y[i, 0]), plus_minus, ">=", 0.0)
    for i in range(n):
        for t in range(1, T):
            add(f"C12_i{i}_t{t}", (w[i, t], y[i, t], y[i, t - 1]), (1.0, -1.0, 1.0), ">=", 0.0)

    # Objective: total drawn energy plus coverage and activation penalties.
    objective = [(variables[k], 1.0) for k in e.values()]
    objective += [(variables[k], tables.eh) for k in h.values()]
    if tables.eg != 0.0:
        objective += [(variables[k], tables.eg) for k in r.values()]

    bounds = tuple((variables[k], 0.0, tables.eb) for k in e.values())

    return IlpModel(
        variables=variables,
        objective=tuple(objective),
        constraints=rows,
        bounds=bounds,
    )


def model_stats(model: IlpModel) -> dict:
    """Size summary: variable counts by kind, constraint counts by family."""
    var_counts: dict[str, int] = {k: 0 for k in KIND_ORDER}
    for ref in model.variables:
        var_counts[ref.kind] += 1
    con_counts = Counter(tag.split("_", 1)[0] for tag in model.constraints.tags)
    n_bin = sum(v for k, v in var_counts.items() if k != "e")
    return {
        "variables": {**var_counts, "total": len(model.variables),
                      "binary": n_bin, "continuous": var_counts["e"]},
        "constraints": {**dict(sorted(con_counts.items())), "total": len(model.constraints)},
        "objective_terms": len(model.objective),
    }
