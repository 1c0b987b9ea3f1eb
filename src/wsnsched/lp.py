"""LP-format text export and import for :class:`~wsnsched.model.IlpModel`.

The dialect is the classic CPLEX LP text format restricted to what the
models need: a ``Minimize`` section, labelled constraints, a ``Bounds``
section for the continuous energy variables and a ``Binaries`` section.
Export is deterministic and numbers are written with ``repr`` precision,
so export -> parse -> export reproduces the file byte for byte.  A bound
of (-inf, inf) is written ``name free``.

Import splits each section's lines into a flat list of token strings with
one ``findall``; the lines are well formed exactly when the tokens cover
every character but whitespace.  A token's line and column are recomputed
from its source line only when an error is raised.  Numbers take ASCII
digits only, as variable names do.  A literal that overflows to infinity is
rejected, since export could not write it back.
"""

from __future__ import annotations

import bisect
import math
import re
from functools import cached_property

from .model import IlpModel, LinearConstraint, VarRef, parse_var_name

HEADER_COMMENT = "\\ wsn-ilp/1"

_TERMS_PER_LINE = 8
_NAMES_PER_LINE = 6


class LpParseError(ValueError):
    """Malformed LP text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# -- export --------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)`` on first lookup."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _coef_text(coef: float) -> str:
    """The sign and magnitude written before a variable name; 1 is implied."""
    mag = abs(coef)
    return ("- " if coef < 0 else "+ ") + ("" if mag == 1.0 else f"{_fmt(mag)} ")


def export_lp(model: IlpModel) -> str:
    """Serialize a model to LP text.  Names and numbers are formatted once
    per call, memoized by equality: equal refs write the same name."""
    names = _Memo(lambda ref: ref.name)
    coefs = _Memo(_coef_text)
    nums = _Memo(_fmt)

    def expr(prefix: str, terms) -> str:
        """A linear expression, wrapped after a fixed number of terms."""
        parts = [coefs[coef] + names[ref] for ref, coef in terms]
        if parts and parts[0][0] == "+":
            parts[0] = parts[0][2:]  # a leading plus is implied
        if len(parts) <= _TERMS_PER_LINE:
            return prefix + " ".join(parts)
        return prefix + "\n      ".join(" ".join(parts[k:k + _TERMS_PER_LINE])
                                       for k in range(0, len(parts), _TERMS_PER_LINE))

    out = [HEADER_COMMENT, "Minimize", expr(" obj: ", model.objective), "Subject To"]
    out += [f"{expr(f' {c.tag}: ', c.terms)} {c.sense} {nums[c.rhs]}" for c in model.constraints]
    if model.bounds:
        out.append("Bounds")
        for ref, lo, hi in model.bounds:
            if lo == -math.inf and hi == math.inf:
                out.append(f" {names[ref]} free")
            elif math.isinf(hi):
                out.append(f" {names[ref]} >= {nums[lo]}")
            else:
                out.append(f" {nums[lo]} <= {names[ref]} <= {nums[hi]}")
    binaries = [names[ref] for ref in model.variables if model.is_binary(ref)]
    if binaries:
        out.append("Binaries")
        for k in range(0, len(binaries), _NAMES_PER_LINE):
            out.append(" " + " ".join(binaries[k:k + _NAMES_PER_LINE]))
    out.append("End")
    return "\n".join(out) + "\n"


# -- import --------------------------------------------------------------------

_TOKEN = (
    r"[A-Za-z][A-Za-z0-9_.]*"     # names and keywords
    r"|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"  # numbers
    r"|<=|>=|=<|=>|[<>=+\-:]"
)
_TOKEN_RE = re.compile(_TOKEN)
# Tokens with optional whitespace around them, to find the first character
# no token covers.  The trailing \s* cannot fail, so the greedy loop never
# backtracks into a token: each token matches as _TOKEN_RE.match would, and
# the match ends where scanning the text token by token fails.
_LINE_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*")

_SENSES = {"<": "<=", "<=": "<=", "=<": "<=", ">": ">=", ">=": ">=", "=>": ">=", "=": "="}

_SECTION_WORDS = {
    "minimize": "objective", "minimise": "objective", "min": "objective",
    "maximize": "maximize", "maximise": "maximize", "max": "maximize",
    "subject to": "constraints", "such that": "constraints",
    "st": "constraints", "s.t.": "constraints", "st.": "constraints",
    "bounds": "bounds", "bound": "bounds",
    "binaries": "binaries", "binary": "binaries", "bin": "binaries",
    "end": "end",
}


def _is_number(text: str) -> bool:
    return text[0] in "0123456789."


def _is_name(text: str) -> bool:
    """Whether a token is a name, the only token that may label a row:
    not a number, a sense, a sign or ':'."""
    return text[0].isalpha()


class _Section:
    """One section's lines, split into a flat list of tokens when it ends.

    Parsing walks the tokens by index; their line numbers and columns are
    recomputed only as needed.  ``names`` is shared by the sections of one
    file and maps each variable name to its one :class:`VarRef`.
    """

    def __init__(self, names: dict[str, VarRef]):
        self.names = names
        self.codes: list[str] = []  # non-blank lines, comments cut off
        self.linenos: list[int] = []
        self.toks: list[str] = []

    def close(self) -> None:
        """Split the lines into tokens; raise at the first character no token covers."""
        text = "\n".join(self.codes)
        self.toks = _TOKEN_RE.findall(text)
        # findall skips what no token matches, so the tokens cover every
        # character but whitespace exactly when the lines are well formed.
        if sum(map(len, self.toks)) != len("".join(text.split())):
            end = _LINE_RE.match(text).end()
            line = self.linenos[text.count("\n", 0, end)]
            raise LpParseError(f"unexpected character {text[end]!r}", line,
                               end - text.rfind("\n", 0, end))

    @cached_property
    def nos(self) -> list[int]:
        """The line number of each token."""
        nos: list[int] = []
        for lineno, code in zip(self.linenos, self.codes):
            nos += [lineno] * len(_TOKEN_RE.findall(code))
        return nos

    def error(self, message: str, k: int, after: bool = False) -> LpParseError:
        """An error at token k, or just after it."""
        lineno = self.nos[k]
        nth = k - bisect.bisect_left(self.nos, lineno)
        code = self.codes[bisect.bisect_left(self.linenos, lineno)]
        match = list(_TOKEN_RE.finditer(code))[nth]
        return LpParseError(message, lineno, (match.end() if after else match.start()) + 1)

    def token(self, k: int, stop: int) -> str:
        if k < stop:
            return self.toks[k]
        # Running out of tokens ends the last line read, not the file.
        raise self.error("unexpected end of line", stop - 1, after=True)

    def number(self, k: int) -> float:
        """Token k's value; a literal that overflows could not be written back."""
        value = float(self.toks[k])
        if math.isinf(value):
            raise self.error(f"number {self.toks[k]} is out of range", k)
        return value

    def signed_number(self, k: int, stop: int) -> tuple[float, int]:
        """The number at token k after any signs, and the index past it."""
        sign = 1.0
        tok = self.token(k, stop)
        while tok in ("+", "-"):
            if tok == "-":
                sign = -sign
            k += 1
            tok = self.token(k, stop)
        if not _is_number(tok):
            raise self.error(f"expected a number, found {tok!r}", k)
        return sign * self.number(k), k + 1

    def var(self, k: int) -> VarRef:
        tok = self.toks[k]
        ref = self.names.get(tok)
        if ref is None:
            try:
                ref = self.names[tok] = parse_var_name(tok)
            except ValueError:
                raise self.error(f"unknown variable {tok!r}", k)
        return ref

    def bound_var(self, k: int, stop: int) -> VarRef:
        tok = self.token(k, stop)
        ref = self.var(k)
        if ref.kind != "e":
            raise self.error(f"{tok} is binary and cannot be bounded", k)
        return ref

    def expression(self, k: int) -> tuple[list[tuple[VarRef, float]], int]:
        """Terms from token k up to (not at) a sense token or the end, and
        the index where they stop."""
        toks, names = self.toks, self.names
        terms: list[tuple[VarRef, float]] = []
        sign = 1.0
        coef: float | None = None
        for k in range(k, len(toks)):
            tok = toks[k]
            ref = names.get(tok)
            if ref is None:  # not a known name: dispatch on the first character
                first = tok[0]
                if first in "<>=":
                    break
                if first == "+" or first == "-":
                    if coef is not None:
                        raise self.error("dangling coefficient", k)
                    if first == "-":
                        sign = -sign
                    continue
                if _is_number(tok):
                    if coef is not None:
                        raise self.error("two coefficients in a row", k)
                    coef = self.number(k)
                    coef_at = k
                    continue
                if first == ":":
                    raise self.error("unexpected ':'", k)
                ref = self.var(k)
            terms.append((ref, sign if coef is None else sign * coef))
            sign = 1.0
            coef = None
        else:
            k = len(toks)
        if coef is not None:
            raise self.error("coefficient without a variable", coef_at)
        return terms, k


def _split_sections(text: str, names: dict[str, VarRef]) -> dict[str, _Section]:
    """Group tokens by section, validating characters and section order."""
    sections: dict[str, _Section] = {}
    current: _Section | None = None
    ended = False
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        code = raw.split("\\", 1)[0]  # comment to end of line
        bare = code.strip()
        if not bare:
            continue
        word = _SECTION_WORDS.get(bare.lower())
        if word is not None:
            if current is not None:
                current.close()
            if word == "maximize":
                raise LpParseError("only minimization is supported", lineno, 1)
            if word == "end":
                ended = True
                current = None
                continue
            if ended:
                raise LpParseError("content after End", lineno, 1)
            if word in sections:
                raise LpParseError(f"duplicate section {bare!r}", lineno, 1)
            sections[word] = current = _Section(names)
            continue
        if ended:
            raise LpParseError("content after End", lineno, 1)
        if current is None:
            raise LpParseError("content before Minimize", lineno, 1)
        current.codes.append(code)
        current.linenos.append(lineno)
    if current is not None:
        current.close()
    if not ended:
        raise LpParseError("missing End", len(lines) + 1, 1)
    if "objective" not in sections:
        raise LpParseError("missing Minimize section", len(lines) + 1, 1)
    for word in ("constraints", "bounds", "binaries"):
        sections.setdefault(word, _Section(names))
    return sections


def parse_lp(text: str) -> IlpModel:
    """Parse LP text produced by :func:`export_lp` (or a conforming subset).

    Variable kinds and binarity are recovered from the variable names;
    declarations missing from Bounds/Binaries get LP defaults (binary for
    the binary kinds, [0, inf) for energy variables).
    """
    names: dict[str, VarRef] = {}
    sections = _split_sections(text, names)

    # Objective.
    sec = sections["objective"]
    toks = sec.toks
    k = 0
    if len(toks) > 1 and toks[1] == ":":
        if not _is_name(toks[0]):
            raise sec.error("malformed objective label", 0)
        k = 2
    terms, k = sec.expression(k)
    if k < len(toks):
        raise sec.error("unexpected token after objective", k)
    objective = tuple(terms)

    # Constraints.
    constraints: list[LinearConstraint] = []
    labels: set[str] = set()
    sec = sections["constraints"]
    toks = sec.toks
    k = 0
    while k < len(toks):
        if k + 1 == len(toks) or toks[k + 1] != ":":
            raise sec.error("expected 'label:' before constraint", k)
        if not _is_name(toks[k]):
            raise sec.error("malformed constraint label", k)
        if toks[k] in labels:
            raise sec.error(f"duplicate constraint label {toks[k]!r}", k)
        labels.add(toks[k])
        terms, at = sec.expression(k + 2)
        if at == len(toks):
            raise sec.error("constraint missing its sense", k)
        rhs, stop = sec.signed_number(at + 1, len(toks))
        if not terms:
            raise sec.error("constraint has no terms", k)
        constraints.append(LinearConstraint(toks[k], tuple(terms), _SENSES[toks[at]], rhs))
        k = stop

    # Bounds: each line sets the side(s) of a variable's range it names;
    # the other side keeps its earlier value, by default (0, inf).
    bounds: dict[VarRef, tuple[float, float]] = {}
    sec = sections["bounds"]
    toks = sec.toks
    k = 0
    while k < len(toks):
        stop = bisect.bisect_right(sec.nos, sec.nos[k], k)  # this line's tokens
        if _is_number(toks[k]) or toks[k] in ("+", "-"):
            lo, k = sec.signed_number(k, stop)
            if _SENSES.get(sec.token(k, stop)) != "<=":
                raise sec.error("expected '<=' in bound", k)
            ref = sec.bound_var(k + 1, stop)
            if _SENSES.get(sec.token(k + 2, stop)) != "<=":
                raise sec.error("expected '<=' in bound", k + 2)
            hi, k = sec.signed_number(k + 3, stop)
        else:
            ref = sec.bound_var(k, stop)
            lo, hi = bounds.get(ref, (0.0, math.inf))
            if k + 1 < stop and toks[k + 1].lower() == "free":
                lo, hi = -math.inf, math.inf
                k += 2
            else:
                sense = _SENSES.get(sec.token(k + 1, stop))
                if sense is None:
                    raise sec.error("malformed bound", k + 1)
                value, k = sec.signed_number(k + 2, stop)
                if sense == "<=":
                    hi = value
                elif sense == ">=":
                    lo = value
                else:
                    lo = hi = value
        if k < stop:
            raise sec.error("unexpected token after bound", k)
        bounds[ref] = (lo, hi)

    # Binaries: bare names in declaration order.
    binaries: list[VarRef] = []
    seen: set[str] = set()
    sec = sections["binaries"]
    for k, tok in enumerate(sec.toks):
        ref = names.get(tok) or sec.var(k)
        if ref.kind == "e":
            raise sec.error(f"{tok} is continuous, not binary", k)
        if tok in seen:
            raise sec.error(f"duplicate binary {tok}", k)
        seen.add(tok)
        binaries.append(ref)

    # The variable list: declared binaries, declared continuous, then
    # anything referenced but never declared, in order of first appearance.
    variables = binaries + list(bounds)
    for name, ref in names.items():
        if name not in seen and ref not in bounds:
            variables.append(ref)
            if ref.kind == "e":
                bounds[ref] = (0.0, math.inf)

    return IlpModel(
        variables=tuple(variables),
        objective=objective,
        constraints=tuple(constraints),
        bounds=tuple((ref, lo, hi) for ref, (lo, hi) in bounds.items()),
    )
