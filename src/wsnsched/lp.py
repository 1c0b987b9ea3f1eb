"""LP-format text export and import for :class:`~wsnsched.model.IlpModel`.

The dialect is the classic CPLEX LP text format restricted to what the
models need: a ``Minimize`` section, labelled constraints, a ``Bounds``
section for the continuous energy variables and a ``Binaries`` section.
Export is deterministic and numbers are written with ``repr`` precision,
so export -> parse -> export reproduces the file byte for byte.  A bound
of (-inf, inf) is written ``name free``.

Import reads the text a block of ``_BLOCK_LINES`` lines at a time, so what
it holds beyond the model it builds is about one block's lines and tokens.
Each section's lines in a block become a flat list of token strings with
one ``findall``; the lines are well formed exactly when the tokens cover
every character but whitespace.  A row that runs past the end of a block
carries its unread tokens into the next one.  A token's line and column are
recomputed from its source line only when an error is raised, and a row
error is raised only once the rest of the file has been read, so that a
section or character error anywhere comes first: the errors are the same
whatever the block size.  Numbers take ASCII digits only, as variable names
do.  A literal that overflows to infinity is rejected, since export could
not write it back.  Each row's terms go straight into the arrays of the
model's :class:`~wsnsched.model.Rows`, as column ids and coefficients.

Export formats each variable's name once and joins its lines a block of
``_BLOCK_LINES`` at a time (:func:`lp_blocks`), so until the final join it
holds one string per block, not one per line; a writer that takes the
blocks as they come holds one.
"""

from __future__ import annotations

import bisect
import math
import operator
import re
from array import array
from functools import cached_property
from itertools import chain, islice

from .model import IlpModel, Rows, VarRef, gc_paused, parse_var_name

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


def _lines(model: IlpModel):
    """The lines of the LP text, without their newlines; a wrapped
    expression is one line.  Names and numbers are formatted once per
    call, memoized by equality: equal refs write the same name."""
    names = _Memo(lambda ref: ref.name)
    coefs = _Memo(_coef_text)
    nums = _Memo(_fmt)

    def expr(prefix: str, parts: list[str]) -> str:
        """A linear expression, wrapped after a fixed number of terms."""
        if parts and parts[0][0] == "+":
            parts[0] = parts[0][2:]  # a leading plus is implied
        if len(parts) <= _TERMS_PER_LINE:
            return prefix + " ".join(parts)
        return prefix + "\n      ".join(" ".join(parts[k:k + _TERMS_PER_LINE])
                                       for k in range(0, len(parts), _TERMS_PER_LINE))

    yield HEADER_COMMENT
    yield "Minimize"
    yield expr(" obj: ", [coefs[coef] + names[ref] for ref, coef in model.objective])
    yield "Subject To"
    rows = model.constraints
    colnames = [names[ref] for ref in rows.columns]
    terms = map(str.__add__, map(coefs.__getitem__, rows.coefs),
                map(colnames.__getitem__, rows.cols))
    lengths = map(operator.sub, islice(rows.starts, 1, None), rows.starts)
    for tag, sense, rhs, n in zip(rows.tags, rows.senses, rows.rhs, lengths):
        yield f"{expr(f' {tag}: ', list(islice(terms, n)))} {sense} {nums[rhs]}"
    if model.bounds:
        yield "Bounds"
        for ref, lo, hi in model.bounds:
            if lo == -math.inf and hi == math.inf:
                yield f" {names[ref]} free"
            elif math.isinf(hi):
                yield f" {names[ref]} >= {nums[lo]}"
            else:
                yield f" {nums[lo]} <= {names[ref]} <= {nums[hi]}"
    binaries = [names[ref] for ref in model.variables if model.is_binary(ref)]
    if binaries:
        yield "Binaries"
        for k in range(0, len(binaries), _NAMES_PER_LINE):
            yield " " + " ".join(binaries[k:k + _NAMES_PER_LINE])
    yield "End"


def lp_blocks(model: IlpModel):
    """A model's LP text in pieces of _BLOCK_LINES lines, each ending with
    a newline."""
    lines = _lines(model)
    while block := list(islice(lines, _BLOCK_LINES)):
        block.append("")  # the join then ends the block with a newline
        yield "\n".join(block)


def export_lp(model: IlpModel) -> str:
    """Serialize a model to LP text."""
    return "".join(lp_blocks(model))


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

# Import reads this many lines at a time: a block's lines, and their tokens,
# are parsed and dropped before the next block is read.  Export joins its
# lines in blocks of as many.
_BLOCK_LINES = 1024


def _is_number(text: str) -> bool:
    return text[0] in "0123456789."


def _is_name(text: str) -> bool:
    """Whether a token is a name, the only token that may label a row:
    not a number, a sense, a sign or ':'."""
    return text[0].isalpha()


def _blocks(text: str):
    """The lines of ``text.splitlines()``, in blocks that end after every
    _BLOCK_LINES-th newline, each with the number of its first line.  A cut
    just after a newline is a cut between lines, so the blocks' lines are
    the text's lines."""
    pos, first = 0, 1
    while pos < len(text):
        end = pos
        for _ in range(_BLOCK_LINES):
            end = text.find("\n", end) + 1
            if not end:
                end = len(text)
                break
        lines = text[pos:end].splitlines()
        yield first, lines
        first += len(lines)
        pos = end


class _Block:
    """One section's lines from one block, split into tokens, after the
    tokens carried over from the section's previous block.

    Parsing walks the tokens by index.  A carried token keeps the (line,
    start column, end column) it was read at; the others' lines and columns
    are recomputed from the block's lines only as needed.
    """

    def __init__(self, carried_toks: list[str], carried: list[tuple[int, int, int]],
                 codes: list[str], linenos: list[int]):
        self.carried = carried
        self.codes = codes  # non-blank lines, comments cut off
        self.linenos = linenos
        text = "\n".join(codes)
        toks = _TOKEN_RE.findall(text)
        # findall skips what no token matches, so the lines are well formed
        # exactly when the tokens, the spaces and the joining newlines make
        # up the whole text.  Other whitespace, or a character no token
        # covers, is told apart by scanning the text token by token.
        if text and sum(map(len, toks)) + text.count(" ") + len(codes) - 1 != len(text):
            end = _LINE_RE.match(text).end()
            if end < len(text):
                line = linenos[text.count("\n", 0, end)]
                raise LpParseError(f"unexpected character {text[end]!r}", line,
                                   end - text.rfind("\n", 0, end))
        self.toks = carried_toks + toks if carried_toks else toks

    @cached_property
    def nos(self) -> list[int]:
        """The line number of each token."""
        nos = [line for line, _, _ in self.carried]
        for lineno, code in zip(self.linenos, self.codes):
            nos += [lineno] * len(_TOKEN_RE.findall(code))
        return nos

    def spans(self, k: int) -> list[tuple[int, int, int]]:
        """The line, start column and end column of every token from k on,
        reading back from the last line only as far as those tokens reach."""
        need = len(self.toks) - max(k, len(self.carried))
        spans: list[tuple[int, int, int]] = []
        for lineno, code in zip(reversed(self.linenos), reversed(self.codes)):
            if len(spans) >= need:
                break
            spans[:0] = [(lineno, m.start() + 1, m.end() + 1) for m in _TOKEN_RE.finditer(code)]
        return self.carried[k:] + spans[len(spans) - need:]

    def error(self, message: str, k: int, after: bool = False) -> LpParseError:
        """An error at token k, or just after it."""
        lineno, start, end = self.spans(k)[0]
        return LpParseError(message, lineno, end if after else start)

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


class _Section:
    """One section's parser, fed the section's lines a block at a time.

    ``read`` parses whole rows and returns the index of the first token it
    left unread; a row that runs past the end of a block carries those
    tokens into the next block.  The first row error is kept, not raised,
    so that ``parse_lp`` first reads the rest of the file: a section or
    character error anywhere takes precedence.  ``names`` and ``refs`` are
    shared by the sections of one file: ``names`` maps each variable name
    to its column, and ``refs`` lists the one :class:`VarRef` of each
    column, in order of first appearance in the file.
    """

    def __init__(self, names: dict[str, int], refs: list[VarRef]):
        self.names = names
        self.refs = refs
        self.carry: tuple[list[str], list[tuple[int, int, int]]] = ([], [])  # tokens, spans
        self.failure: LpParseError | None = None

    def feed(self, codes: list[str], linenos: list[int], final: bool) -> None:
        """Parse the section's next lines; ``final`` when no more follow."""
        block = _Block(*self.carry, codes, linenos)
        if self.failure is not None:
            return
        try:
            k = self.read(block, final)
        except LpParseError as err:
            self.failure = err
            return
        self.carry = (block.toks[k:], block.spans(k))

    def column(self, b: _Block, k: int) -> int:
        """Token k's column."""
        tok = b.toks[k]
        col = self.names.get(tok)
        if col is None:
            try:
                ref = parse_var_name(tok)
            except ValueError:
                raise b.error(f"unknown variable {tok!r}", k)
            col = self.names[tok] = len(self.refs)
            self.refs.append(ref)
        return col

    def bound_var(self, b: _Block, k: int, stop: int) -> int:
        tok = b.token(k, stop)
        col = self.column(b, k)
        if self.refs[col].kind != "e":
            raise b.error(f"{tok} is binary and cannot be bounded", k)
        return col

    def expression(self, b: _Block, k: int, cols: array, coefs: array, final: bool) -> int:
        """Append the columns and coefficients of the terms from token k on
        to ``cols`` and ``coefs``, up to (not at) a sense token or the end
        of the block, and return where they stop.  Unless the block is the
        section's last, the signs and coefficient of a term whose variable
        is still to come are left unread."""
        toks, names = b.toks, self.names
        add_col, add_coef = cols.append, coefs.append
        start = k
        sign = 1.0
        coef: float | None = None
        for k in range(k, len(toks)):
            tok = toks[k]
            col = names.get(tok)
            if col is None:  # not a known name: dispatch on the first character
                first = tok[0]
                if first in "<>=":
                    break
                if first == "+" or first == "-":
                    if coef is not None:
                        raise b.error("dangling coefficient", k)
                    if first == "-":
                        sign = -sign
                    continue
                if _is_number(tok):
                    if coef is not None:
                        raise b.error("two coefficients in a row", k)
                    coef = b.number(k)
                    coef_at = k
                    continue
                if first == ":":
                    raise b.error("unexpected ':'", k)
                col = self.column(b, k)
            add_col(col)
            add_coef(sign if coef is None else sign * coef)
            sign = 1.0
            coef = None
        else:
            k = len(toks)
            if not final:
                while k > start and toks[k - 1][0] in "+-0123456789.":
                    k -= 1
                return k
        if coef is not None:
            raise b.error("coefficient without a variable", coef_at)
        return k


class _Objective(_Section):
    def __init__(self, names, refs):
        super().__init__(names, refs)
        self.cols = array("l")
        self.coefs = array("d")
        self.labelled = False  # whether the optional label has been looked for

    def read(self, b: _Block, final: bool) -> int:
        toks = b.toks
        k = 0
        if not self.labelled:
            if len(toks) < 2 and not final:
                return 0
            self.labelled = True
            if len(toks) > 1 and toks[1] == ":":
                if not _is_name(toks[0]):
                    raise b.error("malformed objective label", 0)
                k = 2
        k = self.expression(b, k, self.cols, self.coefs, final)
        if k < len(toks) and toks[k] in _SENSES:
            raise b.error("unexpected token after objective", k)
        return k


class _Constraints(_Section):
    def __init__(self, names, refs):
        super().__init__(names, refs)
        self.rows = Rows(refs)  # each row's terms are appended as they are read
        self.labels: set[str] = set()
        # The row being read: its label, and the label's token index (or its
        # (line, start, end) once the block has moved on).
        self.row: tuple[str, int | tuple[int, int, int]] | None = None

    def label_error(self, b: _Block, message: str) -> LpParseError:
        _, at = self.row
        line, col, _ = b.spans(at)[0] if isinstance(at, int) else at
        return LpParseError(message, line, col)

    def read(self, b: _Block, final: bool) -> int:
        toks, rows = b.toks, self.rows
        n = len(toks)
        k = 0
        while True:
            if self.row is None:
                if k == n or (k + 1 == n and not final):
                    return k
                if k + 1 == n or toks[k + 1] != ":":
                    raise b.error("expected 'label:' before constraint", k)
                label = toks[k]
                if not _is_name(label):
                    raise b.error("malformed constraint label", k)
                if label in self.labels:
                    raise b.error(f"duplicate constraint label {label!r}", k)
                self.labels.add(label)
                self.row = (label, k)
                k += 2
            label, at = self.row
            k = self.expression(b, k, rows.cols, rows.coefs, final)
            if k < n and toks[k] in _SENSES:
                j = k + 1  # the right-hand side: signs, then a number
                while j < n and toks[j] in ("+", "-"):
                    j += 1
                if j < n or final:
                    rhs, stop = b.signed_number(k + 1, n)
                    if len(rows.cols) == rows.starts[-1]:
                        raise self.label_error(b, "constraint has no terms")
                    rows.end_row(label, _SENSES[toks[k]], rhs)
                    self.row = None
                    k = stop
                    continue
            elif final:
                raise self.label_error(b, "constraint missing its sense")
            if isinstance(at, int):  # the row runs on into the next block
                self.row = (label, b.spans(at)[0])
            return k


class _Bounds(_Section):
    """Each line sets the side(s) of a variable's range it names; the
    other side keeps its earlier value, by default (0, inf).  Keyed by
    column."""

    def __init__(self, names, refs):
        super().__init__(names, refs)
        self.bounds: dict[int, tuple[float, float]] = {}

    def read(self, b: _Block, final: bool) -> int:
        toks, bounds = b.toks, self.bounds
        k = 0
        while k < len(toks):
            stop = bisect.bisect_right(b.nos, b.nos[k], k)  # this line's tokens
            if _is_number(toks[k]) or toks[k] in ("+", "-"):
                lo, k = b.signed_number(k, stop)
                if _SENSES.get(b.token(k, stop)) != "<=":
                    raise b.error("expected '<=' in bound", k)
                col = self.bound_var(b, k + 1, stop)
                if _SENSES.get(b.token(k + 2, stop)) != "<=":
                    raise b.error("expected '<=' in bound", k + 2)
                hi, k = b.signed_number(k + 3, stop)
            else:
                col = self.bound_var(b, k, stop)
                lo, hi = bounds.get(col, (0.0, math.inf))
                if k + 1 < stop and toks[k + 1].lower() == "free":
                    lo, hi = -math.inf, math.inf
                    k += 2
                else:
                    sense = _SENSES.get(b.token(k + 1, stop))
                    if sense is None:
                        raise b.error("malformed bound", k + 1)
                    value, k = b.signed_number(k + 2, stop)
                    if sense == "<=":
                        hi = value
                    elif sense == ">=":
                        lo = value
                    else:
                        lo = hi = value
            if k < stop:
                raise b.error("unexpected token after bound", k)
            bounds[col] = (lo, hi)
        return k


class _Binaries(_Section):
    """Bare names in declaration order, as columns: a name has one
    spelling only, so one column per variable."""

    def __init__(self, names, refs):
        super().__init__(names, refs)
        self.cols: list[int] = []
        self.seen: set[int] = set()

    def read(self, b: _Block, final: bool) -> int:
        for k, tok in enumerate(b.toks):
            col = self.column(b, k)
            if self.refs[col].kind == "e":
                raise b.error(f"{tok} is continuous, not binary", k)
            if col in self.seen:
                raise b.error(f"duplicate binary {tok}", k)
            self.seen.add(col)
            self.cols.append(col)
        return len(b.toks)


@gc_paused
def parse_lp(text: str) -> IlpModel:
    """Parse LP text produced by :func:`export_lp` (or a conforming subset).

    Variable kinds and binarity are recovered from the variable names;
    declarations missing from Bounds/Binaries get LP defaults (binary for
    the binary kinds, [0, inf) for energy variables).
    """
    names: dict[str, int] = {}
    refs: list[VarRef] = []
    objective, constraints = _Objective(names, refs), _Constraints(names, refs)
    bounds, binaries = _Bounds(names, refs), _Binaries(names, refs)
    sections: dict[str, _Section] = {"objective": objective, "constraints": constraints,
                                     "bounds": bounds, "binaries": binaries}
    opened: set[str] = set()
    current: _Section | None = None
    ended = False
    last = 0  # the number of lines read
    for first, lines in _blocks(text):
        codes: list[str] = []
        linenos: list[int] = []
        for lineno, raw in enumerate(lines, start=first):
            code = raw.split("\\", 1)[0]  # comment to end of line
            bare = code.strip()
            if not bare:
                continue
            word = _SECTION_WORDS.get(bare.lower())
            if word is not None:
                if current is not None:
                    current.feed(codes, linenos, final=True)
                    codes, linenos = [], []
                if word == "maximize":
                    raise LpParseError("only minimization is supported", lineno, 1)
                if word == "end":
                    ended = True
                    current = None
                    continue
                if ended:
                    raise LpParseError("content after End", lineno, 1)
                if word in opened:
                    raise LpParseError(f"duplicate section {bare!r}", lineno, 1)
                opened.add(word)
                current = sections[word]
                continue
            if ended:
                raise LpParseError("content after End", lineno, 1)
            if current is None:
                raise LpParseError("content before Minimize", lineno, 1)
            codes.append(code)
            linenos.append(lineno)
        if codes:
            current.feed(codes, linenos, final=False)
        last = first + len(lines) - 1
    if current is not None:
        current.feed([], [], final=True)
    if not ended:
        raise LpParseError("missing End", last + 1, 1)
    if "objective" not in opened:
        raise LpParseError("missing Minimize section", last + 1, 1)
    for section in sections.values():  # the first section's row error wins
        if section.failure is not None:
            raise section.failure

    # The variable list: declared binaries, declared continuous, then
    # anything referenced but never declared, in order of first appearance
    # in the objective and then the constraints.  The rows' columns are then
    # renumbered to index it, once the name table and the labels are freed.
    names.clear()
    constraints.labels.clear()
    order = binaries.cols + list(bounds.bounds)
    if len(refs) > len(order):
        declared = bytearray(len(refs))
        for col in order:
            declared[col] = 1
        for col in chain(objective.cols, constraints.rows.cols):
            if not declared[col]:
                declared[col] = 1
                order.append(col)
                if refs[col].kind == "e":
                    bounds.bounds[col] = (0.0, math.inf)
    renumber = array("l", (0,)) * len(refs)
    for k, col in enumerate(order):
        renumber[col] = k
    rows = constraints.rows
    rows.columns = variables = tuple(refs[col] for col in order)
    rows.cols = array("l", map(renumber.__getitem__, rows.cols))

    return IlpModel(
        variables=variables,
        objective=tuple(zip(map(refs.__getitem__, objective.cols), objective.coefs)),
        constraints=rows,
        bounds=tuple((refs[col], lo, hi) for col, (lo, hi) in bounds.bounds.items()),
    )
