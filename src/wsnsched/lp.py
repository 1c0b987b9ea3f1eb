"""LP-format text export and import for :class:`~wsnsched.model.IlpModel`.

The dialect is the classic CPLEX LP text format restricted to what the
models need: a ``Minimize`` section, labelled constraints, a ``Bounds``
section for the continuous energy variables and a ``Binaries`` section.
Export is deterministic and numbers are written with ``repr`` precision,
so export -> parse -> export reproduces the file byte for byte.  A bound
of (-inf, inf) is written ``name free``, and one of (-inf, hi) as that
line followed by ``name <= hi``.

Import reads the text once, a line at a time (:class:`_Parser`), so what
it holds beyond the model it builds is about one line's tokens.  Numbers
take ASCII digits only, as variable names do.  A literal that overflows to
infinity is rejected, since export could not write it back.  Each row's
terms go straight into the arrays of the model's
:class:`~wsnsched.model.Rows`, as column ids and coefficients.

Export formats each variable's name once and joins its lines a block of
``_BLOCK_LINES`` at a time (:func:`lp_blocks`), so until the final join it
holds one string per block, not one per line; a writer that takes the
blocks as they come holds one.
"""

from __future__ import annotations

import math
import operator
import re
from array import array
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
            if lo == -math.inf:
                yield f" {names[ref]} free"
                if hi != math.inf:  # the next line keeps the free low side
                    yield f" {names[ref]} <= {nums[hi]}"
            elif hi == math.inf:
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

# Import splits the text into lines this many at a time.  Export joins its
# lines in blocks of as many.
_BLOCK_LINES = 1024
# Import renumbers its term columns in place this many at a time.
_RENUMBER_SLICE = 1 << 14


def _is_number(text: str) -> bool:
    return text[0] in "0123456789."


def _is_name(text: str) -> bool:
    """Whether a token is a name, the only token that may label a row:
    not a number, a sense, a sign or ':'."""
    return text[0].isalpha()


def _blocks(text: str):
    """The lines of ``text.splitlines()``, in blocks that end after every
    _BLOCK_LINES-th newline.  A cut just after a newline is a cut between
    lines, so the blocks' lines are the text's lines."""
    pos = 0
    while pos < len(text):
        end = pos
        for _ in range(_BLOCK_LINES):
            end = text.find("\n", end) + 1
            if not end:
                end = len(text)
                break
        yield text[pos:end].splitlines()
        pos = end


class _Parser:
    """Parses LP text in one pass, line by line.

    :meth:`read` walks the lines, checking the order of the sections, and
    has each section's parser pull the section's tokens from
    :meth:`tokens`, one line's at a time, so a row may span lines.  A
    line's tokens come from one ``findall``; the line is well formed exactly
    when they and its spaces cover it.  A section or character error is
    raised at once, a section's first row error only after the rest of the
    text has been read, so the former comes first wherever it stands.  A
    token's column is recomputed from its line only when an error is raised.

    ``names`` maps each variable name to its column, and ``refs`` lists the
    one :class:`VarRef` of each column, in order of first appearance.
    """

    def __init__(self, text: str):
        self.count = 0  # the number of lines, once all have been read
        self.lines = self._lines(text)
        self.line = next(self.lines, None)  # the next line to read
        self.opened: dict[str, LpParseError | None] = {}  # each section's first row error
        self.ended = False
        self.bad: LpParseError | None = None  # the character error, once raised
        # The line the last token was read from, the iterator over its
        # tokens, and the line before it.
        self.at = self.before = (0, "", None)
        self.it = iter(())
        self.names: dict[str, int] = {}
        self.refs: list[VarRef] = []
        self.obj_cols = array("l")
        self.obj_coefs = array("d")
        self.rows = Rows(self.refs)  # each row's terms are appended as they are read
        self.labels: set[str] = set()
        self.bounds: dict[int, tuple[float, float]] = {}  # by column
        self.binaries: dict[int, None] = {}  # columns, in declaration order

    def _lines(self, text: str):
        """The non-blank lines as (line number, code, section word or
        None), the code being the line with its comment cut off."""
        lineno = 0
        for lineno, raw in enumerate(chain.from_iterable(_blocks(text)), start=1):
            code = raw.split("\\", 1)[0]  # comment to end of line
            bare = code.strip()
            if bare:
                yield lineno, code, _SECTION_WORDS.get(bare.lower())
        self.count = lineno

    def read(self) -> None:
        """Read the text, checking the order of its sections, and have each
        section's parser read the section's tokens; then raise the first
        row error, if any, in section order."""
        while (line := self.line) is not None:
            self.line = next(self.lines, None)
            lineno, code, word = line
            if word == "maximize":
                raise LpParseError("only minimization is supported", lineno, 1)
            if word == "end":
                self.ended = True
                continue
            if self.ended:
                raise LpParseError("content after End", lineno, 1)
            if word is None:
                raise LpParseError("content before Minimize", lineno, 1)
            if word in self.opened:
                raise LpParseError(f"duplicate section {code.strip()!r}", lineno, 1)
            self.opened[word] = None
            tokens = self.tokens()
            try:
                getattr(self, f"read_{word}")(tokens)
            except LpParseError as err:
                if err is self.bad:
                    raise
                self.opened[word] = err
            for _ in tokens:  # the rest of the section, still checked
                pass
        if not self.ended:
            raise LpParseError("missing End", self.count + 1, 1)
        if "objective" not in self.opened:
            raise LpParseError("missing Minimize section", self.count + 1, 1)
        for section in ("objective", "constraints", "bounds", "binaries"):
            if self.opened.get(section) is not None:
                raise self.opened[section]

    def tokens(self):
        """The section's tokens, up to the next section word."""
        while (line := self.line) is not None and line[2] is None:
            self.line = next(self.lines, None)
            lineno, code, _ = line
            toks = _TOKEN_RE.findall(code)
            # findall skips what no token matches; other whitespace than a
            # space, or a character no token covers, is told apart by
            # scanning the line token by token.
            if len("".join(toks)) + code.count(" ") != len(code):
                end = _LINE_RE.match(code).end()
                if end < len(code):
                    self.bad = LpParseError(f"unexpected character {code[end]!r}", lineno, end + 1)
                    raise self.bad
            self.before, self.at = self.at, line
            self.it = it = iter(toks)
            yield from it

    def peek(self) -> str | None:
        """The section's next token, left unread; None at its end."""
        rest = operator.length_hint(self.it)
        if rest:
            return _TOKEN_RE.findall(self.at[1])[-rest]
        if self.line is None or self.line[2] is not None:
            return None
        first = _TOKEN_RE.search(self.line[1])
        return first and first.group()

    def mark(self, back: int = 0) -> tuple[tuple[int, str, str | None], int]:
        """Where the token last read is, or the one ``back`` tokens before
        it: its line, and how many of the line's tokens follow it."""
        rest = operator.length_hint(self.it) + back
        if back and rest == len(_TOKEN_RE.findall(self.at[1])):  # it ends the line before
            return self.before, 0
        return self.at, rest

    def error(self, message: str, at: tuple | None = None, after: bool = False) -> LpParseError:
        """An error at a token: the one last read or one marked before;
        ``after`` puts it just past the token."""
        (lineno, code, _), rest = at or self.mark()
        token = list(_TOKEN_RE.finditer(code))[-1 - rest]
        return LpParseError(message, lineno, (token.end() if after else token.start()) + 1)

    def take(self, tokens) -> str:
        tok = next(tokens, None)
        if tok is None:
            # Running out of tokens ends the last line read, not the file.
            raise self.error("unexpected end of line", after=True)
        return tok

    def number(self, tok: str) -> float:
        """The value of the token last read; a literal that overflows could
        not be written back."""
        value = float(tok)
        if math.isinf(value):
            raise self.error(f"number {tok} is out of range")
        return value

    def signed_number(self, tokens) -> float:
        sign = 1.0
        tok = self.take(tokens)
        while tok in ("+", "-"):
            if tok == "-":
                sign = -sign
            tok = self.take(tokens)
        if not _is_number(tok):
            raise self.error(f"expected a number, found {tok!r}")
        return sign * self.number(tok)

    def column(self, tok: str) -> int:
        """The column of the token last read."""
        col = self.names.get(tok)
        if col is None:
            try:
                ref = parse_var_name(tok)
            except ValueError:
                raise self.error(f"unknown variable {tok!r}")
            col = self.names[tok] = len(self.refs)
            self.refs.append(ref)
        return col

    def bound_var(self, tok: str) -> int:
        col = self.column(tok)
        if self.refs[col].kind != "e":
            raise self.error(f"{tok} is binary and cannot be bounded")
        return col

    def expression(self, tokens, cols: array, coefs: array) -> str | None:
        """Append the columns and coefficients of the terms read from
        ``tokens`` to ``cols`` and ``coefs``, up to a sense token, which is
        returned, or the end of the section (None)."""
        names, error = self.names, self.error
        add_col, add_coef = cols.append, coefs.append
        sign = 1.0
        coef: float | None = None
        for tok in tokens:
            col = names.get(tok)
            if col is None:  # not a known name: dispatch on the first character
                first = tok[0]
                if first in "<>=":
                    break
                if first == "+" or first == "-":
                    if coef is not None:
                        raise error("dangling coefficient")
                    if first == "-":
                        sign = -sign
                    continue
                if _is_number(tok):
                    if coef is not None:
                        raise error("two coefficients in a row")
                    coef = self.number(tok)
                    continue
                if first == ":":
                    raise error("unexpected ':'")
                col = self.column(tok)
            add_col(col)
            add_coef(sign if coef is None else sign * coef)
            sign = 1.0
            coef = None
        else:
            tok = None
        if coef is not None:  # the token before the sense, or the last one
            raise error("coefficient without a variable", self.mark(tok is not None))
        return tok

    def read_objective(self, tokens) -> None:
        first = next(tokens, None)
        if first is None:
            return
        head = (first,)
        if self.peek() == ":":
            if not _is_name(first):
                raise self.error("malformed objective label")
            next(tokens)
            head = ()
        if self.expression(chain(head, tokens), self.obj_cols, self.obj_coefs) is not None:
            raise self.error("unexpected token after objective")

    def read_constraints(self, tokens) -> None:
        rows, labels = self.rows, self.labels
        for label in tokens:
            at = self.mark()
            if next(tokens, None) != ":":
                raise self.error("expected 'label:' before constraint", at)
            if not _is_name(label):
                raise self.error("malformed constraint label", at)
            if label in labels:
                raise self.error(f"duplicate constraint label {label!r}", at)
            labels.add(label)
            sense = self.expression(tokens, rows.cols, rows.coefs)
            if sense is None:
                raise self.error("constraint missing its sense", at)
            rhs = self.signed_number(tokens)
            if len(rows.cols) == rows.starts[-1]:
                raise self.error("constraint has no terms", at)
            rows.end_row(label, _SENSES[sense], rhs)

    def read_bounds(self, tokens) -> None:
        """Each line sets the side(s) of a variable's range it names; the
        other side keeps its earlier value, by default (0, inf)."""
        bounds, take = self.bounds, self.take
        for tok in tokens:
            line = chain((tok,), self.it)  # this line's tokens
            if _is_number(tok) or tok in ("+", "-"):
                lo = self.signed_number(line)
                if _SENSES.get(take(line)) != "<=":
                    raise self.error("expected '<=' in bound")
                col = self.bound_var(take(line))
                if _SENSES.get(take(line)) != "<=":
                    raise self.error("expected '<=' in bound")
                hi = self.signed_number(line)
            else:
                col = self.bound_var(take(line))
                lo, hi = bounds.get(col, (0.0, math.inf))
                tok = take(line)
                if tok.lower() == "free":
                    lo, hi = -math.inf, math.inf
                else:
                    sense = _SENSES.get(tok)
                    if sense is None:
                        raise self.error("malformed bound")
                    value = self.signed_number(line)
                    if sense in ("<=", "="):
                        hi = value
                    if sense in (">=", "="):
                        lo = value
            if next(line, None) is not None:
                raise self.error("unexpected token after bound")
            bounds[col] = (lo, hi)

    def read_binaries(self, tokens) -> None:
        """Bare names, as columns: a name has one spelling only, so one
        column per variable."""
        for tok in tokens:
            col = self.column(tok)
            if self.refs[col].kind == "e":
                raise self.error(f"{tok} is continuous, not binary")
            if col in self.binaries:
                raise self.error(f"duplicate binary {tok}")
            self.binaries[col] = None


@gc_paused
def parse_lp(text: str) -> IlpModel:
    """Parse LP text produced by :func:`export_lp` (or a conforming subset).

    Variable kinds and binarity are recovered from the variable names;
    declarations missing from Bounds/Binaries get LP defaults (binary for
    the binary kinds, [0, inf) for energy variables).
    """
    p = _Parser(text)
    p.read()

    # The variable list: declared binaries, declared continuous, then
    # anything referenced but never declared, in order of first appearance
    # in the objective and then the constraints.  The rows' columns are then
    # renumbered to index it, once the name table and the labels are freed.
    p.names.clear()
    p.labels.clear()
    refs, bounds, rows = p.refs, p.bounds, p.rows
    order = [*p.binaries, *bounds]
    if len(refs) > len(order):
        declared = bytearray(len(refs))
        for col in order:
            declared[col] = 1
        for col in chain(p.obj_cols, rows.cols):
            if not declared[col]:
                declared[col] = 1
                order.append(col)
                if refs[col].kind == "e":
                    bounds[col] = (0.0, math.inf)
    renumber = array("l", (0,)) * len(refs)
    for k, col in enumerate(order):
        renumber[col] = k
    rows.columns = variables = tuple(refs[col] for col in order)
    cols = rows.cols
    for lo in range(0, len(cols), _RENUMBER_SLICE):  # in place, a slice at a time
        hi = lo + _RENUMBER_SLICE
        cols[lo:hi] = array("l", map(renumber.__getitem__, cols[lo:hi]))

    return IlpModel(
        variables=variables,
        objective=tuple(zip(map(refs.__getitem__, p.obj_cols), p.obj_coefs)),
        constraints=rows,
        bounds=tuple((refs[col], lo, hi) for col, (lo, hi) in bounds.items()),
    )
