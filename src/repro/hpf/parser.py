"""A textual front end for mini-HPF programs.

The grammar is a compact HPF-flavoured notation::

    PROGRAM jacobi
    REAL a(128, 256) DISTRIBUTE (*, BLOCK)
    REAL new(128, 256) DISTRIBUTE (*, BLOCK)
    DO t = 0, 9
      FORALL j = 1, 254 : new(0:127, j) = (a(0:127, j-1) + a(0:127, j+1)) * 0.5
      FORALL j = 1, 254 : a(0:127, j) = new(0:127, j)
    END DO
    REDUCE total = SUM(j = 0, 255 : a(0:127, j) * a(0:127, j))
    LET norm = total / 2.0
    END

Statement forms
---------------
``REAL name(d0, ..., dk) [DISTRIBUTE (*, ..., BLOCK|CYCLIC)]``
    Array declaration; the distribution directive names the last dimension
    (every other position must be ``*``, the paper's restriction).
``SCALAR name [= value]``
    Scalar declaration.
``DO var = lo, hi`` ... ``END DO``
    Sequential loop; ``var`` is available in subscripts/bounds inside.
``FORALL j = lo, hi[, step] [ON HOME ref] : lhs = expr``
    INDEPENDENT parallel loop over the distributed dimension; an optional
    integer step strides the iteration space (red-black orderings).
``ASSIGN lhs = expr``
    Single-owner statement (the LHS last subscript must be an index).
``REDUCE target = SUM|MAX|MIN(j = lo, hi : expr)``
    Global reduction.
``LET target = expr``
    Replicated scalar computation (scalars and literals only).
``SUB name(p0(d...), p1(d...) [DISTRIBUTE ...])`` ... ``END SUB``
    Subroutine over formal arrays; resolved by full inlining.
``CALL name(actual0, actual1, ...)``
    Call site (expanded at build).

Subscripts: ``lo:hi`` (absolute inclusive slice), ``j±c`` (the FORALL
index), or any affine expression in sequential variables and integers.
Expressions support ``+ - * /``, parentheses, ``SQRT(x)``, ``ABS(x)``,
numeric literals, scalar names and array references.  Comments start with
``!``.  Keywords are case-insensitive; names are case-sensitive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.symbolic import Lin, Sym, as_lin
from repro.hpf.procedures import CallStmt, SubroutineDef, SubroutineError, inline_calls
from repro.hpf.ast import (
    ArrayDecl,
    At,
    Bin,
    Expr,
    Lit,
    LoopIdx,
    LoopSpec,
    ParallelAssign,
    Program,
    Reduce,
    Ref,
    ScalarAssign,
    ScalarRef,
    SeqLoop,
    Slice,
    Stmt,
    Subscript,
    Un,
)

__all__ = ["ParseError", "parse_program"]


class ParseError(ValueError):
    """Syntax or semantic error in mini-HPF source, with line info."""

    def __init__(self, message: str, line_no: int, line: str = "") -> None:
        super().__init__(f"line {line_no}: {message}" + (f"\n    {line}" if line else ""))
        self.line_no = line_no


TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+(?:[eE][-+]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/:,=])"
    r")"
)


ARRAY_SPEC_RE = re.compile(
    r"([A-Za-z_]\w*)\s*\(([^)]*)\)(?:\s+(?i:DISTRIBUTE)\s*\(([^)]*)\))?"
)
DISTRIBUTIONS = {"BLOCK": "block", "CYCLIC": "cyclic", "*": "replicated"}


def parse_array_spec(text: str, what: str, line_no: int, line: str) -> ArrayDecl:
    """``name(d0, ..., dk) [DISTRIBUTE (*, ..., BLOCK|CYCLIC|*)]`` — the
    array spec of a REAL declaration and of a SUB formal alike."""
    m = ARRAY_SPEC_RE.fullmatch(text)
    if not m:
        raise ParseError(f"malformed {what}", line_no, line)
    name, dims_text, dist_text = m.groups()
    try:
        shape = tuple(int(d.strip()) for d in dims_text.split(","))
    except ValueError:
        raise ParseError("array extents must be integer literals", line_no, line)
    dist = "block"
    if dist_text is not None:
        parts = [p.strip().upper() for p in dist_text.split(",")]
        if len(parts) != len(shape):
            raise ParseError("DISTRIBUTE rank mismatch", line_no, line)
        if any(p != "*" for p in parts[:-1]):
            raise ParseError(
                "only the last dimension may be distributed (use '*' elsewhere)",
                line_no,
                line,
            )
        if parts[-1] not in DISTRIBUTIONS:
            raise ParseError(f"unknown distribution {parts[-1]!r}", line_no, line)
        dist = DISTRIBUTIONS[parts[-1]]
    try:
        return ArrayDecl(name, shape, dist)
    except ValueError as e:
        raise ParseError(str(e), line_no, line) from None


def tokenize(text: str, line_no: int) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"cannot tokenize {text[pos:].strip()!r}", line_no, text)
            break
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", m.group("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


@dataclass
class _Ctx:
    """Parsing context: declarations and visible sequential variables."""

    arrays: dict[str, ArrayDecl]
    scalars: dict[str, float]
    seq_vars: list[str]
    loop_var: str | None  # the active FORALL/REDUCE index, if any


class _ExprParser:
    """Recursive-descent parser for one expression token stream."""

    def __init__(self, tokens: list[tuple[str, str]], ctx: _Ctx, line_no: int, line: str):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx
        self.line_no = line_no
        self.line = line

    # ------------------------------------------------------------------ #
    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line_no, self.line)

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of expression")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok != ("op", op):
            raise self.error(f"expected {op!r}, got {tok[1]!r}")

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.next()
            rhs = self.parse_term()
            node = Bin(tok[1], node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.next()
            rhs = self.parse_factor()
            node = Bin(tok[1], node, rhs)
        return node

    def parse_factor(self) -> Expr:
        tok = self.next()
        kind, value = tok
        if kind == "op" and value == "-":
            return Un("neg", self.parse_factor())
        if kind == "op" and value == "+":
            return self.parse_factor()
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "num":
            return Lit(float(value))
        if kind == "name":
            upper = value.upper()
            if upper in ("SQRT", "ABS"):
                self.expect_op("(")
                inner = self.parse_expr()
                self.expect_op(")")
                return Un("sqrt" if upper == "SQRT" else "abs", inner)
            if value in self.ctx.arrays:
                return self.parse_ref(value)
            if value in self.ctx.scalars:
                return ScalarRef(value)
            if value == self.ctx.loop_var or value in self.ctx.seq_vars:
                raise self.error(
                    f"loop variable {value!r} cannot stand alone in an "
                    "expression (only in subscripts)"
                )
            raise self.error(f"unknown name {value!r}")
        raise self.error(f"unexpected token {value!r}")

    # ------------------------------------------------------------------ #
    # references and subscripts
    # ------------------------------------------------------------------ #
    def parse_ref(self, array: str) -> Ref:
        decl = self.ctx.arrays[array]
        self.expect_op("(")
        subs: list[Subscript] = []
        while True:
            subs.append(self.parse_subscript())
            tok = self.next()
            if tok == ("op", ")"):
                break
            if tok != ("op", ","):
                raise self.error(f"expected ',' or ')' in subscripts, got {tok[1]!r}")
        if len(subs) != decl.rank:
            raise self.error(
                f"{array}: {len(subs)} subscripts for rank {decl.rank}"
            )
        return Ref(array, tuple(subs))

    def parse_subscript(self) -> Subscript:
        lo = self.parse_index_expr()
        tok = self.peek()
        if tok == ("op", ":"):
            self.next()
            hi = self.parse_index_expr()
            if isinstance(lo, tuple) or isinstance(hi, tuple):
                raise self.error("the loop index cannot appear in a slice bound")
            return Slice(lo, hi)
        if isinstance(lo, str):  # bare/offset loop index marker resolved below
            raise self.error("internal: unresolved loop index")  # pragma: no cover
        if isinstance(lo, tuple):  # (loop marker, offset)
            return LoopIdx(lo[1])
        return At(lo)

    def parse_index_expr(self):
        """An affine index expression: ints, seq vars, the loop var, +/-/*.

        Returns a :class:`Lin` for absolute indices, or the tuple
        ``("loop", offset)`` when the FORALL index participates.
        """
        total = Lin(0)
        loop_uses = 0
        sign = 1
        expect_operand = True
        while True:
            tok = self.peek()
            if tok is None:
                break
            kind, value = tok
            if expect_operand:
                if kind == "num":
                    self.next()
                    if "." in value or "e" in value or "E" in value:
                        raise self.error("subscripts must be integers")
                    term = Lin(int(value))
                elif kind == "name":
                    self.next()
                    if value == self.ctx.loop_var:
                        loop_uses += 1
                        term = Lin(0)
                    elif value in self.ctx.seq_vars:
                        term = as_lin(Sym(value))
                    else:
                        raise self.error(f"unknown index name {value!r}")
                elif kind == "op" and value == "-":
                    self.next()
                    sign = -sign
                    continue
                elif kind == "op" and value == "+":
                    self.next()
                    continue
                else:
                    raise self.error(f"unexpected {value!r} in subscript")
                # Optional integer scaling: <name> * <int> or <int> * <name>
                nxt = self.peek()
                if nxt == ("op", "*"):
                    self.next()
                    k_tok = self.next()
                    if k_tok[0] != "num" or "." in k_tok[1]:
                        raise self.error("only integer scaling in subscripts")
                    term = term * int(k_tok[1])
                total = total + term * sign
                sign = 1
                expect_operand = False
            else:
                if kind == "op" and value in "+-":
                    self.next()
                    sign = 1 if value == "+" else -1
                    expect_operand = True
                else:
                    break
        if loop_uses > 1:
            raise self.error("the loop index may appear at most once per subscript")
        if loop_uses:
            return ("loop", total)
        return total


class _ProgramParser:
    """Line-oriented statement parser."""

    def __init__(self, source: str) -> None:
        self.lines = source.splitlines()
        self.idx = 0
        self.arrays: dict[str, ArrayDecl] = {}
        self.scalars: dict[str, float] = {}
        self.name = ""
        self.seq_vars: list[str] = []
        self.subroutines: dict[str, SubroutineDef] = {}
        self._formal_decls: dict[str, ArrayDecl] = {}  # while inside a SUB
        #: (call, line_no, line) of every CALL outside a SUB body
        self._calls: list[tuple[CallStmt, int, str]] = []

    # ------------------------------------------------------------------ #
    def next_line(self) -> tuple[int, str] | None:
        while self.idx < len(self.lines):
            self.idx += 1
            raw = self.lines[self.idx - 1]
            line = raw.split("!", 1)[0].strip()
            if line:
                return self.idx, line
        return None

    def parse(self) -> Program:
        entry = self.next_line()
        if entry is None:
            raise ParseError("empty program", 0)
        line_no, line = entry
        m = re.fullmatch(r"(?i:PROGRAM)\s+([A-Za-z_]\w*)", line)
        if not m:
            raise ParseError("expected 'PROGRAM <name>'", line_no, line)
        self.name = m.group(1)
        body = self.parse_block(closing="END")
        # Expand each call on its own first, so an error names its line;
        # calls inside a SUB body are checked through the calls expanding it.
        for call, call_no, call_line in self._calls:
            try:
                inline_calls([call], self.subroutines, list(self.arrays), dict(self.arrays))
            except SubroutineError as e:
                raise ParseError(str(e), call_no, call_line) from None
        flattened = inline_calls(body, self.subroutines, list(self.arrays), dict(self.arrays))
        return Program(self.name, self.arrays, flattened, dict(self.scalars))

    def parse_block(self, closing: str) -> list[Stmt]:
        body: list[Stmt] = []
        while True:
            entry = self.next_line()
            if entry is None:
                raise ParseError(f"missing {closing!r}", len(self.lines))
            line_no, line = entry
            upper = line.upper()
            if upper == closing:
                return body
            if upper == "END" and closing != "END":
                raise ParseError(f"missing {closing!r} before END", line_no, line)
            stmt = self.parse_statement(line_no, line)
            if stmt is not None:
                body.append(stmt)

    # ------------------------------------------------------------------ #
    def parse_statement(self, line_no: int, line: str) -> Stmt | None:
        upper = line.upper()
        if upper.startswith("REAL "):
            self.parse_decl(line_no, line)
            return None
        if upper.startswith("SCALAR "):
            self.parse_scalar_decl(line_no, line)
            return None
        if upper.startswith("DO "):
            return self.parse_do(line_no, line)
        if upper.startswith("FORALL "):
            return self.parse_forall(line_no, line)
        if upper.startswith("ASSIGN "):
            return self.parse_assign(line_no, line)
        if upper.startswith("REDUCE "):
            return self.parse_reduce(line_no, line)
        if upper.startswith("LET "):
            return self.parse_let(line_no, line)
        if upper.startswith("SUB "):
            self.parse_sub(line_no, line)
            return None
        if upper.startswith("CALL "):
            return self.parse_call(line_no, line)
        raise ParseError(f"unrecognized statement", line_no, line)

    def parse_decl(self, line_no: int, line: str) -> None:
        decl = parse_array_spec(line[len("REAL "):].strip(), "REAL declaration", line_no, line)
        if decl.name in self.arrays:
            raise ParseError(f"array {decl.name!r} already declared", line_no, line)
        self.arrays[decl.name] = decl

    def parse_scalar_decl(self, line_no: int, line: str) -> None:
        m = re.fullmatch(r"(?i:SCALAR)\s+([A-Za-z_]\w*)(?:\s*=\s*([-+.\dEe]+))?", line)
        if not m:
            raise ParseError("malformed SCALAR declaration", line_no, line)
        self.scalars[m.group(1)] = float(m.group(2)) if m.group(2) else 0.0

    # ------------------------------------------------------------------ #
    def ctx(self, loop_var: str | None) -> _Ctx:
        return _Ctx(self.arrays, self.scalars, list(self.seq_vars), loop_var)

    def _bound(self, text: str, line_no: int, line: str) -> Lin:
        parser = _ExprParser(tokenize(text, line_no), self.ctx(None), line_no, line)
        result = parser.parse_index_expr()
        if isinstance(result, tuple) or not parser.at_end():
            raise ParseError(f"bad loop bound {text!r}", line_no, line)
        return result

    def parse_do(self, line_no: int, line: str) -> SeqLoop:
        m = re.fullmatch(r"(?i:DO)\s+([A-Za-z_]\w*)\s*=\s*(.+?)\s*,\s*(.+)", line)
        if not m:
            raise ParseError("malformed DO", line_no, line)
        var = m.group(1)
        lo = self._bound(m.group(2), line_no, line)
        hi = self._bound(m.group(3), line_no, line)
        self.seq_vars.append(var)
        try:
            body = self.parse_block(closing="END DO")
        finally:
            self.seq_vars.pop()
        return SeqLoop(var, lo, hi, body)

    def parse_forall(self, line_no: int, line: str) -> ParallelAssign:
        m = re.fullmatch(
            r"(?i:FORALL)\s+([A-Za-z_]\w*)\s*=\s*(.+?)\s*,\s*(.+?)"
            r"(?:\s*,\s*(\d+))?"
            r"(?:\s+(?i:ON\s+HOME)\s+(.+?))?\s*:\s*(.+)",
            line,
        )
        if not m:
            raise ParseError("malformed FORALL", line_no, line)
        var, lo_text, hi_text, step_text, home_text, body = m.groups()
        lo = self._bound(lo_text, line_no, line)
        hi = self._bound(hi_text, line_no, line)
        step = int(step_text) if step_text else 1
        if step < 1:
            raise ParseError("FORALL step must be positive", line_no, line)
        lhs, rhs = self._split_assign(body, line_no, line)
        ctx = self.ctx(var)
        lhs_ref = self._parse_full_ref(lhs, ctx, line_no, line)
        rhs_expr = self._parse_full_expr(rhs, ctx, line_no, line)
        on_home = None
        if home_text:
            on_home = self._parse_full_ref(home_text, ctx, line_no, line)
        return ParallelAssign(
            lhs_ref, rhs_expr, LoopSpec(var, lo, hi, step),
            f"forall@{line_no}", on_home,
        )

    def parse_assign(self, line_no: int, line: str) -> ParallelAssign:
        body = line[len("ASSIGN "):]
        lhs, rhs = self._split_assign(body, line_no, line)
        ctx = self.ctx(None)
        lhs_ref = self._parse_full_ref(lhs, ctx, line_no, line)
        rhs_expr = self._parse_full_expr(rhs, ctx, line_no, line)
        return ParallelAssign(lhs_ref, rhs_expr, None, f"assign@{line_no}")

    def parse_reduce(self, line_no: int, line: str) -> Reduce:
        m = re.fullmatch(
            r"(?i:REDUCE)\s+([A-Za-z_]\w*)\s*=\s*(?i:(SUM|MAX|MIN))\s*\("
            r"\s*([A-Za-z_]\w*)\s*=\s*(.+?)\s*,\s*(.+?)\s*:\s*(.+)\)\s*",
            line,
        )
        if not m:
            raise ParseError("malformed REDUCE", line_no, line)
        target, op, var, lo_text, hi_text, expr_text = m.groups()
        if target not in self.scalars:
            self.scalars[target] = 0.0
        lo = self._bound(lo_text, line_no, line)
        hi = self._bound(hi_text, line_no, line)
        rhs = self._parse_full_expr(expr_text, self.ctx(var), line_no, line)
        return Reduce(target, rhs, LoopSpec(var, lo, hi), op.lower(), f"reduce@{line_no}")

    def parse_let(self, line_no: int, line: str) -> ScalarAssign:
        body = line[len("LET "):]
        lhs, rhs = self._split_assign(body, line_no, line)
        target = lhs.strip()
        if not re.fullmatch(r"[A-Za-z_]\w*", target):
            raise ParseError("LET target must be a scalar name", line_no, line)
        if target not in self.scalars:
            self.scalars[target] = 0.0
        rhs_expr = self._parse_full_expr(rhs, self.ctx(None), line_no, line)
        return ScalarAssign(target, rhs_expr, f"let@{line_no}")

    def parse_sub(self, line_no: int, line: str) -> None:
        m = re.fullmatch(r"(?i:SUB)\s+([A-Za-z_]\w*)\s*\((.*)\)", line)
        if not m:
            raise ParseError("malformed SUB", line_no, line)
        name, params_text = m.group(1), m.group(2)
        if name in self.subroutines:
            raise ParseError(f"subroutine {name!r} already defined", line_no, line)
        if self._formal_decls:
            raise ParseError("nested SUB definitions are not allowed", line_no, line)
        # Formals are array specs, as in REAL: p(16, 16) [DISTRIBUTE (*, CYCLIC)]
        decls: list[ArrayDecl] = []
        for piece in re.split(r",(?![^()]*\))", params_text):
            piece = piece.strip()
            decl = parse_array_spec(piece, f"formal {piece!r}", line_no, line)
            if decl.name in self.arrays:
                raise ParseError(
                    f"formal {decl.name!r} shadows a declared array", line_no, line
                )
            decls.append(decl)
        self._formal_decls = {d.name: d for d in decls}
        self.arrays.update(self._formal_decls)  # visible while parsing the body
        try:
            body = self.parse_block(closing="END SUB")
        finally:
            for d in decls:
                self.arrays.pop(d.name, None)
            self._formal_decls = {}
        try:
            self.subroutines[name] = SubroutineDef(
                name, tuple(d.name for d in decls), tuple(body), tuple(decls)
            )
        except SubroutineError as e:
            raise ParseError(str(e), line_no, line) from None

    def parse_call(self, line_no: int, line: str) -> CallStmt:
        m = re.fullmatch(r"(?i:CALL)\s+([A-Za-z_]\w*)\s*\(([^)]*)\)", line)
        if not m:
            raise ParseError("malformed CALL", line_no, line)
        args = tuple(a.strip() for a in m.group(2).split(",") if a.strip())
        call = CallStmt(m.group(1), args)
        if not self._formal_decls:
            self._calls.append((call, line_no, line))
        return call

    # ------------------------------------------------------------------ #
    @staticmethod
    def _split_assign(text: str, line_no: int, line: str) -> tuple[str, str]:
        depth = 0
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "=" and depth == 0:
                return text[:i].strip(), text[i + 1 :].strip()
        raise ParseError("expected '=' in assignment", line_no, line)

    def _parse_full_expr(self, text: str, ctx: _Ctx, line_no: int, line: str) -> Expr:
        parser = _ExprParser(tokenize(text, line_no), ctx, line_no, line)
        expr = parser.parse_expr()
        if not parser.at_end():
            raise ParseError(
                f"trailing input after expression: {parser.peek()[1]!r}", line_no, line
            )
        return expr

    def _parse_full_ref(self, text: str, ctx: _Ctx, line_no: int, line: str) -> Ref:
        parser = _ExprParser(tokenize(text, line_no), ctx, line_no, line)
        tok = parser.next()
        if tok[0] != "name" or tok[1] not in ctx.arrays:
            raise ParseError(f"expected an array reference, got {text!r}", line_no, line)
        ref = parser.parse_ref(tok[1])
        if not parser.at_end():
            raise ParseError("trailing input after reference", line_no, line)
        return ref


def parse_program(source: str) -> Program:
    """Parse mini-HPF source text into a validated :class:`Program`."""
    return _ProgramParser(source).parse()
