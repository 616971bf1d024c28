"""Recursive-descent parser for the Fortran subset.

The parser works over logical lines produced by the lexer.  It accepts
the constructs the benchmark kernels need — procedure/subroutine
definitions, typed declarations with ``dimension`` and ``kind``
attributes, ``do`` loops, block and one-line ``if`` statements, scalar
and array assignments, ``call`` statements and unstructured control
transfers (the latter two are parsed so the candidate identifier can
*reject* the loops that contain them, matching §5.1).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.frontend.ast import (
    Assignment,
    BinExpr,
    CallStmt,
    CompareExpr,
    ControlStmt,
    Declaration,
    DoLoop,
    FExpr,
    IfBlock,
    LogicalExpr,
    Num,
    Procedure,
    Program,
    Ref,
    UnaryExpr,
)
from repro.frontend.lexer import Token, iter_logical_lines, tokenize


class ParseError(Exception):
    """Raised on any syntax error, with the offending line number."""


class _LineParser:
    """Expression/sub-statement parser over a single logical line."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.line = tokens[0].line if tokens else 0

    # -- token helpers -----------------------------------------------------
    def peek(self, offset: int = 0) -> Optional[Token]:
        index = self.pos + offset
        if index < len(self.tokens):
            return self.tokens[index]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError(f"line {self.line}: unexpected end of line")
        self.pos += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.next()
        if token.kind != kind or (text is not None and token.text != text):
            raise ParseError(
                f"line {token.line}: expected {text or kind}, found {token.text!r}"
            )
        return token

    def at(self, kind: str, text: Optional[str] = None, offset: int = 0) -> bool:
        token = self.peek(offset)
        if token is None:
            return False
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    # -- expressions ---------------------------------------------------------
    def parse_expression(self) -> FExpr:
        return self._parse_or()

    def _parse_or(self) -> FExpr:
        left = self._parse_and()
        while self.at("LOGOP", ".or."):
            self.next()
            right = self._parse_and()
            left = LogicalExpr(".or.", (left, right))
        return left

    def _parse_and(self) -> FExpr:
        left = self._parse_not()
        while self.at("LOGOP", ".and."):
            self.next()
            right = self._parse_not()
            left = LogicalExpr(".and.", (left, right))
        return left

    def _parse_not(self) -> FExpr:
        if self.at("LOGOP", ".not."):
            self.next()
            return LogicalExpr(".not.", (self._parse_not(),))
        return self._parse_comparison()

    _REL_NORMALISE = {
        ".eq.": "==",
        ".ne.": "/=",
        ".lt.": "<",
        ".le.": "<=",
        ".gt.": ">",
        ".ge.": ">=",
    }

    def _parse_comparison(self) -> FExpr:
        left = self._parse_additive()
        if self.at("RELOP") or self.at("OP", "="):
            if self.at("RELOP"):
                op = self.next().text
                op = self._REL_NORMALISE.get(op, op)
                right = self._parse_additive()
                return CompareExpr(op, left, right)
        return left

    def _parse_additive(self) -> FExpr:
        left = self._parse_multiplicative()
        while self.at("OP", "+") or self.at("OP", "-"):
            op = self.next().text
            right = self._parse_multiplicative()
            left = BinExpr(op, left, right)
        return left

    def _parse_multiplicative(self) -> FExpr:
        left = self._parse_unary()
        while self.at("OP", "*") or self.at("OP", "/"):
            op = self.next().text
            right = self._parse_unary()
            left = BinExpr(op, left, right)
        return left

    def _parse_unary(self) -> FExpr:
        if self.at("OP", "-") or self.at("OP", "+"):
            op = self.next().text
            return UnaryExpr(op, self._parse_unary())
        return self._parse_power()

    def _parse_power(self) -> FExpr:
        base = self._parse_primary()
        if self.at("POW"):
            self.next()
            exponent = self._parse_unary()
            return BinExpr("**", base, exponent)
        return base

    def _parse_primary(self) -> FExpr:
        token = self.peek()
        if token is None:
            raise ParseError(f"line {self.line}: unexpected end of expression")
        if token.kind == "NUMBER":
            self.next()
            is_real = any(ch in token.text.lower() for ch in ".de")
            return Num(token.text, is_real)
        if token.kind in {"IDENT", "KEYWORD"}:
            # Keywords such as ``min``/``max`` never reach here, but some
            # loop bounds use identifiers shadowing keywords; accept both.
            self.next()
            name = token.text
            if self.at("OP", "("):
                self.next()
                args = self._parse_arglist()
                self.expect("OP", ")")
                return Ref(name, tuple(args))
            return Ref(name)
        if token.kind == "OP" and token.text == "(":
            self.next()
            inner = self.parse_expression()
            self.expect("OP", ")")
            return inner
        raise ParseError(f"line {token.line}: unexpected token {token.text!r}")

    def _parse_arglist(self) -> List[FExpr]:
        args: List[FExpr] = []
        if self.at("OP", ")"):
            return args
        args.append(self.parse_expression())
        while self.at("OP", ","):
            self.next()
            args.append(self.parse_expression())
        return args

    # -- dimension specs -----------------------------------------------------
    def parse_dim_spec(self) -> Tuple[Tuple[FExpr, FExpr], ...]:
        """Parse ``(lo:hi, lo:hi, ...)`` or ``(n, m, ...)`` after ``dimension``."""
        self.expect("OP", "(")
        dims: List[Tuple[FExpr, FExpr]] = []
        while True:
            first = self.parse_expression()
            if self.at("OP", ":"):
                self.next()
                second = self.parse_expression()
                dims.append((first, second))
            else:
                dims.append((Num("1", False), first))
            if self.at("OP", ","):
                self.next()
                continue
            break
        self.expect("OP", ")")
        return tuple(dims)


class Parser:
    """Parses a whole source file into a :class:`Program`."""

    def __init__(self, source: str):
        self.lines = list(iter_logical_lines(tokenize(source)))
        self.index = 0

    def _peek_line(self) -> Optional[List[Token]]:
        if self.index < len(self.lines):
            return self.lines[self.index]
        return None

    def _next_line(self) -> List[Token]:
        line = self._peek_line()
        if line is None:
            raise ParseError("unexpected end of file")
        self.index += 1
        return line

    def parse(self) -> Program:
        program = Program()
        while self._peek_line() is not None:
            line = self._peek_line()
            assert line is not None
            first = line[0]
            if first.kind == "KEYWORD" and first.text in {"subroutine", "procedure", "function"}:
                program.procedures.append(self._parse_procedure())
            elif first.kind == "ANNOTATION":
                # Annotation outside a procedure: attach to the next one by
                # buffering — simplest is to skip standalone annotations.
                self._next_line()
            else:
                raise ParseError(
                    f"line {first.line}: expected a procedure definition, found {first.text!r}"
                )
        return program

    # -- procedures ------------------------------------------------------------
    def _parse_procedure(self) -> Procedure:
        header = self._next_line()
        lp = _LineParser(header)
        lp.expect("KEYWORD")  # subroutine / procedure / function
        name_token = lp.next()
        if name_token.kind not in {"IDENT", "KEYWORD"}:
            raise ParseError(f"line {name_token.line}: expected procedure name")
        params: List[str] = []
        if lp.at("OP", "("):
            lp.next()
            while not lp.at("OP", ")"):
                param = lp.next()
                if param.kind in {"IDENT", "KEYWORD"}:
                    params.append(param.text)
                elif param.kind == "OP" and param.text == ",":
                    continue
                else:
                    raise ParseError(f"line {param.line}: bad parameter list")
            lp.expect("OP", ")")
        proc = Procedure(name=name_token.text, params=params, line=name_token.line)
        proc.body = self._parse_statements(proc, terminators=("end",))
        return proc

    def _parse_statements(self, proc: Procedure, terminators: Tuple[str, ...]) -> List:
        """Parse statements until one of ``terminators`` starts a line."""
        statements: List = []
        while True:
            line = self._peek_line()
            if line is None:
                raise ParseError("unexpected end of file inside a block")
            first = line[0]
            text = first.text
            if (
                first.kind == "KEYWORD"
                and text == "end"
                and len(line) > 1
                and line[1].kind == "KEYWORD"
                and line[1].text in {"do", "if"}
            ):
                # "end do" / "end if" written with a space.
                text = "end" + line[1].text
            if first.kind == "KEYWORD" and text in terminators:
                self._next_line()
                return statements
            if first.kind == "KEYWORD" and text in {"else", "elseif"}:
                # handled by the caller (if-block); do not consume.
                return statements
            stmt = self._parse_statement(proc)
            if not isinstance(stmt, Declaration):
                statements.append(stmt)

    # -- individual statements ---------------------------------------------------
    def _parse_statement(self, proc: Procedure):
        line = self._next_line()
        first = line[0]
        if first.kind == "ANNOTATION":
            proc.annotations.append(first.text)
            return self._parse_statement(proc)
        if first.kind == "KEYWORD":
            text = first.text
            if text in {"real", "integer", "logical", "double"}:
                decl = self._parse_declaration(line)
                proc.declarations.append(decl)
                return decl
            if text == "implicit":
                return Declaration("implicit", [], {}, line=first.line)
            if text == "do":
                return self._parse_do(proc, line)
            if text == "if":
                return self._parse_if(proc, line)
            if text == "call":
                lp = _LineParser(line[1:])
                callee = lp.next().text
                args: Tuple[FExpr, ...] = ()
                if lp.at("OP", "("):
                    lp.next()
                    args = tuple(lp._parse_arglist())
                return CallStmt(callee, args, line=first.line)
            if text in {"exit", "cycle", "goto", "return", "continue"}:
                return ControlStmt(text, line=first.line)
        # Otherwise this is an assignment: lhs = rhs
        return self._parse_assignment(line)

    def _parse_declaration(self, line: List[Token]) -> Declaration:
        lp = _LineParser(line)
        first = lp.next()
        base_type = first.text
        kind: Optional[str] = None
        is_pointer = False
        intent: Optional[str] = None
        shared_dims: Optional[Tuple[Tuple[FExpr, FExpr], ...]] = None
        if base_type == "double":
            lp.expect("KEYWORD", "precision")
            base_type = "real"
            kind = "8"
        # attribute list up to ``::``
        while not lp.at("DCOLON") and not lp.done():
            token = lp.peek()
            assert token is not None
            if token.kind == "OP" and token.text == "(":
                # e.g. real (kind=8)  or real(8)
                lp.next()
                if lp.at("KEYWORD", "kind"):
                    lp.next()
                    lp.expect("OP", "=")
                kind_token = lp.next()
                kind = kind_token.text
                lp.expect("OP", ")")
            elif token.kind == "OP" and token.text == ",":
                lp.next()
            elif token.kind == "KEYWORD" and token.text == "dimension":
                lp.next()
                shared_dims = lp.parse_dim_spec()
            elif token.kind == "KEYWORD" and token.text == "pointer":
                lp.next()
                is_pointer = True
            elif token.kind == "KEYWORD" and token.text in {"allocatable", "target", "parameter"}:
                lp.next()
            elif token.kind == "KEYWORD" and token.text == "intent":
                lp.next()
                lp.expect("OP", "(")
                intent_token = lp.next()
                intent = intent_token.text
                lp.expect("OP", ")")
            else:
                break
        names: List[str] = []
        dims: dict = {}
        if lp.at("DCOLON"):
            lp.next()
        while not lp.done():
            token = lp.next()
            if token.kind in {"IDENT", "KEYWORD"}:
                names.append(token.text)
                if lp.at("OP", "("):
                    dims[token.text] = lp.parse_dim_spec()
                else:
                    dims[token.text] = shared_dims
            elif token.kind == "OP" and token.text == ",":
                continue
            elif token.kind == "OP" and token.text == "=":
                # initialiser: skip the rest of the entity
                while not lp.done() and not lp.at("OP", ","):
                    lp.next()
            else:
                raise ParseError(f"line {token.line}: bad declaration near {token.text!r}")
        for name in names:
            dims.setdefault(name, shared_dims)
        return Declaration(
            base_type=base_type,
            names=names,
            dims=dims,
            kind=kind,
            is_pointer=is_pointer,
            intent=intent,
            line=line[0].line,
        )

    def _parse_do(self, proc: Procedure, line: List[Token]) -> DoLoop:
        lp = _LineParser(line)
        lp.expect("KEYWORD", "do")
        var_token = lp.next()
        if var_token.kind not in {"IDENT", "KEYWORD"}:
            raise ParseError(f"line {var_token.line}: expected loop variable")
        lp.expect("OP", "=")
        lower = lp.parse_expression()
        lp.expect("OP", ",")
        upper = lp.parse_expression()
        step: Optional[FExpr] = None
        if lp.at("OP", ","):
            lp.next()
            step = lp.parse_expression()
        body = self._parse_statements(proc, terminators=("enddo",))
        return DoLoop(var_token.text, lower, upper, step, body, line=line[0].line)

    def _parse_if(self, proc: Procedure, line: List[Token]) -> IfBlock:
        lp = _LineParser(line)
        lp.expect("KEYWORD", "if")
        lp.expect("OP", "(")
        condition = lp.parse_expression()
        lp.expect("OP", ")")
        if lp.at("KEYWORD", "then"):
            lp.next()
            then_body = self._parse_statements(proc, terminators=("endif",))
            else_body: List = []
            next_line = self._peek_line()
            if next_line is not None and next_line[0].kind == "KEYWORD" and next_line[0].text == "else":
                self._next_line()
                else_body = self._parse_statements(proc, terminators=("endif",))
            return IfBlock(condition, then_body, else_body, line=line[0].line)
        # One-line logical if: ``if (cond) statement``
        inner_tokens = line[lp.pos:]
        if not inner_tokens:
            raise ParseError(f"line {line[0].line}: empty one-line if")
        inner_stmt = self._parse_inline_statement(inner_tokens)
        return IfBlock(condition, [inner_stmt], [], line=line[0].line)

    def _parse_inline_statement(self, tokens: List[Token]):
        first = tokens[0]
        if first.kind == "KEYWORD" and first.text in {"exit", "cycle", "goto", "return", "continue"}:
            return ControlStmt(first.text, line=first.line)
        if first.kind == "KEYWORD" and first.text == "call":
            lp = _LineParser(tokens[1:])
            callee = lp.next().text
            args: Tuple[FExpr, ...] = ()
            if lp.at("OP", "("):
                lp.next()
                args = tuple(lp._parse_arglist())
            return CallStmt(callee, args, line=first.line)
        return self._parse_assignment(tokens)

    def _parse_assignment(self, line: List[Token]) -> Assignment:
        lp = _LineParser(line)
        target = lp._parse_primary()
        if not isinstance(target, Ref):
            raise ParseError(f"line {line[0].line}: assignment target must be a name")
        lp.expect("OP", "=")
        value = lp.parse_expression()
        if not lp.done():
            trailing = lp.peek()
            assert trailing is not None
            raise ParseError(
                f"line {trailing.line}: unexpected trailing tokens near {trailing.text!r}"
            )
        return Assignment(target, value, line=line[0].line)


def parse_source(source: str) -> Program:
    """Parse Fortran source text into a :class:`Program`."""
    return Parser(source).parse()
