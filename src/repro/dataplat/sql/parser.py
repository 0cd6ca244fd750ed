"""Recursive-descent parser for the SQL dialect.

Grammar (roughly)::

    select   := SELECT [DISTINCT] items FROM table_ref join* [WHERE expr]
                [GROUP BY expr_list [HAVING expr]]
                [ORDER BY order_list] [LIMIT number]
    items    := item ("," item)*
    item     := "*" | ident "." "*" | expr [[AS] ident]
    join     := [INNER|LEFT] JOIN table_ref ON expr
    expr     := or_expr
    or_expr  := and_expr (OR and_expr)*
    and_expr := not_expr (AND not_expr)*
    not_expr := NOT not_expr | comparison
    comparison := additive (op additive | [NOT] IN (...)
                 | [NOT] BETWEEN x AND y | [NOT] LIKE 'pattern'
                 | IS [NOT] NULL)?
    additive := multiplicative (("+"|"-") multiplicative)*
    multiplicative := unary (("*"|"/"|"%") unary)*
    unary    := "-" unary | primary
    primary  := literal | column | function | CASE ... END | "(" expr ")"
"""

from __future__ import annotations

from ...errors import SQLSyntaxError
from .ast_nodes import (
    Between,
    BinaryOp,
    ExplainStatement,
    Like,
    UnionAllStatement,
    CaseWhen,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    JoinClause,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    TableRef,
    UnaryOp,
)
from .lexer import Token, TokenType, tokenize


def parse(sql: str) -> "SelectStatement | UnionAllStatement | ExplainStatement":
    """Parse one SELECT statement, a UNION ALL chain, or an EXPLAIN."""
    parser = _Parser(tokenize(sql))
    explain = parser._match_keyword("EXPLAIN") is not None
    analyze = explain and parser._match_keyword("ANALYZE") is not None
    selects = [parser.parse_select()]
    while parser._match_keyword("UNION"):
        parser._expect_keyword("ALL")
        selects.append(parser.parse_select())
    tail = parser._peek()
    if tail.ttype is not TokenType.EOF:
        raise SQLSyntaxError(
            f"unexpected trailing input: {tail.value!r}", position=tail.position
        )
    stmt = selects[0] if len(selects) == 1 else UnionAllStatement(tuple(selects))
    return ExplainStatement(stmt, analyze=analyze) if explain else stmt


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.ttype is not TokenType.EOF:
            self._pos += 1
        return tok

    def _expect_keyword(self, word: str) -> Token:
        tok = self._peek()
        if not tok.is_keyword(word):
            raise SQLSyntaxError(
                f"expected {word}, found {tok.value or 'end of input'!r}",
                position=tok.position,
            )
        return self._advance()

    def _expect_punct(self, ch: str) -> Token:
        tok = self._peek()
        if tok.ttype is not TokenType.PUNCT or tok.value != ch:
            raise SQLSyntaxError(
                f"expected {ch!r}, found {tok.value or 'end of input'!r}",
                position=tok.position,
            )
        return self._advance()

    def _match_keyword(self, *words: str) -> Token | None:
        tok = self._peek()
        if tok.ttype is TokenType.KEYWORD and tok.value in words:
            return self._advance()
        return None

    def _match_punct(self, ch: str) -> Token | None:
        tok = self._peek()
        if tok.ttype is TokenType.PUNCT and tok.value == ch:
            return self._advance()
        return None

    def _match_operator(self, *ops: str) -> Token | None:
        tok = self._peek()
        if tok.ttype is TokenType.OPERATOR and tok.value in ops:
            return self._advance()
        return None

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.ttype is not TokenType.IDENT:
            raise SQLSyntaxError(
                f"expected identifier, found {tok.value or 'end of input'!r}",
                position=tok.position,
            )
        return self._advance()

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        distinct = self._match_keyword("DISTINCT") is not None
        items = self._parse_select_items()
        self._expect_keyword("FROM")
        table = self._parse_table_ref()
        joins = []
        while True:
            kind_tok = self._match_keyword("JOIN", "INNER", "LEFT")
            if kind_tok is None:
                break
            kind = "inner"
            if kind_tok.value in ("INNER", "LEFT"):
                kind = kind_tok.value.lower()
                self._expect_keyword("JOIN")
            joins.append(
                JoinClause(
                    table=self._parse_table_ref(),
                    kind=kind,
                    condition=self._parse_on_condition(),
                )
            )
        where = None
        if self._match_keyword("WHERE"):
            where = self._parse_expr()
        group_by: tuple[Expr, ...] = ()
        having = None
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(self._parse_expr_list())
            if self._match_keyword("HAVING"):
                having = self._parse_expr()
        order_by: list[OrderItem] = []
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                expr = self._parse_expr()
                descending = False
                if self._match_keyword("DESC"):
                    descending = True
                else:
                    self._match_keyword("ASC")
                order_by.append(OrderItem(expr, descending))
                if not self._match_punct(","):
                    break
        limit = None
        if self._match_keyword("LIMIT"):
            tok = self._peek()
            if tok.ttype is not TokenType.NUMBER:
                raise SQLSyntaxError("LIMIT requires a number", position=tok.position)
            self._advance()
            limit = int(float(tok.value))
        return SelectStatement(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_items(self) -> list[SelectItem]:
        items = []
        while True:
            if self._match_operator("*"):
                items.append(SelectItem(Star()))
            else:
                expr = self._parse_expr()
                alias = None
                if self._match_keyword("AS"):
                    alias = self._expect_ident().value
                elif self._peek().ttype is TokenType.IDENT:
                    alias = self._advance().value
                items.append(SelectItem(expr, alias))
            if not self._match_punct(","):
                return items

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_ident().value
        if self._match_punct("."):
            name = f"{name}.{self._expect_ident().value}"
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_ident().value
        elif self._peek().ttype is TokenType.IDENT:
            alias = self._advance().value
        return TableRef(name, alias)

    def _parse_on_condition(self) -> Expr:
        self._expect_keyword("ON")
        return self._parse_expr()

    def _parse_expr_list(self) -> list[Expr]:
        out = [self._parse_expr()]
        while self._match_punct(","):
            out.append(self._parse_expr())
        return out

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._match_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._match_keyword("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._match_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        op = self._match_operator("=", "<>", "!=", "<=", ">=", "<", ">")
        if op is not None:
            value = "<>" if op.value == "!=" else op.value
            return BinaryOp(value, left, self._parse_additive())
        negated = False
        if self._peek().is_keyword("NOT"):
            nxt = self._tokens[self._pos + 1]
            if nxt.ttype is TokenType.KEYWORD and nxt.value in (
                "IN", "BETWEEN", "LIKE",
            ):
                self._advance()
                negated = True
        if self._match_keyword("IN"):
            self._expect_punct("(")
            items = tuple(self._parse_expr_list())
            self._expect_punct(")")
            return InList(left, items, negated=negated)
        if self._match_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return Between(left, low, high, negated=negated)
        if self._match_keyword("LIKE"):
            tok = self._peek()
            if tok.ttype is not TokenType.STRING:
                raise SQLSyntaxError(
                    "LIKE requires a string pattern", position=tok.position
                )
            self._advance()
            return Like(left, tok.value, negated=negated)
        if self._match_keyword("IS"):
            is_negated = self._match_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return IsNull(left, negated=is_negated)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            op = self._match_operator("+", "-")
            if op is None:
                return left
            left = BinaryOp(op.value, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            op = self._match_operator("*", "/", "%")
            if op is None:
                return left
            left = BinaryOp(op.value, left, self._parse_unary())

    def _parse_unary(self) -> Expr:
        if self._match_operator("-"):
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok.ttype is TokenType.NUMBER:
            self._advance()
            text = tok.value
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if tok.ttype is TokenType.STRING:
            self._advance()
            return Literal(tok.value)
        if tok.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if tok.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if tok.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if tok.is_keyword("CASE"):
            return self._parse_case()
        if self._match_punct("("):
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        if tok.ttype is TokenType.IDENT:
            return self._parse_ident_expr()
        raise SQLSyntaxError(
            f"unexpected token {tok.value or 'end of input'!r}",
            position=tok.position,
        )

    def _parse_case(self) -> Expr:
        self._expect_keyword("CASE")
        branches = []
        while self._match_keyword("WHEN"):
            cond = self._parse_expr()
            self._expect_keyword("THEN")
            value = self._parse_expr()
            branches.append((cond, value))
        if not branches:
            raise SQLSyntaxError(
                "CASE requires at least one WHEN branch",
                position=self._peek().position,
            )
        otherwise = None
        if self._match_keyword("ELSE"):
            otherwise = self._parse_expr()
        self._expect_keyword("END")
        return CaseWhen(tuple(branches), otherwise)

    def _parse_ident_expr(self) -> Expr:
        first = self._expect_ident().value
        # Function call?
        if self._match_punct("("):
            distinct = self._match_keyword("DISTINCT") is not None
            args: tuple[Expr, ...]
            if self._match_operator("*"):
                args = (Star(),)
            elif self._match_punct(")"):
                return FunctionCall(first.upper(), (), distinct=distinct)
            else:
                args = tuple(self._parse_expr_list())
            if args and not (len(args) == 1 and isinstance(args[0], Star)):
                pass
            self._expect_punct(")")
            return FunctionCall(first.upper(), args, distinct=distinct)
        # Qualified column or star?
        if self._match_punct("."):
            if self._match_operator("*"):
                return Star(table=first)
            second = self._expect_ident().value
            return ColumnRef(second, table=first)
        return ColumnRef(first)
