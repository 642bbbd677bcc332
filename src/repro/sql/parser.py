"""SQL parser for the GridRM dialect: recursive descent over statements,
one precedence-climbing loop over expressions."""

from __future__ import annotations

from repro.sql import ast_nodes as ast
from repro.sql.errors import SqlParseError
from repro.sql.lexer import Lexer, Token, TokenType, number

#: Deepest nesting one expression may have: parenthesised levels while
#: parsing, operator levels in the tree that results.  The parser
#: recurses three frames per parenthesis (``expr``, ``binary``,
#: ``primary``) plus one per operator level it sits to the right of, nine
#: at most, and validation, plan binding and evaluation recurse once or
#: twice per tree level, so this bound is what keeps a hostile query a
#: typed error instead of a ``RecursionError``.
MAX_EXPR_DEPTH = 64

#: Child expressions per node type, for the iterative depth walk.
_CHILDREN = {
    ast.BinOp: lambda e: (e.left, e.right),
    ast.UnaryOp: lambda e: (e.operand,),
    ast.InList: lambda e: (e.expr, *e.items),
    ast.Between: lambda e: (e.expr, e.low, e.high),
    ast.IsNull: lambda e: (e.expr,),
    ast.FuncCall: lambda e: e.args,
}

_KEYWORD = TokenType.KEYWORD
_OPERATOR = TokenType.OPERATOR
_PUNCT = TokenType.PUNCT
_IDENT = TokenType.IDENT
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_EOF = TokenType.EOF

#: Binding levels, loosest first.  ``NOT`` is a prefix at its level; a
#: comparison (``=``, ``IN``, ``LIKE``, ``BETWEEN``, ``IS``, ``NOT IN``, …)
#: takes one right-hand side and does not chain.
_OR, _AND, _NOT, _CMP, _ADD, _MUL = range(1, 7)
#: Level of each infix keyword or operator, by its token value.
_INFIX = {
    "OR": _OR,
    "AND": _AND,
    **dict.fromkeys(("=", "!=", "<>", "<", "<=", ">", ">="), _CMP),
    **dict.fromkeys(("IN", "LIKE", "BETWEEN", "IS", "NOT"), _CMP),
    **dict.fromkeys(("+", "-"), _ADD),
    **dict.fromkeys(("*", "/", "%"), _MUL),
}
_NEGATABLE = frozenset(("IN", "LIKE", "BETWEEN"))
_AGGREGATES = frozenset(("COUNT", "SUM", "AVG", "MIN", "MAX"))
_COLUMN_TYPES = frozenset(("INTEGER", "REAL", "TEXT", "BOOLEAN", "TIMESTAMP"))
#: Keywords that may name a column (e.g. "Timestamp"); the name keeps
#: its source spelling through the token's raw text.
SOFT_KEYWORDS = _COLUMN_TYPES | _AGGREGATES


def parse_statement(text: str) -> ast.Statement:
    """Parse one SQL statement (trailing ``;`` allowed)."""
    return _Parser(text).statement()


def parse_select(text: str) -> ast.Select:
    """Parse a statement that must be a SELECT (drivers only accept reads)."""
    stmt = parse_statement(text)
    if not isinstance(stmt, ast.Select):
        raise SqlParseError(f"expected SELECT statement, got {type(stmt).__name__}")
    return stmt


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.toks = Lexer(text).tokens()
        self.i = 0
        self.tok = self.toks[0]
        self.depth = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def advance(self) -> Token:
        tok = self.tok
        if tok.type is not _EOF:
            self.i += 1
            self.tok = self.toks[self.i]
        return tok

    def accept_keyword(self, name: str) -> bool:
        tok = self.tok
        if tok.type is _KEYWORD and tok.value == name:
            self.advance()
            return True
        return False

    def expect_keyword(self, name: str) -> None:
        if not self.accept_keyword(name):
            self.fail(f"expected {name}")

    def accept_punct(self, ch: str) -> bool:
        tok = self.tok
        if tok.type is _PUNCT and tok.value == ch:
            self.advance()
            return True
        return False

    def expect_punct(self, ch: str) -> None:
        if not self.accept_punct(ch):
            self.fail(f"expected {ch!r}")

    def expect_ident(self) -> str:
        tok = self.tok
        if tok.type is _IDENT:
            self.advance()
            return tok.value
        if tok.type is _KEYWORD and tok.value in SOFT_KEYWORDS:
            self.advance()
            return tok.raw or tok.value
        self.fail("expected identifier")
        raise AssertionError  # unreachable

    def fail(self, message: str, tok: Token | None = None) -> None:
        tok = tok or self.tok
        raise SqlParseError(
            f"{message} at position {tok.pos} (near {tok.value!r}) in {self.text!r}",
            tok.pos,
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def statement(self) -> ast.Statement:
        tok = self.tok
        word = tok.value if tok.type is _KEYWORD else ""
        if word == "SELECT":
            stmt: ast.Statement = self.select()
        elif word == "INSERT":
            stmt = self.insert()
        elif word == "UPDATE":
            stmt = self.update()
        elif word == "DELETE":
            stmt = self.delete()
        elif word == "CREATE":
            stmt = self.create_table()
        elif word == "DROP":
            stmt = self.drop_table()
        else:
            self.fail("expected a statement keyword")
            raise AssertionError
        self.accept_punct(";")
        if self.tok.type is not _EOF:
            self.fail("unexpected trailing input")
        return stmt

    # Each statement method starts on its (already checked) keyword.
    def select(self) -> ast.Select:
        self.advance()
        distinct = self.accept_keyword("DISTINCT")
        items = [self.select_item()]
        while self.accept_punct(","):
            items.append(self.select_item())
        self.expect_keyword("FROM")
        table = self.expect_ident()
        extra_tables: list[str] = []
        while self.accept_punct(","):
            extra_tables.append(self.expect_ident())

        where = self.expr() if self.accept_keyword("WHERE") else None

        group_by: tuple[ast.Expr, ...] = ()
        having = None
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            keys = [self.expr()]
            while self.accept_punct(","):
                keys.append(self.expr())
            group_by = tuple(keys)
            if self.accept_keyword("HAVING"):
                having = self.expr()

        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.order_item())
            while self.accept_punct(","):
                order_by.append(self.order_item())

        limit = offset = None
        if self.accept_keyword("LIMIT"):
            limit = self.int_literal()
            if self.accept_keyword("OFFSET"):
                offset = self.int_literal()

        return ast.Select(
            items=tuple(items),
            table=table,
            where=where,
            group_by=group_by,
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
            extra_tables=tuple(extra_tables),
        )

    def select_item(self) -> ast.SelectItem:
        expr = self.expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.tok.type is _IDENT:
            alias = self.advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def order_item(self) -> ast.OrderItem:
        expr = self.expr()
        descending = self.accept_keyword("DESC")
        if not descending:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    def int_literal(self) -> int:
        tok = self.tok
        if tok.type is not _NUMBER:
            self.fail("expected integer")
        self.advance()
        try:
            return int(tok.value)
        except ValueError:
            self.fail(f"expected integer, got {tok.value!r}", tok)
            raise AssertionError from None

    def insert(self) -> ast.Insert:
        self.advance()
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns: list[str] = []
        self.expect_punct("(")
        columns.append(self.expect_ident())
        while self.accept_punct(","):
            columns.append(self.expect_ident())
        self.expect_punct(")")
        self.expect_keyword("VALUES")
        rows: list[tuple[ast.Expr, ...]] = []
        while True:
            self.expect_punct("(")
            values = [self.expr()]
            while self.accept_punct(","):
                values.append(self.expr())
            self.expect_punct(")")
            if len(values) != len(columns):
                self.fail(
                    f"INSERT arity mismatch: {len(columns)} columns, "
                    f"{len(values)} values"
                )
            rows.append(tuple(values))
            if not self.accept_punct(","):
                break
        return ast.Insert(table=table, columns=tuple(columns), rows=tuple(rows))

    def update(self) -> ast.Update:
        self.advance()
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments: list[tuple[str, ast.Expr]] = []
        while True:
            col = self.expect_ident()
            if self.tok.type is not _OPERATOR or self.tok.value != "=":
                self.fail("expected '=' in SET clause")
            self.advance()
            assignments.append((col, self.expr()))
            if not self.accept_punct(","):
                break
        where = self.expr() if self.accept_keyword("WHERE") else None
        return ast.Update(table=table, assignments=tuple(assignments), where=where)

    def delete(self) -> ast.Delete:
        self.advance()
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = self.expr() if self.accept_keyword("WHERE") else None
        return ast.Delete(table=table, where=where)

    def create_table(self) -> ast.CreateTable:
        self.advance()
        self.expect_keyword("TABLE")
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        table = self.expect_ident()
        self.expect_punct("(")
        columns: list[ast.ColumnDef] = []
        while True:
            name = self.expect_ident()
            ctype = "TEXT"
            if self.tok.type is _KEYWORD and self.tok.value in _COLUMN_TYPES:
                ctype = self.advance().value
            columns.append(ast.ColumnDef(name=name, type=ctype))
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return ast.CreateTable(
            table=table, columns=tuple(columns), if_not_exists=if_not_exists
        )

    def drop_table(self) -> ast.DropTable:
        self.advance()
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        return ast.DropTable(table=self.expect_ident(), if_exists=if_exists)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def expr(self) -> ast.Expr:
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            self.fail_too_deep()
        try:
            node = self.binary(_OR)
        finally:
            self.depth -= 1
        # Each tree level takes a token of its own, so a text of at most
        # MAX_EXPR_DEPTH tokens cannot build a tree deeper than that.
        if self.depth == 0 and len(self.toks) > MAX_EXPR_DEPTH:
            self.check_tree_depth(node)
        return node

    def fail_too_deep(self) -> None:
        self.fail(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")

    def check_tree_depth(self, root: ast.Expr) -> None:
        """Bound the finished tree's depth.  Operator chains
        (``a OR b OR ...``, ``NOT NOT ...``) parse in loops yet nest the
        tree one level per operator, so the walk is iterative too."""
        stack = [(root, 1)]
        while stack:
            node, depth = stack.pop()
            if depth > MAX_EXPR_DEPTH:
                self.fail_too_deep()
            children = _CHILDREN.get(type(node))
            if children is not None:
                stack.extend((child, depth + 1) for child in children(node))

    def binary(self, floor: int) -> ast.Expr:
        """An expression whose infix operators all bind at ``floor`` or
        tighter.  A chain of one level loops here and each right-hand
        side binds one level tighter, so ``a - b - c`` is ``(a - b) - c``.
        ``ceiling`` is the tightest level that may still extend ``left``:
        after ``a + b`` no ``*``, and after a comparison or a NOT prefix
        only AND and OR (comparisons do not chain)."""
        tok = self.tok
        if floor <= _NOT and tok.type is _KEYWORD and tok.value == "NOT":
            nots = 0
            while tok.type is _KEYWORD and tok.value == "NOT":
                nots += 1
                self.advance()
                tok = self.tok
            left = self.binary(_CMP)
            for _ in range(nots):
                left = ast.UnaryOp("NOT", left)
            ceiling = _AND
        else:
            negations = 0
            while tok.type is _OPERATOR and (tok.value == "-" or tok.value == "+"):
                negations += tok.value == "-"
                self.advance()
                tok = self.tok
            left = self.primary()
            for _ in range(negations):
                left = ast.UnaryOp("-", left)
            ceiling = _MUL
        while True:
            tok = self.tok
            if tok.type is not _KEYWORD and tok.type is not _OPERATOR:
                return left
            level = _INFIX.get(tok.value)
            if level is None or not floor <= level <= ceiling:
                return left
            if level == _CMP:
                if tok.value == "NOT":  # only NOT IN / NOT LIKE / NOT BETWEEN
                    nxt = self.toks[self.i + 1]
                    if nxt.type is not _KEYWORD or nxt.value not in _NEGATABLE:
                        return left
                left = self.comparison(left)
                ceiling = _AND
                continue
            self.advance()
            left = ast.BinOp(tok.value, left, self.binary(level + 1))
            ceiling = level

    def comparison(self, left: ast.Expr) -> ast.Expr:
        """``left`` and one comparison, read from its operator on."""
        tok = self.advance()
        op = tok.value
        if tok.type is _OPERATOR:
            return ast.BinOp("!=" if op == "<>" else op, left, self.binary(_ADD))
        negated = op == "NOT"
        if negated:
            op = self.advance().value
        if op == "IN":
            self.expect_punct("(")
            items = [self.expr()]
            while self.accept_punct(","):
                items.append(self.expr())
            self.expect_punct(")")
            return ast.InList(expr=left, items=tuple(items), negated=negated)
        if op == "LIKE":
            node = ast.BinOp("LIKE", left, self.binary(_ADD))
            return ast.UnaryOp("NOT", node) if negated else node
        if op == "BETWEEN":
            low = self.binary(_ADD)
            self.expect_keyword("AND")
            high = self.binary(_ADD)
            return ast.Between(expr=left, low=low, high=high, negated=negated)
        is_not = self.accept_keyword("NOT")  # IS [NOT] NULL
        self.expect_keyword("NULL")
        return ast.IsNull(expr=left, negated=is_not)

    def primary(self) -> ast.Expr:
        tok = self.tok
        kind = tok.type
        if kind is _IDENT or (kind is _KEYWORD and tok.value in _COLUMN_TYPES):
            name = self.expect_ident()
            tok = self.tok
            if tok.type is _PUNCT and tok.value == "(":  # a function call
                return self.func_call(name.upper())
            if tok.type is _PUNCT and tok.value == ".":  # table.column, table.*
                self.advance()
                tok = self.tok
                if tok.type is _OPERATOR and tok.value == "*":
                    self.advance()
                    return ast.Star(table=name)
                return ast.Column(self.expect_ident(), name)
            return ast.Column(name)
        if kind is _NUMBER:
            self.advance()
            try:
                value = number(tok.value)
            except ValueError:
                self.fail("unreadable number", tok)
                raise AssertionError from None
            return ast.Literal(value)
        if kind is _STRING:
            self.advance()
            return ast.Literal(tok.value)
        if kind is _KEYWORD:
            word = tok.value
            if word in _AGGREGATES:
                self.advance()
                return self.func_call(word)
            if word == "NULL" or word == "TRUE" or word == "FALSE":
                self.advance()
                return ast.Literal(None if word == "NULL" else word == "TRUE")
            self.fail("expected identifier")
        if kind is _OPERATOR and tok.value == "*":
            self.advance()
            return ast.Star()
        if kind is _PUNCT and tok.value == "(":
            self.advance()
            inner = self.expr()
            self.expect_punct(")")
            return inner
        self.fail("expected expression")
        raise AssertionError

    def func_call(self, name: str) -> ast.FuncCall:
        self.expect_punct("(")
        if self.tok.type is _OPERATOR and self.tok.value == "*":
            self.advance()
            self.expect_punct(")")
            return ast.FuncCall(name=name, star=True)
        distinct = self.accept_keyword("DISTINCT")
        args = [self.expr()]
        while self.accept_punct(","):
            args.append(self.expr())
        self.expect_punct(")")
        return ast.FuncCall(name=name, args=tuple(args), distinct=distinct)
