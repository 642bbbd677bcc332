"""Recursive-descent SQL parser for the GridRM dialect."""

from __future__ import annotations

from repro.sql import ast_nodes as ast
from repro.sql.errors import SqlParseError
from repro.sql.lexer import Lexer, Token, TokenType

#: Deepest nesting one expression may have: parenthesised levels while
#: parsing, operator levels in the tree that results.  The parser
#: recurses nine frames per parenthesis, and validation, plan binding and
#: evaluation recurse once or twice per tree level, so this bound is what
#: keeps a hostile query a typed error instead of a ``RecursionError``.
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
        self.depth = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.type is not TokenType.EOF:
            self.i += 1
        return tok

    def accept_keyword(self, *names: str) -> bool:
        if self.cur.is_keyword(*names):
            self.advance()
            return True
        return False

    def expect_keyword(self, name: str) -> None:
        if not self.accept_keyword(name):
            self.fail(f"expected {name}")

    def accept_punct(self, ch: str) -> bool:
        if self.cur.type is TokenType.PUNCT and self.cur.value == ch:
            self.advance()
            return True
        return False

    def expect_punct(self, ch: str) -> None:
        if not self.accept_punct(ch):
            self.fail(f"expected {ch!r}")

    def accept_op(self, *ops: str) -> str | None:
        if self.cur.type is TokenType.OPERATOR and self.cur.value in ops:
            return self.advance().value
        return None

    def expect_ident(self) -> str:
        if self.cur.type is TokenType.IDENT:
            return self.advance().value
        # Permit non-reserved-looking keywords as identifiers where
        # unambiguous (e.g. a column named "Timestamp"), preserving the
        # source spelling via the token's raw text.
        if self.cur.type is TokenType.KEYWORD and self.cur.value in (
            "TIMESTAMP",
            "TEXT",
            "REAL",
            "INTEGER",
            "BOOLEAN",
            "COUNT",
            "SUM",
            "AVG",
            "MIN",
            "MAX",
        ):
            tok = self.advance()
            return tok.raw or tok.value
        self.fail("expected identifier")
        raise AssertionError  # unreachable

    def fail(self, message: str) -> None:
        tok = self.cur
        raise SqlParseError(
            f"{message} at position {tok.pos} (near {tok.value!r}) in {self.text!r}",
            tok.pos,
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def statement(self) -> ast.Statement:
        if self.cur.is_keyword("SELECT"):
            stmt: ast.Statement = self.select()
        elif self.cur.is_keyword("INSERT"):
            stmt = self.insert()
        elif self.cur.is_keyword("UPDATE"):
            stmt = self.update()
        elif self.cur.is_keyword("DELETE"):
            stmt = self.delete()
        elif self.cur.is_keyword("CREATE"):
            stmt = self.create_table()
        elif self.cur.is_keyword("DROP"):
            stmt = self.drop_table()
        else:
            self.fail("expected a statement keyword")
            raise AssertionError
        self.accept_punct(";")
        if self.cur.type is not TokenType.EOF:
            self.fail("unexpected trailing input")
        return stmt

    def select(self) -> ast.Select:
        self.expect_keyword("SELECT")
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
        elif self.cur.type is TokenType.IDENT:
            alias = self.advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def order_item(self) -> ast.OrderItem:
        expr = self.expr()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    def int_literal(self) -> int:
        if self.cur.type is not TokenType.NUMBER:
            self.fail("expected integer")
        value = self.advance().value
        try:
            return int(value)
        except ValueError:
            self.fail(f"expected integer, got {value!r}")
            raise AssertionError from None

    def insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
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
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments: list[tuple[str, ast.Expr]] = []
        while True:
            col = self.expect_ident()
            if not self.accept_op("="):
                self.fail("expected '=' in SET clause")
            assignments.append((col, self.expr()))
            if not self.accept_punct(","):
                break
        where = self.expr() if self.accept_keyword("WHERE") else None
        return ast.Update(table=table, assignments=tuple(assignments), where=where)

    def delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = self.expr() if self.accept_keyword("WHERE") else None
        return ast.Delete(table=table, where=where)

    def create_table(self) -> ast.CreateTable:
        self.expect_keyword("CREATE")
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
            if self.cur.is_keyword("INTEGER", "REAL", "TEXT", "BOOLEAN", "TIMESTAMP"):
                ctype = self.advance().value
            columns.append(ast.ColumnDef(name=name, type=ctype))
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return ast.CreateTable(
            table=table, columns=tuple(columns), if_not_exists=if_not_exists
        )

    def drop_table(self) -> ast.DropTable:
        self.expect_keyword("DROP")
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
            node = self.or_expr()
        finally:
            self.depth -= 1
        if self.depth == 0:
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

    def or_expr(self) -> ast.Expr:
        left = self.and_expr()
        while self.accept_keyword("OR"):
            left = ast.BinOp(op="OR", left=left, right=self.and_expr())
        return left

    def and_expr(self) -> ast.Expr:
        left = self.not_expr()
        while self.accept_keyword("AND"):
            left = ast.BinOp(op="AND", left=left, right=self.not_expr())
        return left

    def not_expr(self) -> ast.Expr:
        nots = 0
        while self.accept_keyword("NOT"):
            nots += 1
        node = self.comparison()
        for _ in range(nots):
            node = ast.UnaryOp(op="NOT", operand=node)
        return node

    def comparison(self) -> ast.Expr:
        left = self.additive()
        op = self.accept_op("=", "!=", "<>", "<", "<=", ">", ">=")
        if op is not None:
            if op == "<>":
                op = "!="
            return ast.BinOp(op=op, left=left, right=self.additive())

        negated = False
        if self.cur.is_keyword("NOT"):
            # Lookahead for NOT IN / NOT LIKE / NOT BETWEEN.
            nxt = self.toks[self.i + 1]
            if nxt.is_keyword("IN", "LIKE", "BETWEEN"):
                self.advance()
                negated = True

        if self.accept_keyword("IN"):
            self.expect_punct("(")
            items = [self.expr()]
            while self.accept_punct(","):
                items.append(self.expr())
            self.expect_punct(")")
            return ast.InList(expr=left, items=tuple(items), negated=negated)
        if self.accept_keyword("LIKE"):
            node = ast.BinOp(op="LIKE", left=left, right=self.additive())
            return ast.UnaryOp(op="NOT", operand=node) if negated else node
        if self.accept_keyword("BETWEEN"):
            low = self.additive()
            self.expect_keyword("AND")
            high = self.additive()
            return ast.Between(expr=left, low=low, high=high, negated=negated)
        if self.accept_keyword("IS"):
            is_not = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return ast.IsNull(expr=left, negated=is_not)
        return left

    def additive(self) -> ast.Expr:
        left = self.multiplicative()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return left
            left = ast.BinOp(op=op, left=left, right=self.multiplicative())

    def multiplicative(self) -> ast.Expr:
        left = self.unary()
        while True:
            op = self.accept_op("*", "/", "%")
            if op is None:
                return left
            left = ast.BinOp(op=op, left=left, right=self.unary())

    def unary(self) -> ast.Expr:
        negations = 0
        while (sign := self.accept_op("-", "+")) is not None:
            negations += sign == "-"
        node = self.primary()
        for _ in range(negations):
            node = ast.UnaryOp(op="-", operand=node)
        return node

    def primary(self) -> ast.Expr:
        tok = self.cur
        if tok.type is TokenType.NUMBER:
            self.advance()
            text = tok.value
            value: object
            if "." in text or "e" in text or "E" in text:
                value = float(text)
            else:
                value = int(text)
            return ast.Literal(value)
        if tok.type is TokenType.STRING:
            self.advance()
            return ast.Literal(tok.value)
        if tok.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if tok.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if tok.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)
        if tok.is_keyword("COUNT", "SUM", "AVG", "MIN", "MAX"):
            self.advance()
            return self.func_call(tok.value)
        if tok.type is TokenType.OPERATOR and tok.value == "*":
            self.advance()
            return ast.Star()
        if self.accept_punct("("):
            inner = self.expr()
            self.expect_punct(")")
            return inner
        if tok.type is TokenType.IDENT or tok.type is TokenType.KEYWORD:
            name = self.expect_ident()
            # Function call on a plain identifier.
            if self.cur.type is TokenType.PUNCT and self.cur.value == "(":
                return self.func_call(name.upper())
            # Qualified name: table.column or table.*
            if self.accept_punct("."):
                if self.cur.type is TokenType.OPERATOR and self.cur.value == "*":
                    self.advance()
                    return ast.Star(table=name)
                return ast.Column(name=self.expect_ident(), table=name)
            return ast.Column(name=name)
        self.fail("expected expression")
        raise AssertionError

    def func_call(self, name: str) -> ast.FuncCall:
        self.expect_punct("(")
        if self.cur.type is TokenType.OPERATOR and self.cur.value == "*":
            self.advance()
            self.expect_punct(")")
            return ast.FuncCall(name=name, star=True)
        distinct = self.accept_keyword("DISTINCT")
        args = [self.expr()]
        while self.accept_punct(","):
            args.append(self.expr())
        self.expect_punct(")")
        return ast.FuncCall(name=name, args=tuple(args), distinct=distinct)
