"""Unit tests for the SQL front end: lexer, parser, binder, catalog."""

import datetime as dt

import pytest

from repro import Database, SQLType
from repro.catalog import Catalog
from repro.errors import BindError, CatalogError, LexerError, ParserError
from repro.semantics import Binder
from repro.semantics.expressions import (
    AggregateExpr,
    ColumnExpr,
    ComparisonExpr,
    LikeExpr,
    LiteralExpr,
    collect_aggregates,
)
from repro.sqlparser import ast, parse, tokenize
from repro.sqlparser.lexer import TokenType
from repro.types import date_to_days


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("SELECT foo FROM bar")
        kinds = [t.type for t in tokens]
        assert kinds[:4] == [TokenType.KEYWORD, TokenType.IDENTIFIER,
                             TokenType.KEYWORD, TokenType.IDENTIFIER]

    def test_case_insensitive(self):
        assert tokenize("SeLeCt")[0].value == "select"

    def test_numbers(self):
        tokens = tokenize("1 2.5 3e2")
        assert [t.type for t in tokens[:3]] == [TokenType.INTEGER,
                                                TokenType.FLOAT,
                                                TokenType.FLOAT]

    def test_string_with_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.value == "it's"

    def test_comments_skipped(self):
        tokens = tokenize("select -- comment\n 1 /* block */ + 2")
        values = [t.value for t in tokens if t.type is not TokenType.END]
        assert values == ["select", "1", "+", "2"]

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize("'oops")

    def test_operators(self):
        values = [t.value for t in tokenize("a <> b >= c <= d != e")
                  if t.type is TokenType.OPERATOR]
        assert values == ["<>", ">=", "<=", "!="]

    @pytest.mark.parametrize("text, expected", [
        ("1.", [(TokenType.FLOAT, "1.")]),
        (".5", [(TokenType.FLOAT, ".5")]),
        ("1.e3", [(TokenType.FLOAT, "1.e3")]),
        ("3e", [(TokenType.INTEGER, "3"), (TokenType.IDENTIFIER, "e")]),
        ("1e2e3", [(TokenType.FLOAT, "1e2e3")]),
        ("1.5.3", [(TokenType.FLOAT, "1.5"), (TokenType.FLOAT, ".3")]),
        ("1e+5", [(TokenType.INTEGER, "1"), (TokenType.IDENTIFIER, "e"),
                  (TokenType.OPERATOR, "+"), (TokenType.INTEGER, "5")]),
        ("t.a", [(TokenType.IDENTIFIER, "t"), (TokenType.PUNCTUATION, "."),
                 (TokenType.IDENTIFIER, "a")]),
    ])
    def test_number_edges(self, text, expected):
        assert [(t.type, t.value) for t in tokenize(text)[:-1]] == expected

    def test_position_after_multiline_string(self):
        tokens = tokenize("select 'a\nb\n\ncd' ,\n  x")
        assert tokens[1].value == "a\nb\n\ncd"
        assert (tokens[1].line, tokens[1].column) == (1, 8)
        comma, x, end = tokens[2:]
        assert (comma.position, comma.line, comma.column) == (17, 4, 5)
        assert (x.position, x.line, x.column) == (21, 5, 3)
        assert (end.position, end.line, end.column) == (22, 5, 4)

    def test_position_after_comments(self):
        tokens = tokenize("/* a\n b */ x -- c\n  /**/y")
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("x", 2, 7), ("y", 3, 7), ("", 3, 8)]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexerError) as raised:
            tokenize("select a\n  /* open / *")
        error = raised.value
        assert str(error) == "unterminated block comment (line 2, column 3)"
        assert (error.position, error.line, error.column) == (11, 2, 3)
        # "/*/" does not close itself.
        with pytest.raises(LexerError, match="unterminated block comment"):
            tokenize("/*/")

    def test_slash_star_is_never_an_operator(self):
        tokens = tokenize("a / b /* c */ * d")
        assert [t.value for t in tokens if t.type is TokenType.OPERATOR] \
            == ["/", "*"]

    def test_unterminated_string_position(self):
        # The quote pair at the end is an escape, so nothing closes 'it.
        with pytest.raises(LexerError) as raised:
            tokenize("x\n 'it''")
        error = raised.value
        assert str(error) == "unterminated string literal (line 2, column 2)"
        assert error.position == 3

    def test_unexpected_character(self):
        with pytest.raises(LexerError) as raised:
            tokenize("select a\n  @b")
        assert str(raised.value) == \
            "unexpected character '@' (line 2, column 3)"
        assert raised.value.position == 11

    @pytest.mark.parametrize("text, position, character", [
        ("select ½ from t", 7, "½"),
        ("select Ⅻ", 7, "Ⅻ"),
        ("select ² from t", 7, "²"),
        ("select 1² from t", 8, "²"),
        ("x :½", 2, ":"),
        ("x :² y", 2, ":"),
    ])
    def test_non_letter_numeric_starts_no_word(self, text, position,
                                               character):
        # A word or parameter name starts with a letter or "_"; a numeric
        # that is neither a letter nor a decimal digit is rejected there.
        with pytest.raises(LexerError) as raised:
            tokenize(text)
        assert str(raised.value).startswith(
            f"unexpected character {character!r}")
        assert raised.value.position == position

    def test_numerics_continue_words(self):
        # Inside a word any numeric continues it.  A number is decimal
        # digits only, so "1e²" is 1 then the word "e²", as "1ex" is.
        tokens = tokenize("a² :é² 1e²")
        assert [(t.type, t.value) for t in tokens[:-1]] == [
            (TokenType.IDENTIFIER, "a²"), (TokenType.PARAMETER, "é²"),
            (TokenType.INTEGER, "1"), (TokenType.IDENTIFIER, "e²")]


class TestParser:
    def test_simple_select(self):
        stmt = parse("select a, b from t")
        assert len(stmt.select_items) == 2
        assert stmt.from_tables[0].table == "t"

    def test_star(self):
        stmt = parse("select * from t")
        assert stmt.select_items[0].is_star

    def test_aliases(self):
        stmt = parse("select a as x, b y from t z")
        assert stmt.select_items[0].alias == "x"
        assert stmt.select_items[1].alias == "y"
        assert stmt.from_tables[0].alias == "z"

    def test_where_precedence(self):
        stmt = parse("select a from t where a = 1 or b = 2 and c = 3")
        # AND binds tighter than OR.
        assert isinstance(stmt.where, ast.BinaryOp)
        assert stmt.where.operator == "or"

    def test_arithmetic_precedence(self):
        stmt = parse("select a + b * c from t")
        expr = stmt.select_items[0].expr
        assert isinstance(expr, ast.BinaryOp) and expr.operator == "+"
        assert isinstance(expr.right, ast.BinaryOp)
        assert expr.right.operator == "*"

    def test_group_by_having_order_limit(self):
        stmt = parse("select a, sum(b) from t group by a having sum(b) > 5 "
                     "order by 2 desc limit 7")
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.limit == 7

    def test_joins(self):
        stmt = parse("select * from a join b on a.x = b.y "
                     "inner join c on b.z = c.w")
        assert len(stmt.joins) == 2

    def test_between_in_like(self):
        stmt = parse("select a from t where a between 1 and 2 "
                     "and b in (1, 2, 3) and c like 'x%' "
                     "and d not like '%y'")
        assert stmt.where is not None

    def test_date_and_interval(self):
        stmt = parse("select a from t where d >= date '1995-01-01' "
                     "+ interval '1' year")
        assert stmt.where is not None

    def test_case_expression(self):
        stmt = parse("select case when a > 1 then 2 else 3 end from t")
        assert isinstance(stmt.select_items[0].expr, ast.CaseWhen)

    def test_count_star_and_distinct(self):
        stmt = parse("select count(*), count(distinct a) from t")
        first = stmt.select_items[0].expr
        second = stmt.select_items[1].expr
        assert first.is_star
        assert second.distinct

    def test_extract(self):
        stmt = parse("select extract(year from d) from t")
        assert isinstance(stmt.select_items[0].expr, ast.Extract)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParserError):
            parse("select a from t nonsense nonsense")

    def test_missing_from_expression(self):
        with pytest.raises(ParserError):
            parse("select from t")


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        catalog.create_table("t", [("a", SQLType.INT64)])
        assert catalog.has_table("T")
        assert catalog.table("t").schema.column("a").sql_type is SQLType.INT64

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", [("a", SQLType.INT64)])
        with pytest.raises(CatalogError):
            catalog.create_table("T", [("a", SQLType.INT64)])

    def test_row_width_checked(self):
        catalog = Catalog()
        table = catalog.create_table("t", [("a", SQLType.INT64),
                                           ("b", SQLType.INT64)])
        with pytest.raises(CatalogError):
            table.insert_rows([(1,)])

    def test_statistics(self):
        catalog = Catalog()
        table = catalog.create_table("t", [("a", SQLType.INT64)])
        table.insert_rows([(i % 10,) for i in range(100)])
        stats = catalog.statistics("t")
        assert stats.num_rows == 100
        assert stats.column("a").num_distinct == 10
        assert stats.column("a").min_value == 0
        assert stats.column("a").max_value == 9

    def test_decimal_encoding_roundtrip(self):
        catalog = Catalog()
        table = catalog.create_table("t", [("p", SQLType.DECIMAL)])
        table.insert_rows([(1.25,)])
        assert table.column_data("p") == [125]
        assert table.row(0, decode=True) == (1.25,)

    def test_drop_table(self):
        catalog = Catalog()
        catalog.create_table("t", [("a", SQLType.INT64)])
        catalog.drop_table("t")
        assert not catalog.has_table("t")


class TestBinder:
    @pytest.fixture()
    def catalog(self):
        db = Database()
        db.create_table("orders", [("o_id", SQLType.INT64),
                                   ("o_price", SQLType.DECIMAL),
                                   ("o_date", SQLType.DATE),
                                   ("o_status", SQLType.STRING)])
        db.create_table("items", [("i_order", SQLType.INT64),
                                  ("i_qty", SQLType.INT64)])
        return db.catalog

    def bind(self, catalog, sql):
        return Binder(catalog).bind(parse(sql))

    def test_resolves_unqualified_columns(self, catalog):
        bound = self.bind(catalog, "select o_id from orders")
        assert isinstance(bound.output[0].expr, ColumnExpr)
        assert bound.output[0].expr.binding == "orders"

    def test_unknown_column_rejected(self, catalog):
        with pytest.raises(BindError):
            self.bind(catalog, "select nope from orders")

    def test_unknown_table_rejected(self, catalog):
        with pytest.raises(BindError):
            self.bind(catalog, "select 1 from nowhere")

    def test_ambiguous_column_rejected(self, catalog):
        db = Database()
        db.create_table("a", [("x", SQLType.INT64)])
        db.create_table("b", [("x", SQLType.INT64)])
        with pytest.raises(BindError):
            Binder(db.catalog).bind(parse("select x from a, b"))

    def test_decimal_promoted_to_float(self, catalog):
        bound = self.bind(catalog, "select o_price * 2 from orders")
        assert bound.output[0].expr.result_type is SQLType.FLOAT64

    def test_date_literal_coercion(self, catalog):
        bound = self.bind(catalog,
                          "select o_id from orders where o_date < '1995-06-01'")
        predicate = bound.predicates[0]
        assert isinstance(predicate, ComparisonExpr)
        assert predicate.right.value == date_to_days("1995-06-01")

    def test_interval_folding(self, catalog):
        bound = self.bind(
            catalog, "select o_id from orders where "
                     "o_date < date '1995-01-01' + interval '2' month")
        predicate = bound.predicates[0]
        assert predicate.right.value == date_to_days("1995-03-01")

    def test_aggregate_detection(self, catalog):
        bound = self.bind(catalog,
                          "select sum(o_price), count(*) from orders")
        assert bound.has_aggregation
        aggregates = collect_aggregates(bound.output[0].expr)
        assert aggregates[0].function == "sum"

    def test_group_by_validation(self, catalog):
        with pytest.raises(BindError):
            self.bind(catalog,
                      "select o_status, o_id from orders group by o_status")

    def test_having_without_group_rejected(self, catalog):
        with pytest.raises(BindError):
            self.bind(catalog, "select o_id from orders having o_id > 1")

    def test_aggregate_in_where_rejected(self, catalog):
        with pytest.raises(BindError):
            self.bind(catalog,
                      "select o_id from orders where sum(o_price) > 10")

    def test_like_requires_string(self, catalog):
        with pytest.raises(BindError):
            self.bind(catalog, "select o_id from orders where o_id like 'x%'")

    def test_order_by_output_alias(self, catalog):
        bound = self.bind(catalog, "select sum(o_price) as total from orders "
                                   "order by total desc")
        assert isinstance(bound.order_by[0][0], AggregateExpr)

    def test_join_predicates_collected(self, catalog):
        bound = self.bind(catalog,
                          "select o_id from orders join items on o_id = i_order")
        assert len(bound.predicates) == 1
