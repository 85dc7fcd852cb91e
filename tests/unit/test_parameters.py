"""Unit tests for the parameterized statement API.

Covers placeholder lexing/parsing, binder type inference, execution-time
value binding (arity / names / NULL / conversions), auto-parameterization,
the unified ExecOptions, and the satellite ergonomics (drop_table,
QueryResult iteration / columns()).
"""

from __future__ import annotations

import datetime as dt

import pytest

from repro import (
    Database,
    ExecOptions,
    ParameterError,
    SQLType,
    auto_parameterize_sql,
    normalize_sql,
)
from repro.errors import ExecutionError, ParserError, SchedulerError
from repro.parameters import ParameterSpec, bind_parameter_values
from repro.semantics import Binder
from repro.semantics.expressions import ParameterExpr
from repro.sqlparser import parse


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.create_table("t", [("a", SQLType.INT64),
                                ("f", SQLType.FLOAT64),
                                ("dec", SQLType.DECIMAL),
                                ("s", SQLType.STRING),
                                ("d", SQLType.DATE),
                                ("flag", SQLType.BOOL)])
    database.insert("t", [
        (i, i * 0.5, i * 1.25, f"name-{i % 4}",
         dt.date(2021, 1, 1) + dt.timedelta(days=i), i % 2 == 0)
        for i in range(1, 41)])
    return database


def bind(db, sql, hints=None):
    return Binder(db.catalog).bind(parse(sql), parameter_hints=hints)


# --------------------------------------------------------------------------- #
# parsing
# --------------------------------------------------------------------------- #
class TestParsing:
    def test_positional_slots_in_lexical_order(self):
        statement = parse("select a from t where a > ? and a < ?")
        assert statement.parameters == [None, None]

    def test_named_slots_reuse_by_name(self):
        statement = parse(
            "select a from t where a > :lo and a < :hi and a <> :lo")
        assert statement.parameters == ["lo", "hi"]

    def test_mixing_positional_and_named_rejected(self):
        with pytest.raises(ParserError, match="cannot mix"):
            parse("select a from t where a > ? and a < :hi")
        with pytest.raises(ParserError, match="cannot mix"):
            parse("select a from t where a > :lo and a < ?")

    def test_normalize_preserves_placeholders(self):
        key1 = normalize_sql("SELECT a FROM t WHERE a = ?")
        key2 = normalize_sql("select a  from t where a = ?")
        assert key1 == key2
        assert "?" in key1


# --------------------------------------------------------------------------- #
# binder type inference
# --------------------------------------------------------------------------- #
class TestTypeInference:
    def test_comparison_with_column(self, db):
        bound = bind(db, "select a from t where a = ?")
        assert [spec.sql_type for spec in bound.parameters] == [SQLType.INT64]

    def test_named_parameter_one_spec_many_uses(self, db):
        bound = bind(db, "select a from t where a > :k or a < :k")
        assert len(bound.parameters) == 1
        assert bound.parameters[0].name == "k"
        assert bound.parameters[0].sql_type is SQLType.INT64

    def test_between_and_in_list(self, db):
        bound = bind(db, "select a from t where a between ? and ? "
                         "and s in (?, ?)")
        assert [spec.sql_type for spec in bound.parameters] == [
            SQLType.INT64, SQLType.INT64, SQLType.STRING, SQLType.STRING]

    def test_date_and_float_and_decimal_contexts(self, db):
        bound = bind(db, "select a from t where d >= ? and f < ? and dec > ?")
        # DECIMAL columns surface as FLOAT64 at the expression level.
        assert [spec.sql_type for spec in bound.parameters] == [
            SQLType.DATE, SQLType.FLOAT64, SQLType.FLOAT64]

    def test_function_contexts(self, db):
        bound = bind(db, "select a from t where year(?) = 2021 "
                         "and extract(month from ?) = 3 and ? like 'x%'")
        assert [spec.sql_type for spec in bound.parameters] == [
            SQLType.DATE, SQLType.DATE, SQLType.STRING]

    def test_cast_context(self, db):
        bound = bind(db, "select cast(? as float) as x from t")
        assert bound.parameters[0].sql_type is SQLType.FLOAT64

    def test_boolean_context(self, db):
        bound = bind(db, "select a from t where ?")
        assert bound.parameters[0].sql_type is SQLType.BOOL

    def test_arithmetic_with_column(self, db):
        bound = bind(db, "select a + ? as x from t")
        assert bound.parameters[0].sql_type is SQLType.INT64

    def test_untypeable_select_item(self, db):
        with pytest.raises(ParameterError, match="cannot infer"):
            bind(db, "select ? as x from t")

    def test_untypeable_pair(self, db):
        with pytest.raises(ParameterError, match="cannot infer"):
            bind(db, "select a from t where ? = ?")

    def test_conflicting_named_uses(self, db):
        with pytest.raises(ParameterError, match="used both as"):
            bind(db, "select a from t where a = :x and s = :x")

    def test_aggregate_argument_needs_type(self, db):
        with pytest.raises(ParameterError, match="cannot infer"):
            bind(db, "select sum(?) as x from t")

    def test_hints_seed_types(self, db):
        bound = bind(db, "select ? as x from t where a > ?", hints=[1.5, 7])
        assert bound.parameters[0].sql_type is SQLType.FLOAT64
        assert bound.parameters[1].sql_type is SQLType.INT64

    def test_hinted_string_coerces_to_date(self, db):
        bound = bind(db, "select a from t where d >= ?",
                     hints=["2021-02-01"])
        assert bound.parameters[0].sql_type is SQLType.DATE
        # The hint is encoded (epoch days) for cardinality estimation.
        nodes = [expr for pred in bound.predicates for expr in pred.walk()
                 if isinstance(expr, ParameterExpr)]
        assert nodes and all(isinstance(node.hint, int) for node in nodes)

    def test_hinted_int_promotes_against_float_column(self, db):
        bound = bind(db, "select a from t where f > ?", hints=[3])
        assert bound.parameters[0].sql_type is SQLType.FLOAT64


# --------------------------------------------------------------------------- #
# value binding
# --------------------------------------------------------------------------- #
class TestValueBinding:
    POS = [ParameterSpec(0, SQLType.INT64), ParameterSpec(1, SQLType.STRING)]
    NAMED = [ParameterSpec(0, SQLType.INT64, name="lo"),
             ParameterSpec(1, SQLType.INT64, name="hi")]

    def test_positional_ok(self):
        assert bind_parameter_values(self.POS, (3, "x")) == [3, "x"]

    def test_arity_mismatch(self):
        with pytest.raises(ParameterError, match="expects 2 parameter"):
            bind_parameter_values(self.POS, (3,))
        with pytest.raises(ParameterError, match="got none"):
            bind_parameter_values(self.POS, None)
        with pytest.raises(ParameterError, match="takes no parameters"):
            bind_parameter_values([], (1,))

    def test_positional_rejects_mapping_and_scalars(self):
        with pytest.raises(ParameterError, match="positional"):
            bind_parameter_values(self.POS, {"a": 1, "b": 2})
        with pytest.raises(ParameterError, match="sequence"):
            bind_parameter_values(self.POS, 3)

    def test_named_ok_and_case_insensitive(self):
        values = bind_parameter_values(self.NAMED, {"LO": 1, "hi": 2})
        assert values == [1, 2]

    def test_named_mismatches(self):
        with pytest.raises(ParameterError, match="missing.*hi"):
            bind_parameter_values(self.NAMED, {"lo": 1})
        with pytest.raises(ParameterError, match="unknown.*typo"):
            bind_parameter_values(self.NAMED, {"lo": 1, "hi": 2, "typo": 3})
        with pytest.raises(ParameterError, match="mapping"):
            bind_parameter_values(self.NAMED, (1, 2))

    def test_null_rejected(self):
        with pytest.raises(ParameterError, match="NULL"):
            bind_parameter_values(self.POS, (None, "x"))

    def test_conversions(self):
        spec = [ParameterSpec(0, SQLType.DATE)]
        days = bind_parameter_values(spec, (dt.date(2021, 3, 1),))[0]
        assert days == bind_parameter_values(spec, ("2021-03-01",))[0]
        assert bind_parameter_values([ParameterSpec(0, SQLType.INT64)],
                                     (4.0,)) == [4]
        assert bind_parameter_values([ParameterSpec(0, SQLType.BOOL)],
                                     (True,)) == [1]

    def test_lossy_conversions_rejected(self):
        with pytest.raises(ParameterError, match="integer"):
            bind_parameter_values([ParameterSpec(0, SQLType.INT64)], (4.5,))
        with pytest.raises(ParameterError, match="number"):
            bind_parameter_values([ParameterSpec(0, SQLType.FLOAT64)],
                                  ("oops",))
        with pytest.raises(ParameterError, match="ISO date"):
            bind_parameter_values([ParameterSpec(0, SQLType.DATE)],
                                  ("not-a-date",))


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
class TestExecution:
    def test_rebinding_changes_results_without_replanning(self, db):
        prepared = db.prepare_query("select count(*) as c from t "
                                    "where a <= :k")
        for k in (5, 17, 40):
            assert prepared.execute(params={"k": k}).rows == [(k,)]
        assert prepared.executions == 3

    def test_parameter_error_leaves_entry_reusable(self, db):
        prepared = db.prepare_query("select count(*) as c from t "
                                    "where a <= ?")
        with pytest.raises(ParameterError):
            prepared.execute(params=None)
        assert prepared.execute(params=(5,)).rows == [(5,)]

    def test_params_via_database_execute_share_cache_entry(self, db):
        sql = "select count(*) as c from t where a <= ?"
        first = db.execute(sql, params=(5,))
        second = db.execute(sql, params=(10,))
        assert first.rows == [(5,)] and second.rows == [(10,)]
        assert not first.cached and second.cached

    def test_null_parameter_rejected_everywhere(self, db):
        sql = "select count(*) as c from t where a <= ?"
        with pytest.raises(ParameterError, match="NULL"):
            db.execute(sql, params=(None,))
        with pytest.raises(ParameterError, match="NULL"):
            db.execute(sql, options=ExecOptions(mode="volcano"),
                       params=(None,))

    def test_baseline_modes_accept_params(self, db):
        for mode in ("volcano", "vectorized"):
            result = db.execute("select count(*) as c from t where a <= ?",
                                options=ExecOptions(mode=mode), params=(7,))
            assert result.rows == [(7,)]

    def test_bool_parameter(self, db):
        result = db.execute("select count(*) as c from t where flag = ?",
                            params=(True,))
        assert result.rows == [(20,)]


# --------------------------------------------------------------------------- #
# auto-parameterization
# --------------------------------------------------------------------------- #
class TestAutoParameterize:
    def test_extracts_literals(self):
        rewritten = auto_parameterize_sql(
            "select a + 2 from t where a > 10 and s = 'x'")
        assert rewritten is not None
        sql, values = rewritten
        assert normalize_sql(sql) == normalize_sql(
            "select a + ? from t where a > ? and s = ?")
        assert values == [2, 10, "x"]

    def test_skips_positional_and_limit_clauses(self):
        rewritten = auto_parameterize_sql(
            "select a, count(*) from t where a > 3 "
            "group by 1 order by 2 desc limit 5")
        sql, values = rewritten
        assert values == [3]
        assert "group by 1" in sql and "limit 5" in sql

    def test_skips_date_interval_like(self):
        rewritten = auto_parameterize_sql(
            "select a from t where d >= date '2021-01-01' "
            "and s like 'x%' and a > 4")
        sql, values = rewritten
        assert values == [4]
        assert "date '2021-01-01'" in sql and "like 'x%'" in sql

    def test_skips_unary_minus_but_not_binary(self):
        sql, values = auto_parameterize_sql(
            "select a from t where a > -3 and a - 7 > 0")
        assert values == [7, 0]
        assert "-3" in sql

    def test_inner_from_does_not_reset_order_clause(self):
        rewritten = auto_parameterize_sql(
            "select a from t order by extract(year from d), 2")
        assert rewritten is None  # the positional 2 must stay a literal

    def test_none_for_parameterized_or_literal_free(self):
        assert auto_parameterize_sql("select a from t where a = ?") is None
        assert auto_parameterize_sql("select a from t where a = :k") is None
        assert auto_parameterize_sql("select a from t") is None
        assert auto_parameterize_sql("select a from t where s = 'x") is None

    def test_shape_collides_on_one_cache_entry(self, db):
        results = [db.execute(f"select count(*) as c from t where a <= {k}")
                   for k in range(1, 41)]
        assert [r.rows for r in results] == [[(k,)] for k in range(1, 41)]
        assert not results[0].cached
        assert all(r.cached for r in results[1:])
        stats = db.plan_cache.stats
        assert stats.hits >= 39 and stats.misses == 1

    def test_opt_out_per_call_and_per_database(self, db):
        # Per call, use_cache=False runs the literal text cold: nothing is
        # extracted and nothing enters the plan cache.
        for k in (1, 2):
            result = db.execute(f"select sum(a) as s from t where a = {k}",
                                options=ExecOptions(use_cache=False))
            assert result.rows == [(k,)]
            assert not result.cached
        assert len(db.plan_cache) == 0

        # Per database, plan_cache_size=0: every execution is a cold build.
        cold = Database(plan_cache_size=0)
        cold.create_table("u", [("a", SQLType.INT64)])
        cold.insert("u", [(1,), (2,)])
        for k in (1, 2):
            result = cold.execute(f"select a from u where a = {k}")
            assert result.rows == [(k,)]
            assert not result.cached
        assert len(cold.plan_cache) == 0

    def test_hint_typed_statement_survives_invalidation_rebuild(self, db):
        # "select 5" can only be typed from the auto-parameterization hint;
        # the rebuild after an insert must remember it.
        sql = "select 5 as x, count(*) as c from t"
        assert db.execute(sql).rows == [(5, 40)]
        db.insert("t", [(41, 1.0, 1.0, "name-1", dt.date(2022, 1, 1),
                         False)])
        assert db.execute(sql).rows == [(5, 41)]

    def test_auto_entries_are_type_qualified(self, db):
        # Same shape, differently typed constants: separate entries whose
        # results each match their literal form.  One INT64-typed plan
        # bound with 2.5 would silently diverge (or raise) otherwise.
        assert db.execute("select 1 as x from t limit 1").rows == [(1,)]
        assert db.execute("select 1.0 as x from t limit 1").rows == [(1.0,)]
        assert db.execute("select 'y' as x from t limit 1").rows == [("y",)]
        a = db.execute("select count(*) as c from t where a >= 2")
        b = db.execute("select count(*) as c from t where a >= 2.5")
        assert a.rows == [(39,)] and b.rows == [(38,)]
        # Same-typed constants still collide on one entry.
        again = db.execute("select count(*) as c from t where a >= 30")
        assert again.cached and again.rows == [(11,)]


# --------------------------------------------------------------------------- #
# ExecOptions
# --------------------------------------------------------------------------- #
class TestExecOptions:
    def test_defaults_and_merge(self):
        assert ExecOptions.of(None) == ExecOptions()
        opts = ExecOptions(mode="bytecode", threads=4)
        assert ExecOptions.of(opts) is opts
        assert opts.merged() is opts
        assert opts.merged(mode=None) is opts   # None: "not given"
        merged = opts.merged(mode="optimized")
        assert merged.mode == "optimized" and merged.threads == 4

    def test_merge_rejects_unknown_and_entry_points_reject_bad_type(self, db):
        with pytest.raises(ExecutionError, match="unknown execution option"
                                                 r".*morsel_size"):
            ExecOptions().merged(morsel_size=3)
        with pytest.raises(ExecutionError, match="ExecOptions"):
            ExecOptions.of({"mode": "adaptive"})
        with pytest.raises(ExecutionError, match="got dict"):
            db.execute("select count(*) as c from t",
                       options={"mode": "adaptive"})

    def test_removed_options_and_keywords_are_located_errors(self, db):
        """Neither the historical-path switches nor the per-call keyword
        shim exist any more; using one names the call and the keyword."""
        sql = "select count(*) as c from t"
        for removed in ("use_topk_breaker", "use_partitioned_breakers"):
            with pytest.raises(TypeError, match=rf"ExecOptions.*{removed}"):
                ExecOptions(**{removed: False})
            with pytest.raises(ExecutionError, match=removed):
                ExecOptions().merged(**{removed: False})
        prepared = db.prepare_query(sql)
        calls = {
            "Database.execute": lambda **kw: db.execute(sql, **kw),
            "Database.execute_many": lambda **kw: db.execute_many(
                sql, [None], **kw),
            "Database.submit": lambda **kw: db.submit(sql, **kw),
            "Database.session": lambda **kw: db.session(**kw),
            "Database.cached_result": lambda **kw: db.cached_result(
                sql, **kw),
            "Database.explain": lambda **kw: db.explain(sql, **kw),
            "PreparedQuery.execute": lambda **kw: prepared.execute(**kw),
        }
        for name, call in calls.items():
            for keyword in ("mode", "threads", "use_pruning", "use_cache",
                            "use_result_cache", "telemetry"):
                with pytest.raises(TypeError,
                                   match=rf"{name}\(\).*'{keyword}'"):
                    call(**{keyword: None})
        # The database is untouched by the rejections.
        assert db.execute(sql, options=ExecOptions(mode="volcano")
                          ).rows == [(40,)]
        db.close()

    def test_accepted_across_call_sites(self, db):
        opts = ExecOptions(mode="bytecode")
        assert db.execute("select count(*) as c from t",
                          options=opts).mode == "bytecode"
        ticket = db.submit("select count(*) as c from t", options=opts)
        assert ticket.result(timeout=30).mode == "bytecode"
        assert ticket.options.mode == "bytecode"
        with db.session(options=opts) as session:
            assert session.execute("select count(*) as c from t"
                                   ).mode == "bytecode"
            assert session.options.mode == "bytecode"
            assert session.execute("select count(*) as c from t",
                                   mode="optimized").mode == "optimized"
        prepared = db.prepare_query("select count(*) as c from t")
        assert prepared.execute(options=opts).mode == "bytecode"
        db.close()

    def test_session_rejects_unknown_override(self, db):
        session = db.session()
        with pytest.raises(SchedulerError):
            session.execute("select count(*) as c from t", morsel_size=9)


# --------------------------------------------------------------------------- #
# satellites: drop_table + QueryResult ergonomics
# --------------------------------------------------------------------------- #
class TestDropTable:
    def test_drop_invalidates_cached_plans(self, db):
        sql = "select count(*) as c from t where a <= 5"
        db.execute(sql)
        assert len(db.plan_cache) == 1
        db.drop_table("t")
        assert not db.catalog.has_table("t")
        key = list(db.plan_cache.keys())[0]
        assert db.plan_cache.get(key) is None  # dropped on lookup
        assert db.plan_cache.stats.invalidations >= 1

    def test_recreate_after_drop_replans(self, db):
        sql = "select count(*) as c from t"
        assert db.execute(sql).rows == [(40,)]
        db.drop_table("t")
        db.create_table("t", [("a", SQLType.INT64)])
        db.insert("t", [(1,), (2,)])
        assert db.execute(sql).rows == [(2,)]

    def test_drop_unknown_table_raises(self, db):
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            db.drop_table("nope")


class TestQueryResultErgonomics:
    def test_iterable_and_columns(self, db):
        result = db.execute("select a, s from t where a <= 3 order by a")
        assert list(result) == [(1, "name-1"), (2, "name-2"), (3, "name-3")]
        assert [row for row in result] == result.rows  # re-iterable
        assert result.columns() == {"a": [1, 2, 3],
                                    "s": ["name-1", "name-2", "name-3"]}

    def test_columns_empty_result(self, db):
        result = db.execute("select a from t where a > 1000")
        assert result.columns() == {"a": []}
        assert list(result) == []
