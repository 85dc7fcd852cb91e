"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import faulthandler
import os
import sys

import pytest

# Allow running the tests without installing the package.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# Pass-pipeline validation stays on for the whole suite: every optimization
# pass is re-verified and every bytecode translation is checked, so a bad
# rewrite fails the test that compiled it, at the pass that broke it.
# A pre-set environment still wins.
os.environ.setdefault("REPRO_VERIFY_IR", "1")

# ---------------------------------------------------------------------- #
# Per-test timeout: a deadlock in the concurrent scheduler must fail the
# run, not hang it.  CI installs pytest-timeout and passes --timeout; when
# the plugin is absent (plain local runs) fall back to faulthandler's
# watchdog, which dumps every thread's stack and aborts the process once a
# single test exceeds REPRO_TEST_TIMEOUT seconds.
# ---------------------------------------------------------------------- #
try:
    import pytest_timeout  # noqa: F401
    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

_FALLBACK_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "300"))

if not _HAVE_PYTEST_TIMEOUT and hasattr(faulthandler,
                                        "dump_traceback_later"):
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        faulthandler.dump_traceback_later(_FALLBACK_TIMEOUT, exit=True)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()

from repro import ENGINE_MODES, Database, ExecOptions, SQLType  # noqa: E402
from repro.workloads import populate_tpch          # noqa: E402


@pytest.fixture()
def empty_db() -> Database:
    """A fresh, empty database."""
    return Database()


@pytest.fixture()
def simple_db() -> Database:
    """A small two-table database used by many unit tests."""
    db = Database()
    db.create_table("items", [("id", SQLType.INT64),
                              ("category", SQLType.INT64),
                              ("price", SQLType.FLOAT64),
                              ("name", SQLType.STRING)])
    db.create_table("categories", [("cat_id", SQLType.INT64),
                                   ("cat_name", SQLType.STRING)])
    db.insert("categories", [(i, f"cat-{i}") for i in range(5)])
    db.insert("items", [(i, i % 5, float(i) * 1.5, f"item-{i}")
                        for i in range(100)])
    return db


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    """A small TPC-H database shared by integration tests (read only)."""
    return populate_tpch(scale_factor=0.03, seed=7)


@pytest.fixture(scope="session")
def tpch_db_tiny() -> Database:
    """An even smaller TPC-H instance for expensive cross-mode comparisons."""
    return populate_tpch(scale_factor=0.01, seed=13)


def normalized(rows, digits: int = 4):
    """Round floats so results can be compared across execution engines."""
    out = []
    for row in rows:
        out.append(tuple(round(value, digits) if isinstance(value, float)
                         else value for value in row))
    return out


@contextlib.contextmanager
def _open_breaker_layouts(load, layouts, morsel_size):
    """``runs(mode)`` over one database per breaker layout.

    ``layouts`` are ``(workers, threads)`` pairs.  A database's worker
    count fixes its breaker partition count (rounded up to a power of
    two), so layouts are compared across databases that ``load(db)``
    filled alike; one that only runs ``threads=1`` queries starts no
    thread.  ``runs(mode)`` lists ``(db, options)`` for every layout
    ``mode`` can run (the baseline engines are single-threaded).
    """
    databases: dict = {}
    try:
        for workers, _ in layouts:
            if workers not in databases:
                databases[workers] = Database(morsel_size=morsel_size,
                                              workers=workers)
                load(databases[workers])

        def runs(mode):
            return [(databases[workers],
                     ExecOptions(mode=mode, threads=threads))
                    for workers, threads in layouts
                    if threads == 1 or mode in ENGINE_MODES]
        yield runs
    finally:
        for db in databases.values():
            db.close()


@pytest.fixture(scope="session")
def breaker_layouts():
    """``breaker_layouts(load, layouts, morsel_size)``: see
    :func:`_open_breaker_layouts`."""
    return _open_breaker_layouts
