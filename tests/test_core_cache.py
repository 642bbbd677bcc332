"""Unit tests for the gateway CacheController."""

import pytest

from repro.core.cache import MAX_ENTRIES, CacheController, normalise_sql
from repro.simnet.clock import VirtualClock


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def cache(clock):
    return CacheController(clock, ttl=30.0)


class TestNormalise:
    def test_whitespace_collapsed(self):
        assert normalise_sql("SELECT  *\n FROM   x") == "select * from x"

    def test_trailing_semicolon_dropped(self):
        assert normalise_sql("SELECT * FROM x;") == normalise_sql("SELECT * FROM x")

    def test_case_folded(self):
        assert normalise_sql("select * from X") == normalise_sql("SELECT * FROM X")

    def test_string_literal_case_preserved(self):
        # Regression: 'A' and 'a' select different rows, so the keys must
        # not collide (the old normaliser lowercased literals too and one
        # cached result could serve the other query).
        upper = normalise_sql("SELECT * FROM t WHERE Name = 'A'")
        lower = normalise_sql("SELECT * FROM t WHERE Name = 'a'")
        assert upper != lower
        assert upper == "select * from t where Name = 'A'"

    def test_identifier_case_preserved(self):
        # A column's label is its spelling in the query, so texts that
        # differ in an identifier's case must not share a key.
        assert normalise_sql("SELECT hostname FROM Processor") != normalise_sql(
            "SELECT HostName FROM Processor"
        )
        assert normalise_sql("SELECT Timestamp FROM t") != normalise_sql(
            "SELECT TIMESTAMP FROM t"
        )
        assert normalise_sql("SELECT a AS Count FROM t") == "select a as Count from t"

    def test_keywords_folded_outside_numbers(self):
        assert normalise_sql("SELECT a FROM t WHERE b > 1E5 ORDER BY a DESC") == (
            "select a from t where b > 1E5 order by a desc"
        )

    def test_literal_whitespace_preserved(self):
        assert (
            normalise_sql("SELECT * FROM t  WHERE s = 'two  words'")
            == "select * from t where s = 'two  words'"
        )

    def test_doubled_quote_escape_stays_inside_literal(self):
        # The FROM after the escaped quote is still inside the literal,
        # so it must keep its case.
        assert (
            normalise_sql("SELECT * FROM t WHERE s = 'it''s FROM'")
            == "select * from t where s = 'it''s FROM'"
        )

    def test_unterminated_literal_kept_verbatim(self):
        assert (
            normalise_sql("SELECT * FROM t WHERE s = 'Open  End")
            == "select * from t where s = 'Open  End"
        )

    def test_idempotent_with_literals(self):
        for sql in (
            "SELECT * FROM t WHERE Name = 'A'  AND  x = 1 ;",
            "SELECT 'A' 'b' FROM t",
            "SELECT * FROM t WHERE a='X'||'y'",
        ):
            once = normalise_sql(sql)
            assert normalise_sql(once) == once


class TestLookupStore:
    def test_miss_then_hit(self, cache):
        assert cache.lookup("u", "SELECT * FROM t") is None
        cache.store("u", "SELECT * FROM t", ["a"], [[1]])
        entry = cache.lookup("u", "select  * from t")
        assert entry is not None and entry.rows == [[1]]
        assert cache.hits == 1 and cache.misses == 1

    def test_expiry(self, cache, clock):
        cache.store("u", "q from t", ["a"], [[1]])
        clock.advance(31.0)
        assert cache.lookup("u", "q from t") is None

    def test_max_age_tightens_ttl(self, cache, clock):
        cache.store("u", "select * from t", ["a"], [[1]])
        clock.advance(10.0)
        assert cache.lookup("u", "select * from t", max_age=5.0) is None
        assert cache.lookup("u", "select * from t", max_age=15.0) is not None

    def test_different_sources_isolated(self, cache):
        cache.store("u1", "q", ["a"], [[1]])
        assert cache.lookup("u2", "q") is None

    def test_store_copies_rows(self, cache):
        rows = [[1]]
        cache.store("u", "q", ["a"], rows)
        rows[0][0] = 99
        assert cache.lookup("u", "q").rows == [[1]]

    def test_age_reported(self, cache, clock):
        entry = cache.store("u", "q", ["a"], [])
        clock.advance(7.0)
        assert entry.age(clock.now()) == pytest.approx(7.0)


class TestInvalidation:
    def test_invalidate_source(self, cache):
        cache.store("u1", "q1", ["a"], [])
        cache.store("u1", "q2", ["a"], [])
        cache.store("u2", "q1", ["a"], [])
        assert cache.invalidate("u1") == 2
        assert cache.lookup("u2", "q1") is not None

    def test_invalidate_all(self, cache):
        cache.store("u1", "q", ["a"], [])
        cache.store("u2", "q", ["a"], [])
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_sweep_evicts_only_expired(self, cache, clock):
        cache.store("u1", "q", ["a"], [])
        clock.advance(20.0)
        cache.store("u2", "q", ["a"], [])
        clock.advance(15.0)  # u1 is 35s old, u2 15s old
        assert cache.sweep() == 1
        assert len(cache) == 1


class TestEntriesFor:
    def test_lists_live_entries_of_source(self, cache, clock):
        cache.store("u", "SELECT * FROM A", ["a"], [])
        cache.store("u", "SELECT * FROM B", ["a"], [])
        clock.advance(31.0)
        cache.store("u", "SELECT * FROM C", ["a"], [])
        live = cache.entries_for("u")
        assert len(live) == 1
        assert "C" in live[0].sql

    def test_hit_ratio(self, cache):
        assert cache.hit_ratio == 0.0
        cache.store("u", "q", ["a"], [])
        cache.lookup("u", "q")
        cache.lookup("u", "other")
        assert cache.hit_ratio == 0.5


def full_cache(clock):
    """A cache holding exactly its shipped capacity, ``q0`` oldest."""
    cache = CacheController(clock, ttl=1000.0)
    for i in range(MAX_ENTRIES):
        cache.store("u", f"q{i}", ["a"], [])
    return cache


class TestLruBound:
    """The shipped bound, ``cache.MAX_ENTRIES`` entries."""

    def test_insert_past_capacity_evicts_oldest(self, clock):
        cache = full_cache(clock)
        cache.store("u", "new", ["a"], [])
        assert len(cache) == MAX_ENTRIES
        assert cache.evictions == 1
        assert cache.lookup("u", "q0") is None
        assert cache.lookup("u", "q1") is not None
        assert cache.lookup("u", "new") is not None

    def test_lookup_refreshes_recency(self, clock):
        cache = full_cache(clock)
        cache.lookup("u", "q0")          # q0 is now most recently used
        cache.store("u", "new", ["a"], [])
        assert cache.lookup("u", "q0") is not None
        assert cache.lookup("u", "q1") is None   # evicted instead

    def test_restore_refreshes_recency(self, clock):
        cache = full_cache(clock)
        cache.store("u", "q0", ["a"], [])        # re-store moves to back
        cache.store("u", "new", ["a"], [])
        assert cache.lookup("u", "q0") is not None
        assert cache.lookup("u", "q1") is None

    def test_zero_capacity_means_unbounded(self, clock):
        """No capacity means unbounded any more (the "0 = unbounded"
        branch went with the keyword): a cache at its bound holds every
        entry and has evicted none."""
        cache = full_cache(clock)
        assert len(cache) == MAX_ENTRIES
        assert cache.evictions == 0

    def test_negative_capacity_rejected(self, clock):
        """The capacity is a constant now, not a keyword to refuse: it
        meets the bound the constructor checked, and holds an entry."""
        assert MAX_ENTRIES >= 1

    def test_future_stamped_entry_is_a_miss(self, clock):
        # An entry stored by a concurrent sibling branch can carry a
        # timestamp ahead of this branch's private timeline; it must not
        # be served (negative age would defeat the single-flight path).
        cache = CacheController(clock, ttl=1000.0)
        with clock.concurrent() as scope:
            with scope.branch():
                clock.advance(5.0)
                cache.store("u", "q", ["a"], [["v"]])
            with scope.branch():
                clock.advance(1.0)
                assert cache.lookup("u", "q") is None
        # After the join the entry is in the past and serves normally.
        assert cache.lookup("u", "q") is not None
