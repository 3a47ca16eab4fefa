"""The origin server model."""

import pytest

from repro.core.clock import days
from repro.core.server import (
    FetchResult,
    NotModified,
    OriginServer,
    UnknownObjectError,
)
from tests.conftest import make_history


class TestPopulation:
    def test_len_and_contains(self, static_server):
        assert len(static_server) == 3
        assert "/a" in static_server
        assert "/missing" not in static_server

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            OriginServer([make_history("/a"), make_history("/a")])

    def test_unknown_object_error(self, static_server):
        with pytest.raises(UnknownObjectError):
            static_server.get("/missing", 0.0)

    def test_object_and_schedule_accessors(self, changing_server):
        assert changing_server.object("/hot").size == 1000
        assert changing_server.schedule("/hot").total_changes == 3

    def test_total_changes_in_window(self, changing_server):
        assert changing_server.total_changes(0.0, days(30)) == 4
        assert changing_server.total_changes(0.0, days(5)) == 3
        assert changing_server.total_changes(days(3), days(30)) == 1


class TestGet:
    def test_returns_current_version(self, changing_server):
        before = changing_server.get("/hot", days(0.5))
        after = changing_server.get("/hot", days(1.5))
        assert before.version == 0
        assert after.version == 1
        assert after.last_modified == days(1)
        assert after.size == 1000

    def test_expires_attached_when_configured(self):
        server = OriginServer([make_history("/news", expires_after=3600.0)])
        result = server.get("/news", 100.0)
        assert result.expires == 3700.0

    def test_no_expires_by_default(self, static_server):
        assert static_server.get("/a", 0.0).expires is None


class TestIfModifiedSince:
    def test_not_modified_returns_304(self, changing_server):
        result = changing_server.if_modified_since(
            "/cold", days(20), since=-days(30)
        )
        assert isinstance(result, NotModified)
        assert result.expires is None

    def test_modified_returns_fetch(self, changing_server):
        result = changing_server.if_modified_since(
            "/warm", days(15), since=-days(30)
        )
        assert isinstance(result, FetchResult)
        assert result.version == 1
        assert result.last_modified == days(10)

    def test_boundary_equal_since_is_not_modified(self, changing_server):
        # IMS with since == last-modified means "unchanged".
        assert isinstance(
            changing_server.if_modified_since("/warm", days(15), since=days(10)),
            NotModified,
        )

    def test_304_carries_refreshed_expires(self):
        # The regression behind the ExpiresTTL degeneration: a 304 must
        # re-stamp Expires, not leave the cache on its first lapsed one.
        server = OriginServer([make_history("/news", expires_after=3600.0)])
        result = server.if_modified_since("/news", 10_000.0, since=0.0)
        assert isinstance(result, NotModified)
        assert result.expires == 13_600.0


class TestInvalidationFeed:
    def test_feed_is_time_ordered(self, changing_server):
        feed = changing_server.invalidation_feed()
        times = [t for t, _ in feed]
        assert times == sorted(times)
        assert len(feed) == 4

    def test_feed_cached(self, changing_server):
        assert changing_server.invalidation_feed() is (
            changing_server.invalidation_feed()
        )
