import json
import os
import re
import sys
import threading
from datetime import date, datetime, timedelta, timezone

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from outbreakminer.errors import (
    ArticleNotFoundError,
    CacheError,
    PayloadError,
    TransportError,
)
from outbreakminer.ingest import (
    ArticleRevision,
    RevisionCache,
    RevisionQuery,
    fetch_revisions,
    load_cached_revisions,
    revision_activity,
    revision_from_record,
)


def replay(pages):
    """get_json stub that serves recorded pages and counts requests."""
    state = {"calls": 0}

    def get_json(params):
        page = pages[state["calls"]]
        state["calls"] += 1
        return page

    return get_json, state


def quiet_query(title="Example outbreak"):
    return RevisionQuery(article_title=title, min_request_interval_ms=0)


class TestFetchRevisions:
    def test_replay_fixture_three_pages(self, api_pages, tmp_path):
        get_json, state = replay(api_pages)
        cache = RevisionCache(tmp_path)
        revisions = fetch_revisions(quiet_query(), cache, get_json=get_json)
        assert [r.revision_id for r in revisions] == [900, 901, 902]
        assert state["calls"] == 3
        assert all(a.revision_id < b.revision_id
                   for a, b in zip(revisions, revisions[1:]))
        assert revisions[0].wikitext == "Stub text."
        assert revisions[0].editor == "Author"

    def test_warm_cache_zero_requests_and_identical(self, api_pages, tmp_path):
        get_json, state = replay(api_pages)
        cache = RevisionCache(tmp_path)
        first = fetch_revisions(quiet_query(), cache, get_json=get_json)
        second = fetch_revisions(quiet_query(), cache, get_json=get_json)
        assert state["calls"] == 3  # no new network traffic
        assert first == second

    def test_empty_window(self, tmp_path):
        page = {"query": {"pages": [{"pageid": 1, "title": "X", "revisions": []}]}}
        get_json, _ = replay([page])
        revisions = fetch_revisions(quiet_query("X"), cache=RevisionCache(tmp_path),
                                    get_json=get_json)
        assert revisions == []

    def test_missing_article(self, tmp_path):
        page = {"query": {"pages": [{"title": "Nope", "missing": True}]}}
        get_json, _ = replay([page])
        with pytest.raises(ArticleNotFoundError):
            fetch_revisions(quiet_query("Nope"), RevisionCache(tmp_path),
                            get_json=get_json)

    def test_malformed_payload(self, tmp_path):
        get_json, _ = replay([{"surprise": True}])
        with pytest.raises(PayloadError) as err:
            fetch_revisions(quiet_query(), RevisionCache(tmp_path), get_json=get_json)
        assert str(err.value) == "unexpected API response shape: 'query'"

    def test_mistyped_api_record_is_payload_error(self, api_pages, tmp_path):
        # Only a record read back from the cache names a cache file.
        pages = json.loads(json.dumps(api_pages))
        pages[0]["query"]["pages"][0]["revisions"][0]["slots"]["main"]["content"] = ["x"]
        get_json, _ = replay(pages)
        with pytest.raises(PayloadError) as err:
            fetch_revisions(quiet_query(), RevisionCache(tmp_path), get_json=get_json)
        assert str(err.value) == "malformed revision record 900: content is list, not a string"

    @pytest.mark.parametrize("error", [OSError, requests.ConnectionError],
                             ids=["OSError", "requests.ConnectionError"])
    def test_transport_error_names_continuation(self, api_pages, tmp_path, error):
        first_page = api_pages[0]

        state = {"calls": 0}

        def flaky(params):
            state["calls"] += 1
            if state["calls"] == 1:
                return first_page
            raise error("connection reset")

        with pytest.raises(TransportError) as err:
            fetch_revisions(quiet_query(), RevisionCache(tmp_path),
                            get_json=flaky, max_retries=2)
        assert str(err.value) == ("network failure after 2 retries "
                                  "(last continuation token: '20140401|901')")
        assert state["calls"] == 3  # one success + two failed retries

    def test_suppressed_revisions_skipped_and_counted(self, tmp_path):
        page = {"query": {"pages": [{"pageid": 1, "title": "X", "revisions": [
            {"revid": 1, "parentid": 0, "timestamp": "2014-01-01T00:00:00Z",
             "user": "A", "comment": "", "slots": {"main": {"content": "ok"}}},
            {"revid": 2, "parentid": 1, "timestamp": "2014-01-02T00:00:00Z",
             "user": "B", "comment": "", "slots": {"main": {"texthidden": True}}},
        ]}]}}
        get_json, _ = replay([page])
        cache = RevisionCache(tmp_path)
        revisions = fetch_revisions(quiet_query("X"), cache, get_json=get_json)
        assert [r.revision_id for r in revisions] == [1]
        index = cache.load_index("X")
        [entry] = index["queries"].values()
        assert entry["skipped_suppressed"] == 1

    def test_query_validation(self):
        with pytest.raises(ValueError):
            RevisionQuery(
                article_title="X",
                start=datetime(2014, 2, 1, tzinfo=timezone.utc),
                end=datetime(2014, 1, 1, tzinfo=timezone.utc),
            )
        with pytest.raises(ValueError):
            RevisionQuery(article_title="X", min_request_interval_ms=-5)

    def test_no_tmp_files_left(self, api_pages, tmp_path):
        get_json, _ = replay(api_pages)
        fetch_revisions(quiet_query(), RevisionCache(tmp_path), get_json=get_json)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_load_cached_revisions(self, fixture_cache):
        revisions = load_cached_revisions(fixture_cache, "Example outbreak")
        assert [r.revision_id for r in revisions] == list(range(101, 111))
        stamps = [r.timestamp for r in revisions]
        assert stamps == sorted(stamps)


class TestRevisionFromRecord:
    def test_legacy_star_content(self):
        record = {"revid": 5, "parentid": 4, "timestamp": "2014-01-01T00:00:00Z",
                  "user": "U", "comment": "c", "*": "legacy text"}
        revision = revision_from_record(record)
        assert revision.wikitext == "legacy text"

    def test_suppressed_returns_none(self):
        record = {"revid": 5, "timestamp": "2014-01-01T00:00:00Z", "texthidden": True}
        assert revision_from_record(record) is None

    def test_malformed_record(self):
        with pytest.raises(PayloadError):
            revision_from_record({"revid": "not-an-int", "timestamp": "bad",
                                  "slots": {"main": {"content": "x"}}})

    @pytest.mark.parametrize("field, value", [
        ("timestamp", 5), ("content", ["x"]), ("content", {"text": "x"}),
        ("slots", {"main": ["x"]}),
    ], ids=["int-timestamp", "list-content", "dict-content", "list-main-slot"])
    def test_mistyped_field_is_payload_error_naming_revision(self, field, value):
        record = {"revid": 5, "timestamp": "2014-01-01T00:00:00Z", "content": "x",
                  field: value}
        with pytest.raises(PayloadError, match="revision record 5: "):
            revision_from_record(record)


def rev_at(revision_id, when):
    return ArticleRevision(
        revision_id=revision_id, parent_id=None, timestamp=when,
        editor="e", comment="", wikitext="w",
    )


class TestRevisionActivity:
    def test_empty(self):
        assert revision_activity([]) == {}

    def test_counts_and_zero_fill(self):
        revisions = [
            rev_at(1, datetime(2014, 3, 1, 8, tzinfo=timezone.utc)),
            rev_at(2, datetime(2014, 3, 1, 9, tzinfo=timezone.utc)),
            rev_at(3, datetime(2014, 3, 4, 10, tzinfo=timezone.utc)),
        ]
        activity = revision_activity(revisions)
        assert activity == {
            date(2014, 3, 1): 2,
            date(2014, 3, 2): 0,
            date(2014, 3, 3): 0,
            date(2014, 3, 4): 1,
        }

    @given(st.lists(st.integers(0, 400), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_counts_sum_to_input_length(self, hour_offsets):
        base = datetime(2014, 3, 29, tzinfo=timezone.utc)
        revisions = [
            rev_at(i, base + timedelta(hours=offset))
            for i, offset in enumerate(hour_offsets)
        ]
        activity = revision_activity(revisions)
        assert sum(activity.values()) == len(revisions)
        days = sorted(activity)
        assert [(b - a).days for a, b in zip(days, days[1:])] == [1] * (len(days) - 1)


class TestCacheLayout:
    def test_one_file_per_revision_plus_index(self, api_pages, tmp_path):
        get_json, _ = replay(api_pages)
        cache = RevisionCache(tmp_path)
        fetch_revisions(quiet_query(), cache, get_json=get_json)
        article_dir = cache.article_dir("Example outbreak")
        names = sorted(p.name for p in article_dir.iterdir())
        assert names == ["900.json", "901.json", "902.json", "index.json"]
        record = json.loads((article_dir / "900.json").read_text(encoding="utf-8"))
        assert record["revid"] == 900

    def test_records_written_before_return(self, api_pages, tmp_path):
        cache = RevisionCache(tmp_path)

        def get_json(params):
            # By the second request the first page's revision must be cached.
            if params.get("rvcontinue") == "20140401|901":
                assert cache.get_record("Example outbreak", 900) is not None
            return api_pages[[None, "20140401|901", "20140403|902"].index(
                params.get("rvcontinue"))]

        fetch_revisions(quiet_query(), cache, get_json=get_json)


class TestCacheFiles:
    @pytest.mark.parametrize("name, read", [
        ("901.json", lambda cache: cache.get_record("Example outbreak", 901)),
        ("901.json", lambda cache: cache.load_all_records("Example outbreak")),
        ("index.json", lambda cache: cache.load_index("Example outbreak")),
    ], ids=["get_record", "load_all_records", "load_index"])
    @pytest.mark.parametrize("damage", ["truncate", "not_object", "not_utf8", "deep"])
    def test_corrupt_file_is_cache_error_naming_it(self, api_pages, tmp_path,
                                                   name, read, damage):
        get_json, _ = replay(api_pages)
        cache = RevisionCache(tmp_path)
        fetch_revisions(quiet_query(), cache, get_json=get_json)
        path = cache.article_dir("Example outbreak") / name
        body = path.read_bytes()
        path.write_bytes({"truncate": body[:len(body) // 2], "not_object": b"[1, 2]",
                          "not_utf8": b'{"revid": "\xff"}', "deep": b"[" * 100000}[damage])
        with pytest.raises(CacheError, match=re.escape(str(path))):
            read(cache)

    @pytest.mark.parametrize("queries", [
        None, [], {"*..*": {"skipped_suppressed": 0}}, {"*..*": {"revision_ids": 5}},
        {"*..*": {"revision_ids": ["../901"]}}, {"*..*": ["901"]},
    ], ids=["missing", "list", "no-ids", "int-ids", "str-id", "entry-list"])
    def test_malformed_index_is_cache_error_naming_it(self, api_pages, tmp_path, queries):
        get_json, state = replay(api_pages)
        cache = RevisionCache(tmp_path)
        fetch_revisions(quiet_query(), cache, get_json=get_json)
        path = cache.article_dir("Example outbreak") / "index.json"
        index = json.loads(path.read_text(encoding="utf-8"))
        if queries is None:
            del index["queries"]
        else:
            index["queries"] = queries
        path.write_text(json.dumps(index), encoding="utf-8")
        with pytest.raises(CacheError, match=re.escape(str(path))):
            fetch_revisions(quiet_query(), cache, get_json=get_json)
        assert state["calls"] == 3

    @pytest.mark.parametrize("field, value", [("timestamp", 5), ("revid", "901")])
    def test_mistyped_sort_field_is_cache_error_naming_it(self, api_pages, tmp_path,
                                                          field, value):
        get_json, _ = replay(api_pages)
        cache = RevisionCache(tmp_path)
        fetch_revisions(quiet_query(), cache, get_json=get_json)
        path = cache.article_dir("Example outbreak") / "901.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(dict(record, **{field: value})), encoding="utf-8")
        with pytest.raises(CacheError, match=re.escape(str(path))):
            load_cached_revisions(cache, "Example outbreak")

    def test_interleaved_writers_each_leave_a_complete_file(self, monkeypatch, tmp_path):
        cache = RevisionCache(tmp_path)
        first = {"revid": 7, "comment": "first writer"}
        second = {"revid": 7, "comment": "second writer"}
        path = cache.article_dir("X") / "7.json"
        seen = []
        real_replace = os.replace

        def replace_after_second_writer(src, dst):
            # The first writer's rename waits until a second writer of the
            # same revision has written and renamed its own file.
            if not seen:
                seen.append(None)
                cache.put_record("X", second)
                seen.append(json.loads(path.read_text(encoding="utf-8")))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_second_writer)
        cache.put_record("X", first)
        assert seen[1] == second
        assert json.loads(path.read_text(encoding="utf-8")) == first
        assert [p.name for p in path.parent.iterdir()] == ["7.json"]

    def test_record_utf8_cannot_encode_is_cache_error_naming_it(self, tmp_path):
        cache = RevisionCache(tmp_path)
        path = cache.article_dir("X") / "7.json"
        with pytest.raises(CacheError, match=f"^{re.escape(str(path))}: .*surrogates"):
            cache.put_record("X", {"revid": 7, "content": "text \ud800"})
        assert not list(tmp_path.rglob("*"))

    def test_concurrent_writers_stress(self, tmp_path):
        cache = RevisionCache(tmp_path)
        path = cache.article_dir("X") / "7.json"
        records = [{"revid": 7, "writer": w, "text": "x" * 4096} for w in range(8)]
        errors = []

        def write(record):
            try:
                for _ in range(25):
                    cache.put_record("X", record)
                    assert json.loads(path.read_text(encoding="utf-8")) in records
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(r,)) for r in records]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [p.name for p in path.parent.iterdir()] == ["7.json"]
