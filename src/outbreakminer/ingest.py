"""Revision-history acquisition through the MediaWiki web API, with caching.

Fetches follow rvcontinue tokens until the window is exhausted, write every
raw API record to the cache before returning, and record the completed query
in a per-article index so a warm cache answers with zero network requests.
Cache writes go through atomic renames of per-writer temp files, so
concurrent readers never see a partial file and concurrent writers never
share a temp file. A cache file that is not a JSON object, an index whose
queries are not lists of revision ids, or a record that is not a valid
revision raises CacheError naming the file.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
import urllib.parse
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Callable

from .errors import ArticleNotFoundError, CacheError, OutbreakError, PayloadError, TransportError
from .textio import read_json

logger = logging.getLogger(__name__)

DEFAULT_API_ENDPOINT = "https://en.wikipedia.org/w/api.php"
USER_AGENT = "outbreakminer/0.1 (outbreak-article revision mining; batch, rate-limited)"


@dataclass(frozen=True)
class ArticleRevision:
    """One stored version of a wiki article."""

    revision_id: int
    parent_id: int | None
    timestamp: datetime
    editor: str
    comment: str
    wikitext: str


@dataclass(frozen=True)
class RevisionQuery:
    article_title: str
    start: datetime | None = None
    end: datetime | None = None
    api_endpoint: str = DEFAULT_API_ENDPOINT
    min_request_interval_ms: int = 200

    def __post_init__(self):
        if self.start is not None and self.end is not None and self.start > self.end:
            raise ValueError("query start must not be after end")
        if self.min_request_interval_ms < 0:
            raise ValueError("min_request_interval_ms must be >= 0")

    def cache_key(self) -> str:
        left = self.start.isoformat() if self.start else "*"
        right = self.end.isoformat() if self.end else "*"
        return f"{left}..{right}"


class RevisionCache:
    """One JSON file per (article, revision id) plus an index per article."""

    def __init__(self, root):
        self.root = Path(root)

    def article_dir(self, title: str) -> Path:
        return self.root / urllib.parse.quote(title, safe="")

    def _atomic_write(self, path: Path, payload: dict) -> None:
        try:
            data = json.dumps(payload, ensure_ascii=False, sort_keys=True).encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate in a string
            raise CacheError(f"{path}: {exc}") from None
        path.parent.mkdir(parents=True, exist_ok=True)
        # A temp file of its own per write, so concurrent writers of one path
        # never share one; the *.json glob skips it.
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @staticmethod
    def _read(path: Path) -> dict:
        """One cache file's JSON object; CacheError naming the file otherwise."""
        try:
            data = read_json(path)
        except OutbreakError as exc:  # its message starts with the path
            raise CacheError(f"corrupt cache file {exc}") from exc
        if not isinstance(data, dict):
            raise CacheError(f"corrupt cache file {path}: not a JSON object")
        return data

    def record_path(self, title: str, revision_id: int) -> Path:
        return self.article_dir(title) / f"{revision_id}.json"

    def put_record(self, title: str, record: dict) -> None:
        self._atomic_write(self.record_path(title, record["revid"]), record)

    def get_record(self, title: str, revision_id: int) -> dict | None:
        path = self.record_path(title, revision_id)
        if not path.exists():
            return None
        return self._read(path)

    def load_index(self, title: str) -> dict:
        path = self.article_dir(title) / "index.json"
        if not path.exists():
            return {"article_title": title, "queries": {}}
        index = self._read(path)
        queries = index.get("queries")
        for entry in queries.values() if isinstance(queries, dict) else [None]:
            ids = entry.get("revision_ids") if isinstance(entry, dict) else None
            if not isinstance(ids, list) or not all(type(rid) is int for rid in ids):
                raise CacheError(f"corrupt cache file {path}: malformed query index")
        return index

    def save_index(self, title: str, index: dict) -> None:
        self._atomic_write(self.article_dir(title) / "index.json", index)

    def load_all_records(self, title: str) -> list[dict]:
        """Every cached revision record for an article, oldest first."""
        return [record for _, record in self._record_files(title)]

    def _record_files(self, title: str) -> list[tuple[Path, dict]]:
        """(path, record) for every cached revision of an article, oldest first."""
        directory = self.article_dir(title)
        if not directory.is_dir():
            return []
        records = []
        for path in directory.glob("*.json"):
            if path.name == "index.json":
                continue
            record = self._read(path)
            # The sort below compares these fields across records.
            if not (isinstance(record.get("timestamp", ""), str)
                    and type(record.get("revid", 0)) is int):
                raise CacheError(f"corrupt cache file {path}: timestamp or revid of wrong type")
            records.append((path, record))
        records.sort(key=lambda item: (item[1].get("timestamp", ""), item[1].get("revid", 0)))
        return records


def _parse_api_timestamp(value: str) -> datetime:
    return datetime.strptime(value, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)


def revision_from_record(record: dict) -> ArticleRevision | None:
    """API record -> ArticleRevision; None for suppressed/deleted content."""
    if any(key in record for key in ("texthidden", "suppressed")):
        return None
    try:
        content = None
        slots = record.get("slots")
        if isinstance(slots, dict):
            main = slots.get("main", {})
            if not isinstance(main, dict):
                raise TypeError(f"slots.main is {type(main).__name__}, not an object")
            if "texthidden" in main:
                return None
            content = main.get("content", main.get("*"))
        if content is None:
            content = record.get("content", record.get("*"))
        if content is None:
            return None
        if not isinstance(content, str):
            raise TypeError(f"content is {type(content).__name__}, not a string")
        return ArticleRevision(
            revision_id=int(record["revid"]),
            parent_id=int(record["parentid"]) if record.get("parentid") else None,
            timestamp=_parse_api_timestamp(record["timestamp"]),
            editor=str(record.get("user", "")),
            comment=str(record.get("comment", "")),
            wikitext=content,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise PayloadError(f"malformed revision record {record.get('revid')!r}: {exc}") from exc


def _cached_revision(path: Path, record: dict) -> ArticleRevision | None:
    """revision_from_record on a cached record; CacheError naming its file."""
    try:
        return revision_from_record(record)
    except PayloadError as exc:
        raise CacheError(f"corrupt cache file {path}: {exc}") from exc


def _default_get_json(endpoint: str) -> Callable[[dict], dict]:
    import requests  # loaded only when a fetch goes to the network

    session = requests.Session()
    session.headers["User-Agent"] = USER_AGENT

    def get_json(params: dict) -> dict:
        response = session.get(endpoint, params=params, timeout=60)
        response.raise_for_status()
        return response.json()

    return get_json


def fetch_revisions(query: RevisionQuery, cache: RevisionCache,
                    get_json: Callable[[dict], dict] | None = None,
                    max_retries: int = 3) -> list[ArticleRevision]:
    """Complete revision history for the query window, oldest first.

    Follows API continuation until exhausted. Every revision is cached
    before return; a repeat call with the same query is answered from the
    cache without any network request. Suppressed revisions are skipped and
    counted in the index.
    """
    title = query.article_title
    index = cache.load_index(title)
    key = query.cache_key()
    cached = index["queries"].get(key)
    if cached is not None:
        ids = cached["revision_ids"]
        records = [cache.get_record(title, rid) for rid in ids]
        if all(r is not None for r in records):
            revisions = [_cached_revision(cache.record_path(title, rid), r)
                         for rid, r in zip(ids, records)]
            return [r for r in revisions if r is not None]
        logger.warning("cache index for %r is stale; refetching", key)

    if get_json is None:
        get_json = _default_get_json(query.api_endpoint)

    params = {
        "action": "query",
        "format": "json",
        "formatversion": "2",
        "prop": "revisions",
        "titles": title,
        "rvprop": "ids|timestamp|user|comment|content",
        "rvslots": "main",
        "rvlimit": "max",
        "rvdir": "newer",
    }
    if query.start is not None:
        params["rvstart"] = query.start.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    if query.end is not None:
        params["rvend"] = query.end.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")

    revisions: list[ArticleRevision] = []
    skipped = 0
    continuation: str | None = None
    last_request = 0.0
    interval = query.min_request_interval_ms / 1000.0
    while True:
        page_params = dict(params)
        if continuation is not None:
            page_params["rvcontinue"] = continuation
        payload = None
        for attempt in range(max_retries):
            wait = last_request + interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            last_request = time.monotonic()
            try:
                payload = get_json(page_params)
                break
            # requests' errors subclass OSError, its JSONDecodeError ValueError.
            except (OSError, ValueError) as exc:
                logger.warning("request failed (attempt %d/%d): %s",
                               attempt + 1, max_retries, exc)
                if attempt + 1 == max_retries:
                    raise TransportError(
                        f"network failure after {max_retries} retries "
                        f"(last continuation token: {continuation!r})"
                    ) from exc
        try:
            pages = payload["query"]["pages"]
            page = pages[0] if isinstance(pages, list) else next(iter(pages.values()))
        except (KeyError, IndexError, StopIteration, TypeError) as exc:
            raise PayloadError(f"unexpected API response shape: {exc}") from exc
        if "missing" in page:
            raise ArticleNotFoundError(f"article {title!r} does not exist")
        for record in page.get("revisions", []):
            revision = revision_from_record(record)
            if revision is None:
                skipped += 1
                continue
            cache.put_record(title, record)
            revisions.append(revision)
        cont = payload.get("continue", {})
        continuation = cont.get("rvcontinue")
        if continuation is None:
            break

    revisions.sort(key=lambda r: r.timestamp)
    index["queries"][key] = {
        "revision_ids": [r.revision_id for r in revisions],
        "skipped_suppressed": skipped,
        "fetched_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
    cache.save_index(title, index)
    if skipped:
        logger.info("skipped %d suppressed/deleted revisions for %r", skipped, title)
    return revisions


def load_cached_revisions(cache: RevisionCache, title: str) -> list[ArticleRevision]:
    """Every cached revision for an article, oldest first, no network."""
    revisions = []
    for path, record in cache._record_files(title):
        revision = _cached_revision(path, record)
        if revision is not None:
            revisions.append(revision)
    return revisions


def revision_activity(revisions: list[ArticleRevision]) -> dict[date, int]:
    """Revisions per UTC calendar day, zero-filled across the spanned range."""
    if not revisions:
        return {}
    counts: dict[date, int] = {}
    for rev in revisions:
        day = rev.timestamp.astimezone(timezone.utc).date()
        counts[day] = counts.get(day, 0) + 1
    first, last = min(counts), max(counts)
    activity = {}
    day = first
    while day <= last:
        activity[day] = counts.get(day, 0)
        day += timedelta(days=1)
    return activity
