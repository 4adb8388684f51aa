"""Offline stand-in for the MediaWiki revisions API.

An instance is passed as ``get_json`` to ``outbreakminer.ingest.fetch_revisions``.
It answers the ``prop=revisions`` query for one title from a list of
generated records, oldest first, ``page_size`` records per response, and
links the pages with ``rvcontinue`` tokens shaped like the real API's
(``<timestamp>|<revid>``).
"""

from __future__ import annotations


class FakeRevisionsApi:
    def __init__(self, title: str, records: list[dict], page_size: int = 50):
        self.title = title
        self.records = records
        self.page_size = page_size
        self.requests = 0

    def _token(self, index: int) -> str:
        record = self.records[index]
        stamp = record["timestamp"].replace("-", "").replace(":", "").replace("T", "").rstrip("Z")
        return f"{stamp}|{record['revid']}"

    def __call__(self, params: dict) -> dict:
        self.requests += 1
        if (params.get("action"), params.get("prop"), params.get("titles")) != (
                "query", "revisions", self.title):
            raise ValueError(f"unsupported request {params!r}")
        start = 0
        token = params.get("rvcontinue")
        if token is not None:
            tokens = [self._token(i) for i in range(len(self.records))]
            start = tokens.index(token)
        end = min(start + self.page_size, len(self.records))
        payload = {
            "batchcomplete": True,
            "query": {"pages": [{
                "pageid": 4242,
                "ns": 0,
                "title": self.title,
                "revisions": self.records[start:end],
            }]},
        }
        if end < len(self.records):
            payload["continue"] = {"rvcontinue": self._token(end), "continue": "||"}
        return payload
