"""UTF-8 text handles for the corpus and ground-truth readers and writers."""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def open_text(target, mode: str, newline: str):
    """UTF-8 text handle on a path, closed on exit; an open file passes through."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, mode, encoding="utf-8", newline=newline) as handle:
            yield handle
    else:
        yield target
