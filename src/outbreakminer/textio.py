"""The package's one door to files: UTF-8 text handles, whole texts and JSON.

A file that is not UTF-8, or not JSON where JSON is read, raises an
OutbreakError whose message starts with the file's path.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .errors import OutbreakError


@contextmanager
def open_text(target, mode: str, newline: str | None):
    """UTF-8 text handle on a path, closed on exit; an open file passes through."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        try:
            with open(target, mode, encoding="utf-8", newline=newline) as handle:
                yield handle
        except UnicodeError as exc:  # decoding a read or encoding a write in the block
            raise OutbreakError(f"{target}: {exc}") from None
    else:
        yield target


def read_text(path) -> str:
    """A whole UTF-8 file, with universal newlines."""
    with open_text(path, "r", newline=None) as handle:
        return handle.read()


def read_json(path):
    """A file's JSON document."""
    try:
        return json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:  # too deep a nesting is RecursionError
        raise OutbreakError(f"{path}: {exc}") from None
