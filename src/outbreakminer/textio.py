"""The package's one door to files: UTF-8 text handles, whole texts and JSON.

A file that is not UTF-8, or not JSON where JSON is read, raises an
OutbreakError whose message starts with the file's path.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager, suppress

from .errors import OutbreakError


@contextmanager
def open_text(target, mode: str, newline: str | None):
    """UTF-8 text handle on a path, closed on exit; an open file passes through.

    Mode "w" writes a regular file or a new path whole or not at all, through
    a temp file of its own beside it; anything else is opened directly."""
    if not isinstance(target, (str, os.PathLike)):
        yield target
        return
    temp = info = handle = None
    if mode == "w":
        with suppress(OSError):  # a new path, or one whose direct open fails
            info = os.stat(target)
        if info is None or stat.S_ISREG(info.st_mode) and os.access(target, os.W_OK):
            path = os.path.realpath(target) if os.path.islink(target) else target  # a link stays
            temp = f"{path}.{os.urandom(6).hex()}.tmp"  # a *.json glob skips it
            with suppress(OSError):  # else opened directly, so an error names the target
                handle = open(temp, "x", encoding="utf-8", newline=newline)
    if handle is None:
        temp, handle = None, open(target, mode, encoding="utf-8", newline=newline)
    try:
        with handle:
            yield handle
        if temp:
            if info:  # an existing file keeps its mode bits
                os.chmod(temp, stat.S_IMODE(info.st_mode))
            os.replace(temp, path)
            temp = None  # replaced: nothing left to remove
    except UnicodeError as exc:  # decoding a read or encoding a write in the block
        raise OutbreakError(f"{target}: {exc}") from None
    finally:
        if temp:
            os.unlink(temp)


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
