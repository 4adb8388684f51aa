import ast
import os
import stat
from pathlib import Path

import pytest

import outbreakminer
from outbreakminer.errors import OutbreakError
from outbreakminer.textio import open_text

PACKAGE = Path(outbreakminer.__file__).parent


class TestWholeWrite:
    def test_raising_block_keeps_old_bytes_and_leaves_no_temp(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"old,bytes\r\n")
        with pytest.raises(RuntimeError):
            with open_text(out, "w", newline="") as handle:
                handle.write("new" * 10_000)
                raise RuntimeError("stop")
        assert out.read_bytes() == b"old,bytes\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_raising_block_makes_no_new_file(self, tmp_path):
        with pytest.raises(OutbreakError, match=f"^{tmp_path / 'new.txt'}: .*surrogates"):
            with open_text(tmp_path / "new.txt", "w", newline=None) as handle:
                handle.write("ok \ud800")
        assert list(tmp_path.iterdir()) == []

    def test_symlink_stays_and_its_target_is_replaced(self, tmp_path):
        target = tmp_path / "real.txt"
        target.write_text("old", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        with open_text(link, "w", newline=None) as handle:
            handle.write("new")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text(encoding="utf-8") == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]

    def test_fifo_is_written_directly(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with open_text(fifo, "w", newline=None) as handle:
                handle.write("through the pipe")
            assert os.read(reader, 100) == b"through the pipe"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_new_file_mode_matches_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w", encoding="utf-8"):
                pass
            with open_text(tmp_path / "out.txt", "w", newline=None) as handle:
                handle.write("x")
        finally:
            os.umask(old)
        assert (tmp_path / "out.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o666, 0o755], ids=oct)
    def test_existing_file_keeps_its_mode(self, tmp_path, mode):
        out = tmp_path / "out.txt"
        out.write_text("old", encoding="utf-8")
        out.chmod(mode)
        with open_text(out, "w", newline=None) as handle:
            handle.write("new")
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert out.read_text(encoding="utf-8") == "new"


# Calls that open, create, replace or remove a file. Path.replace(target)
# takes one positional argument; str.replace takes two or three.
_OS_CALLS = {"open", "fdopen", "replace", "rename", "remove", "unlink"}
_PATH_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "unlink",
                 "replace"}


def file_calls(source: str) -> list[str]:
    """Each call or import in ``source`` that reaches a file other than through textio."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name == "tempfile"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("tempfile", "os"):
            found += [(node.lineno, f"from {node.module} import {a.name}") for a in node.names
                      if node.module == "tempfile" or a.name in _OS_CALLS]
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.append((node.lineno, "open()"))
            elif isinstance(func, ast.Attribute):
                owner = func.value.id if isinstance(func.value, ast.Name) else None
                if owner == "tempfile" or owner == "os" and func.attr in _OS_CALLS:
                    found.append((node.lineno, f"{owner}.{func.attr}()"))
                elif owner != "os" and func.attr in _PATH_METHODS and (
                        func.attr != "replace" or len(node.args) == 1 and not node.keywords):
                    found.append((node.lineno, f".{func.attr}()"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


class TestOneWriter:
    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                              if p.name != "textio.py"))
    def test_only_textio_touches_files(self, module):
        assert file_calls((PACKAGE / module).read_text(encoding="utf-8")) == []

    def test_guard_sees_a_private_temp_writer(self):
        source = (
            "import os\nimport tempfile\nfrom os import replace\n"
            "fd, tmp = tempfile.mkstemp(dir=d, suffix='.tmp')\n"
            "with os.fdopen(fd, 'wb') as handle:\n    handle.write(data)\n"
            "os.replace(tmp, path)\nos.unlink(tmp)\n"
            "path.write_text(text.replace('a', 'b'))\nstamp.replace(tzinfo=utc)\n"
            "other.replace(path)\nopen(path)\n"
        )
        assert file_calls(source) == [
            "line 2: import tempfile", "line 3: from os import replace",
            "line 4: tempfile.mkstemp()", "line 5: os.fdopen()", "line 7: os.replace()",
            "line 8: os.unlink()", "line 9: .write_text()", "line 11: .replace()",
            "line 12: open()",
        ]
