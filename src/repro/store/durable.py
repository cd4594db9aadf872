"""Crash-safe files: the one durable-file primitive of the stack.

:func:`atomic_write` replaces a whole file: a unique temp in the
target's directory, fsync, ``os.replace``, directory fsync; a failed
write unlinks its temp.  :class:`AppendLog` is an append-only
JSONL file whose only legal scar is a torn last line (undecodable, or
unterminated even if it parses): readers skip it and the next append
truncates it away.  Blank lines are skipped; an undecodable line
anywhere else raises :class:`CorruptLine`.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Any, Iterator, Optional, Tuple, Union

from ..errors import StoreError


class CorruptLine(StoreError, ValueError):
    """A line before the last one of an :class:`AppendLog` is corrupt
    (a ``StoreError`` to store callers, a ``ValueError`` to telemetry)."""


def _write_all(fd: int, payload: bytes) -> None:
    view = memoryview(payload)
    while view:
        view = view[os.write(fd, view):]


def _fsync_directory(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: Union[str, Path], data: str) -> None:
    """Replace ``path`` with UTF-8 ``data``: old bytes or new, never a mix."""
    target = Path(path)
    # mkstemp's uniqueness (O_EXCL, random name), but the permissions
    # open() would give instead of mkstemp's fixed 0600.
    temp = target.with_name(f"{target.name}.{secrets.token_hex(6)}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            _write_all(fd, data.encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(temp, target)
        _fsync_directory(target.parent)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


class AppendLog:
    """An append-only JSONL file; ``name`` labels it in error messages."""

    def __init__(self, path: Union[str, Path], name: str) -> None:
        self.path = Path(path)
        self.name = name
        #: Start of the torn last line found by :meth:`lines` (or left
        #: by a failed :meth:`append`); the next append truncates to it.
        self.torn_at: Optional[int] = None

    def lines(
        self, start: int = 0, payload: Optional[bytes] = None
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(end_offset, decoded)`` per durable line from byte
        ``start`` of ``payload`` (default: the file as it is now); a
        torn last line only sets :attr:`torn_at`."""
        self.torn_at = None
        if payload is None:
            payload = self.path.read_bytes()
        end = start
        number = payload.count(b"\n", 0, start)
        for entry in payload[start:].splitlines(keepends=True):
            begin, end = end, end + len(entry)
            number += 1
            if not entry.strip():
                continue
            try:
                data = json.loads(entry.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                if end < len(payload):
                    raise CorruptLine(
                        f"corrupt {self.name} line {number} in {self.path}: {exc}"
                    ) from None
                self.torn_at = begin
                return
            if end == len(payload) and not entry.endswith(b"\n"):
                self.torn_at = begin  # parses, but the append never ended
                return
            yield end, data

    def append(self, line: str) -> int:
        """Truncate a torn tail, append ``line`` and fsync; returns the
        byte offset the line starts at."""
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            if self.torn_at is not None:
                os.truncate(fd, self.torn_at)
            # Until the fsync returns, bytes past ``end`` are a scar.
            end = self.torn_at = os.lseek(fd, 0, os.SEEK_END)
            _write_all(fd, (line + "\n").encode("utf-8"))
            os.fsync(fd)
            if end == 0:  # a new file: make its name durable too
                _fsync_directory(self.path.parent)
            self.torn_at = None
        finally:
            os.close(fd)
        return end


__all__ = ["AppendLog", "CorruptLine", "atomic_write"]
