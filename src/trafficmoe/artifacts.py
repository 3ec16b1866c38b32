"""How pipeline artifacts are read safely and written durably: atomic writes, the
``magic | HEADER`` binary formats (TMCK, TMFL) and ``key=value`` text configs."""

from __future__ import annotations

import itertools
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

HEADER = struct.Struct("<II")  # version, record count; follows the 4-byte magic


def write_atomic(path: str | Path, data: bytes | bytearray | str | Iterable[str] | Iterable[bytes]) -> None:
    """Write ``data`` (bytes, text, or text or bytes chunks streamed as they come, none before the first)
    to a sibling temp file, flush it to disk and rename it over ``path``: readers see the old or new file."""
    chunks = iter([data] if isinstance(data, (bytes, bytearray, str)) else data)
    first = next(chunks, b"")
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w" if isinstance(first, str) else "wb") as fh:
            fh.writelines(itertools.chain([first], chunks))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class BinaryReader:
    """Bounds-checked cursor over one binary artifact; ``start`` is where the current record begins."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = self.start = self.count = 0

    @classmethod
    @contextmanager
    def open(cls, path: str | Path, magic: bytes, version: int,
             error: type[ValueError] = ValueError) -> Iterator["BinaryReader"]:
        """Yield a reader past ``path``'s checked header. A ValueError raised in the
        block, by the reader or by the caller's checks, leaves as ``error`` naming
        the file and the offset where the failing record starts."""
        reader = cls(Path(path).read_bytes())
        try:
            if reader.data[:4] != magic:
                raise ValueError(f"bad magic {reader.data[:4]!r}, expected {magic!r}")
            reader.pos = 4
            found, reader.count = reader.unpack(HEADER)
            if found != version:
                raise ValueError(f"unsupported version {found}, expected {version}")
            yield reader
        except ValueError as exc:
            raise error(f"{path}: malformed record at offset {reader.start}: {exc}") from None

    def records(self, n: int) -> Iterator[int]:
        for i in range(n):
            self.start = self.pos
            yield i

    def take(self, n: int) -> bytes:
        at, self.pos = self.pos, self.pos + n
        if self.pos > len(self.data):
            raise ValueError(f"{n}-byte read at {at} runs past the end of the {len(self.data)}-byte file")
        return self.data[at : self.pos]

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def end(self) -> None:
        self.start = self.pos
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} trailing bytes after the last record")


def parse_kv(text: str, source: str | Path) -> dict[str, str]:
    """``key=value`` lines -> dict, stripped; blank and ``#`` lines are skipped, and any
    other line without ``=`` raises ValueError naming ``source`` and the 1-based line."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"{source}:{lineno}: expected key=value, got {line!r}")
            values[key.strip()] = value.strip()
    return values


def format_kv(values: dict) -> str:
    return "".join(f"{key}={values[key]}\n" for key in sorted(values))
