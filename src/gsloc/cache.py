"""Content-addressed cache for pipeline intermediates, and the one writer.

Keys are SHA-256 over input content hashes plus canonicalized parameters, so
sweeps that share a stage (e.g. the same graph under different m) reuse its
artifact. Every file gsloc makes, artifact or output, goes to a temp file
beside it followed by a rename (``write_file``), so concurrent runs can share
a cache without readers ever seeing partial files. Nothing is fsynced: a
kill leaves the old file or the new one, a power loss may not.

A hit whose file fails the caller's check (a size that disagrees with its
header) is removed and rebuilt. A producer killed outright leaves its temp
file (named ``TEMP_PREFIX`` and a random suffix) behind; opening the cache
removes such files once they are older than ``_STALE_TEMP_AGE_S``, which no
live producer's file reaches. No other file in the cache directory is
touched, whatever its name or age.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import os
import time
from pathlib import Path
from typing import BinaryIO, Callable, Iterable

from .errors import InputError

logger = logging.getLogger(__name__)

# Age (by modification time) past which a write_file temp file in the cache
# directory is taken to be a killed producer's leftover.
_STALE_TEMP_AGE_S = 24 * 3600
# The name prefix of write_file's temp files, and of no other file.
TEMP_PREFIX = ".gsloc-tmp-"


def write_file(path: str | Path, fill: Callable[[BinaryIO], object]) -> None:
    """Make the file at ``path`` whole or not at all: ``fill`` writes its
    bytes to a new temp file beside it (mode 0o666 less the umask), which
    then replaces it. When ``fill`` raises, ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(TEMP_PREFIX + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fill(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_utf8(path: str | Path, text: str) -> None:
    write_file(path, lambda fh: fh.write(text.encode("utf-8")))


def write_json(path: str | Path, payload: object) -> None:
    """The one JSON rendering: sorted keys, two-space indent, final newline."""
    write_utf8(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def csv_text(rows: Iterable[Iterable[object]], delimiter: str = ",") -> str:
    """The one CSV rendering: LF line ends, minimal quoting, floats by repr."""
    text = io.StringIO()
    csv.writer(text, delimiter=delimiter, lineterminator="\n").writerows(rows)
    return text.getvalue()


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def param_key(payload: dict) -> str:
    """Hash of a canonical JSON rendering (sorted keys, repr floats)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Cache:
    """Flat directory of immutable artifacts named `<kind>-<key><suffix>`."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_temps()

    def _sweep_stale_temps(self) -> None:
        """Remove temp files older than _STALE_TEMP_AGE_S; one that vanishes
        or cannot be removed (another user's, say) is left to them."""
        cutoff = time.time() - _STALE_TEMP_AGE_S
        for path in self.root.glob(TEMP_PREFIX + "*"):
            with contextlib.suppress(OSError):
                if path.is_file() and path.stat().st_mtime < cutoff:
                    path.unlink()

    def get_or_create(self, kind: str, key: str, suffix: str,
                      producer: Callable[[Path], None],
                      check: Callable[[Path], object] | None = None
                      ) -> tuple[Path, bool]:
        """Return (path, was_hit). On a miss, ``producer(path)`` writes the
        artifact through ``write_file``, and it is made readable by every
        user of a shared cache. On a hit, `check` (when given) reads what it
        needs of the file and raises InputError when it cannot be used; the
        file is then removed and rebuilt, and the call counts as a miss."""
        final = self.root / f"{kind}-{key}{suffix}"
        if final.exists():
            try:
                if check is not None:
                    check(final)
                return final, True
            except InputError as exc:
                logger.warning("cache: removing and rebuilding %s (%s)",
                               final.name, exc)
                final.unlink(missing_ok=True)
        producer(final)
        # Another user's copy may have replaced ours; its mode is theirs.
        with contextlib.suppress(PermissionError):
            os.chmod(final, 0o644)
        return final, False
