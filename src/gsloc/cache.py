"""Content-addressed cache for pipeline intermediates.

Keys are SHA-256 over input content hashes plus canonicalized parameters, so
sweeps that share a stage (e.g. the same graph under different m) reuse its
artifact. Writes go to a temp file in the cache directory followed by an
atomic rename, so concurrent runs can share a cache without readers ever
seeing partial files.

A hit whose file fails the caller's check (a size that disagrees with its
header) is removed and rebuilt. A producer killed outright leaves its temp
file behind; opening the cache removes such files once they are older than
``_STALE_TEMP_AGE_S``, which no live producer's file reaches.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import tempfile
import time
from pathlib import Path
from typing import Callable

from .errors import InputError

logger = logging.getLogger(__name__)

# Age (by modification time) past which a `.<kind>-XXXX` temp file in the
# cache directory is taken to be a killed producer's leftover.
_STALE_TEMP_AGE_S = 24 * 3600


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
        for path in self.root.glob(".*-*"):
            with contextlib.suppress(OSError):
                if path.is_file() and path.stat().st_mtime < cutoff:
                    path.unlink()

    def path_for(self, kind: str, key: str, suffix: str) -> Path:
        return self.root / f"{kind}-{key}{suffix}"

    def get_or_create(self, kind: str, key: str, suffix: str,
                      producer: Callable[[Path], None],
                      check: Callable[[Path], object] | None = None
                      ) -> tuple[Path, bool]:
        """Return (path, was_hit). On a miss, `producer` writes the artifact
        to a temp path which is then renamed into place. On a hit, `check`
        (when given) reads what it needs of the file and raises InputError
        when it cannot be used; the file is then removed and rebuilt, and
        the call counts as a miss."""
        final = self.path_for(kind, key, suffix)
        if final.exists():
            try:
                if check is not None:
                    check(final)
                return final, True
            except InputError as exc:
                logger.warning("cache: removing and rebuilding %s (%s)",
                               final.name, exc)
                final.unlink(missing_ok=True)
        fd, tmp_name = tempfile.mkstemp(prefix=f".{kind}-", dir=self.root)
        os.close(fd)
        tmp = Path(tmp_name)
        try:
            producer(tmp)
            # mkstemp makes the file 0600; a shared cache's users all read it.
            os.chmod(tmp, 0o644)
            os.replace(tmp, final)
        finally:
            tmp.unlink(missing_ok=True)
        return final, False
