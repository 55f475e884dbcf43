"""Content-addressed cache for pipeline intermediates.

Keys are SHA-256 over input content hashes plus canonicalized parameters, so
sweeps that share a stage (e.g. the same graph under different m) reuse its
artifact. Writes go to a temp file in the cache directory followed by an
atomic rename, so concurrent runs can share a cache without readers ever
seeing partial files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable


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

    def path_for(self, kind: str, key: str, suffix: str) -> Path:
        return self.root / f"{kind}-{key}{suffix}"

    def get_or_create(self, kind: str, key: str, suffix: str,
                      producer: Callable[[Path], None]) -> tuple[Path, bool]:
        """Return (path, was_hit). On a miss, `producer` writes the artifact
        to a temp path which is then renamed into place."""
        final = self.path_for(kind, key, suffix)
        if final.exists():
            return final, True
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
