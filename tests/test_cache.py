"""The artifact cache on its own: a hit that fails its check is rebuilt, and
opening the cache sweeps the temp files of killed producers once they are
old enough that no live producer can own them; and the one file writer."""

from __future__ import annotations

import os
import stat
import time

import pytest

import gsloc.cache as cache_mod
from gsloc.cache import Cache, write_file
from gsloc.errors import InputError


def _age(path, seconds):
    then = time.time() - seconds
    os.utime(path, (then, then))


def test_opening_the_cache_removes_only_stale_temp_files(tmp_path):
    Cache(tmp_path)
    stale = tmp_path / (cache_mod.TEMP_PREFIX + "k1ll3d")
    live = tmp_path / ".smoothed-wr1t1n"
    artifact = tmp_path / "graph-0123.adj1"
    for path in (stale, live, artifact):
        path.write_bytes(b"partial")
    _age(stale, cache_mod._STALE_TEMP_AGE_S + 60)
    _age(live, cache_mod._STALE_TEMP_AGE_S - 60)
    # Finished artifacts are kept whatever their age.
    _age(artifact, 10 * cache_mod._STALE_TEMP_AGE_S)
    Cache(tmp_path)
    assert not stale.exists()
    assert live.exists() and artifact.exists()


def test_opening_the_cache_keeps_other_dot_files_whatever_their_age(tmp_path):
    # Only write_file's temp name is swept: a user's dot-files in the cache
    # directory are theirs, however old, and so is a temp file still young
    # enough to belong to a live producer.
    kept = [tmp_path / name for name in (".user-notes", ".config-backup",
                                         ".pre-commit-config.yaml")]
    young = tmp_path / (cache_mod.TEMP_PREFIX + "wr1t1ng")
    for path in kept:
        path.write_bytes(b"mine")
        _age(path, 2 * cache_mod._STALE_TEMP_AGE_S)
    young.write_bytes(b"partial")
    _age(young, cache_mod._STALE_TEMP_AGE_S - 60)
    Cache(tmp_path)
    assert all(path.read_bytes() == b"mine" for path in kept)
    assert young.exists()


def test_a_hit_that_fails_its_check_is_rebuilt(tmp_path):
    cache = Cache(tmp_path)
    produced = []

    def produce(tmp):
        produced.append(tmp)
        tmp.write_bytes(b"good")

    def check(path):
        if path.read_bytes() != b"good":
            raise InputError(f"{path}: bad")

    path, hit = cache.get_or_create("graph", "k", ".adj1", produce, check)
    assert (hit, path.read_bytes(), len(produced)) == (False, b"good", 1)
    assert cache.get_or_create("graph", "k", ".adj1", produce, check) == (path, True)
    assert len(produced) == 1
    path.write_bytes(b"go")
    assert cache.get_or_create("graph", "k", ".adj1", produce, check) == (path, False)
    assert path.read_bytes() == b"good" and len(produced) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_write_file_replaces_a_file_whole_or_not_at_all(tmp_path):
    path = tmp_path / "table.csv"
    write_file(path, lambda fh: fh.write(b"old\r\n"))

    def fail(fh):
        fh.write(b"cut")
        raise RuntimeError("fill failed")

    with pytest.raises(RuntimeError, match="fill failed"):
        write_file(path, fail)
    # Bytes are written as given, and a failed fill leaves no temp file.
    assert path.read_bytes() == b"old\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
