"""`atomic_write`, the one path by which claimcheck writes a file: whole or
not at all, with the same mode `open` gives, and any missing directories
made only once the write has succeeded. `stable_hash`, which hashes a list
a chunk at a time, gives the digest of the whole list's canonical JSON."""

import hashlib
import json
import os
import random
import stat
import tracemalloc

import pytest

from claimcheck import cache
from claimcheck.cache import atomic_write, stable_hash


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")


def _items(n, seed=0):
    rng = random.Random(seed)
    return [(f"{i:018d}", f"topic-{i % 14}",
             " ".join(f"w{rng.randrange(900)}" for _ in range(12)),
             {"z": i, "a": [rng.random(), None, "\U0001d4b3 é"]}, "CT21")
            for i in range(n)]


@pytest.mark.parametrize("obj", [
    [], {"b": 1, "a": [2, {"d": 3, "c": "x"}]}, "text", 7, None,
    [{"b": 1, "a": 2}, {"d": [], "c": {}}],
    *(_items(cache._HASH_CHUNK * k + d) for k, d in
      ((1, -1), (1, 0), (1, 1), (2, 1))),
], ids=lambda obj: f"list of {len(obj)}" if isinstance(obj, list)
    else type(obj).__name__)
def test_stable_hash_is_the_digest_of_the_whole_canonical_json(obj):
    assert stable_hash(obj) == hashlib.sha256(_canonical(obj)).hexdigest()


def test_stable_hash_holds_a_chunk_of_a_list_not_its_json():
    items = _items(20_000)
    size = len(_canonical(items))
    tracemalloc.start()
    try:
        stable_hash(items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= size / 4, (peak, size)


@pytest.mark.parametrize("umask", [None, 0o027])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask) if umask is not None else None
    try:
        atomic_write(tmp_path / "atomic", lambda fh: fh.write(b"x"))
        with open(tmp_path / "plain", "wb") as fh:
            fh.write(b"x")
    finally:
        if old is not None:
            os.umask(old)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("atomic", "plain")]
    assert modes[0] == modes[1]
    assert (tmp_path / "atomic").read_bytes() == b"x"


def test_atomic_write_leaves_nothing_when_the_writer_fails(tmp_path):
    (tmp_path / "kept").write_bytes(b"old")

    def fail(fh):
        fh.write(b"partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError):
        atomic_write(tmp_path / "kept", fail)
    with pytest.raises(RuntimeError):
        atomic_write(tmp_path / "new", fail)
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]
    assert (tmp_path / "kept").read_bytes() == b"old"


def test_atomic_write_makes_missing_directories_only_on_success(tmp_path):
    def fail(fh):
        fh.write(b"partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError):
        atomic_write(tmp_path / "a" / "b" / "new", fail)
    assert list(tmp_path.iterdir()) == []
    atomic_write(tmp_path / "a" / "b" / "new", lambda fh: fh.write(b"x"))
    assert (tmp_path / "a" / "b" / "new").read_bytes() == b"x"
    assert [p.name for p in tmp_path.rglob("*")] == ["a", "b", "new"]


def test_atomic_write_writes_text_as_utf8_without_newline_translation(
        tmp_path):
    atomic_write(tmp_path / "t", lambda fh: fh.write("نص\r\nx\n"), text=True)
    assert (tmp_path / "t").read_bytes() == "نص\r\nx\n".encode("utf-8")
