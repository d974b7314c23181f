"""`atomic_write`, the one path by which claimcheck writes a file: whole or
not at all, with the same mode `open` gives, and any missing directories
made only once the write has succeeded."""

import os
import stat

import pytest

from claimcheck.cache import atomic_write


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
