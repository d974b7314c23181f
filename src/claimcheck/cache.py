"""Content-addressed cache for expensive provider calls and model fits.

Keys are sha256 hashes of canonically serialized inputs, so a cache hit
means the exact same work was already done under the same seed and
parameters. Every file claimcheck writes goes through `atomic_write`: a
uniquely named temp file and a rename, so a failed or crashed write leaves
no truncated file and makes no directory, and two writers of one key never
share a temp file.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = ["stable_hash", "atomic_write", "cached"]

_HASH_CHUNK = 256  # the items of a list `stable_hash` encodes at once


def stable_hash(obj) -> str:
    """sha256 hex digest of an object's canonical JSON form. A list's is
    encoded `_HASH_CHUNK` items at a time, so only their text is held."""
    def canonical(value) -> bytes:
        return json.dumps(value, sort_keys=True, ensure_ascii=False,
                          separators=(",", ":")).encode("utf-8")
    if not isinstance(obj, list):
        return hashlib.sha256(canonical(obj)).hexdigest()
    digest = hashlib.sha256(b"[")
    for at in range(0, len(obj), _HASH_CHUNK):
        digest.update(b"," * bool(at) + canonical(obj[at:at + _HASH_CHUNK])[1:-1])
    digest.update(b"]")
    return digest.hexdigest()


def atomic_write(path, write, text=False) -> None:
    """Create or replace `path`, whole or not at all, with what `write(file)`
    writes to a binary file, or with `text` to a UTF-8 text file. Missing
    directories are made only once `write` has returned."""
    path = Path(path)
    # the nearest existing ancestor holds the temp file: a directory made
    # under it shares its filesystem, so the rename still works
    base = next((d for d in (path.parent, *path.parent.parents)
                 if d.is_dir()), path.parent)
    tmp = base / f"tmp{os.urandom(8).hex()}.tmp"
    # O_EXCL keeps the temp file this writer's own; the kernel takes the
    # umask off 0o666, as open() does, so no thread has to read or set it
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with (open(fd, "w", encoding="utf-8", newline="") if text
              else open(fd, "wb")) as fh:
            write(fh)
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cached(path, make, write, read):
    """Get-or-compute: `read(path)` when the entry at `path` exists, else
    `make()`, stored first with `write(value, binary_file)` through
    `atomic_write`. With `path` None the value is computed and not stored."""
    if path is None:
        return make()
    if os.path.exists(path):
        return read(path)
    value = make()
    atomic_write(path, lambda fh: write(value, fh))
    return value
