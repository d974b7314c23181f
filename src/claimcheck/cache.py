"""Content-addressed JSON cache for expensive provider calls.

Keys are sha256 hashes of canonically serialized inputs, so a cache hit
means the exact same work was already done under the same seed and
parameters. Every cache write goes through `atomic_write`: a uniquely named
temp file and a rename, so a crashed run never leaves a truncated entry
behind and two writers of one key never share a temp file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

__all__ = ["stable_hash", "atomic_write", "JsonCache"]


def stable_hash(obj) -> str:
    """sha256 hex digest of an object's canonical JSON form."""
    blob = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def atomic_write(path, write) -> None:
    """Create or replace `path` with what `write(binary_file)` writes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class JsonCache:
    """Directory of ``<key>.json`` entries with atomic writes."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str):
        path = self._path(key)
        if not path.exists():
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def put(self, key: str, value) -> None:
        blob = json.dumps(value, ensure_ascii=False).encode("utf-8")
        atomic_write(self._path(key), lambda fh: fh.write(blob))

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()
