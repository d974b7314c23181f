"""A reference for `claimcheck.model.count_matrix`: the counting it did
before the CSR matrix was summed in place, one int64 key per (row, column)
entry, ordered and counted by `np.unique`. The token array comes from the
production `_token_array`, so only the counting is frozen here."""

from array import array

import numpy as np
from scipy import sparse

from claimcheck.model import _token_array


def count_matrix(texts):
    ids = {}  # token -> first-seen id, ranked below
    codes, lengths = array("q"), array("q")
    for text in texts:
        toks = text.split()
        codes.extend([ids.setdefault(t, len(ids)) for t in toks])
        lengths.append(len(toks))
    n = len(lengths)
    tokens = sorted(ids)
    rank = np.empty(len(tokens), dtype=np.int64)
    rank[[ids[t] for t in tokens]] = np.arange(len(tokens))
    cols = rank[np.frombuffer(codes, dtype=np.int64)]
    rows = np.repeat(np.arange(n), np.frombuffer(lengths, dtype=np.int64))
    width = len(tokens)
    stride = max(width, 1)
    # one sorted key per (row, column) entry: sorts rows, then columns
    cells, counts = np.unique(rows * stride + cols, return_counts=True)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells // stride, minlength=n), out=indptr[1:])
    x = sparse.csr_matrix(
        (counts.astype(np.float64), (cells % stride).astype(np.int32), indptr),
        shape=(n, width),
    )
    return _token_array(tokens), x
