"""MinHash embeddings of token sets.

One MinHash function hashes every member of a set with a tabulation function
and returns the member with the smallest hash, so two sets agree on a function
with probability equal to their Jaccard similarity. A signature stacks t
independent functions; the fraction of agreeing positions is an unbiased
similarity estimate.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySetError, SignatureMismatchError
from .tabulation import derive_seed, splitmix64_array, table_tensor

DEFAULT_SIG_LEN = 128

# Tag for deriving per-function seeds from a family seed.
_FN_TAG = 0x6D696E68  # "minh"


def function_seeds(family_seed: int, count: int) -> np.ndarray:
    """Seeds of the `count` independent functions of a family."""
    base = derive_seed(family_seed, _FN_TAG)
    return splitmix64_array(base, np.arange(count, dtype=np.uint64))


class MinHashFamily:
    """t independent MinHash functions with tabulation-hashed ranks.

    `tables` stacks the per-function tabulation tables as (t, 4, 256) uint64,
    which lets a whole signature be computed with four gathers and an argmin.
    """

    __slots__ = ("sig_len", "seed", "fn_seeds", "tables")

    def __init__(self, sig_len: int = DEFAULT_SIG_LEN, seed: int = 0):
        if sig_len < 1:
            raise ValueError("sig_len must be >= 1")
        self.sig_len = sig_len
        self.seed = seed
        self.fn_seeds = function_seeds(seed, sig_len)
        self.tables = table_tensor(self.fn_seeds)

    def _ranks(self, tokens: np.ndarray) -> np.ndarray:
        """Hash ranks of `tokens` under every function, shape (sig_len, len)."""
        t = self.tables
        idx = np.asarray(tokens, dtype=np.intp)
        b0 = idx & 0xFF
        b1 = (idx >> 8) & 0xFF
        b2 = (idx >> 16) & 0xFF
        b3 = (idx >> 24) & 0xFF
        h = t[:, 0, :][:, b0]
        h ^= t[:, 1, :][:, b1]
        h ^= t[:, 2, :][:, b2]
        h ^= t[:, 3, :][:, b3]
        return h

    def minhash(self, index: int, tokens) -> int:
        """Value of function `index` on a token set: the member whose hash rank
        is smallest. Ties (vanishing probability) go to the smallest member,
        which argmin delivers for free on ascending token order."""
        tokens = checked_tokens(tokens)
        ranks = self._ranks(tokens)[index]
        return int(tokens[np.argmin(ranks)])

    def embed(self, tokens) -> np.ndarray:
        """Full signature of a token set, shape (sig_len,) uint32."""
        tokens = checked_tokens(tokens)
        ranks = self._ranks(tokens)
        return tokens[np.argmin(ranks, axis=1)].astype(np.uint32)


def checked_tokens(tokens) -> np.ndarray:
    """A non-empty token set as a sorted unique uint32 array."""
    arr = np.asarray(tokens, dtype=np.uint32)
    if arr.ndim != 1:
        raise ValueError("token set must be one-dimensional")
    if arr.size == 0:
        raise EmptySetError("cannot MinHash an empty set")
    # Ascending order makes the argmin tie-break deterministic.
    if arr.size > 1 and not np.all(arr[:-1] < arr[1:]):
        arr = np.unique(arr)
    return arr


def signature_similarity(a, b) -> float:
    """Fraction of positions where two signatures agree."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise SignatureMismatchError(f"signature lengths differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise SignatureMismatchError("empty signatures")
    return float(np.count_nonzero(a == b)) / a.size
