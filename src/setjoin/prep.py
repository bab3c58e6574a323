"""Shared preprocessing: embed and sketch every record of a dataset once.

The signature and sketch MinHash families are stacked into one table tensor so
each record costs a single gather plus argmin. Signatures and sketches can be
reused across joins at different thresholds; only the filter cutoffs depend on
the threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .minhash import DEFAULT_SIG_LEN, MinHashFamily
from .sketch import DEFAULT_SKETCH_WORDS, SketchFamily, pack_bits
from .tabulation import derive_seed

_SIG_TAG = 0x707369  # signature family seed
_SK_TAG = 0x70736B  # sketch family seed
_UNIVERSE_CELL_CAP = 2 ** 24  # full-universe rank matrix above this is not worth it


@dataclass
class Prepared:
    """Embedded dataset: signatures (n, sig_len) and sketches (n, words)."""

    data: Dataset
    sig: np.ndarray
    sketches: np.ndarray
    sig_len: int
    sketch_words: int
    seed: int
    elapsed_s: float

    @property
    def sketch_bits(self) -> int:
        return 64 * self.sketch_words

    def check_dimensions(self, sig_len: int, sketch_words: int):
        """Reject a join config whose dimensions this embedding was not built with."""
        if self.sig_len != sig_len or self.sketch_words != sketch_words:
            raise ValueError("prepared embedding does not match the config dimensions")


def check_join_params(threshold: float, sig_len: int, sketch_words: int, delta: float):
    """Validate the config fields every approximate join shares."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if sig_len < 1:
        raise ValueError("sig_len must be >= 1")
    if sketch_words < 1:
        raise ValueError("sketch_words must be >= 1")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")


def preprocess(data: Dataset, sig_len: int = DEFAULT_SIG_LEN,
               sketch_words: int = DEFAULT_SKETCH_WORDS, seed: int = 0) -> Prepared:
    t0 = time.perf_counter()
    sig_fam = MinHashFamily(sig_len, derive_seed(seed, _SIG_TAG))
    sk_fam = SketchFamily(sketch_words, derive_seed(seed, _SK_TAG))
    bits = sk_fam.bits

    tables = np.concatenate([sig_fam.tables, sk_fam.minhashes.tables], axis=0)
    n = data.n
    sig = np.empty((n, sig_len), dtype=np.uint32)
    sketches = np.empty((n, sketch_words), dtype=np.uint64)

    total_fns = sig_len + bits
    universe = _universe_ranks(tables, data.d) if total_fns * data.d <= _UNIVERSE_CELL_CAP else None

    for i in range(n):
        rec = data.record(i)
        idx = rec.astype(np.intp)
        if universe is not None:
            ranks = universe[:, idx]
        else:
            ranks = _record_ranks(tables, idx)
        values = rec[np.argmin(ranks, axis=1)]
        sig[i] = values[:sig_len]
        sketches[i] = pack_bits(sk_fam.bit_values(values[sig_len:]))

    return Prepared(data, sig, sketches, sig_len, sketch_words, seed,
                    time.perf_counter() - t0)


def _universe_ranks(tables: np.ndarray, d: int) -> np.ndarray:
    """Hash ranks of every token in [0, d) under every stacked function."""
    return _record_ranks(tables, np.arange(d, dtype=np.intp))


def _record_ranks(tables: np.ndarray, idx: np.ndarray) -> np.ndarray:
    h = tables[:, 0, :][:, idx & 0xFF]
    h ^= tables[:, 1, :][:, (idx >> 8) & 0xFF]
    h ^= tables[:, 2, :][:, (idx >> 16) & 0xFF]
    h ^= tables[:, 3, :][:, (idx >> 24) & 0xFF]
    return h


def families(prep: Prepared):
    """The signature and sketch families a Prepared was built with."""
    sig_fam = MinHashFamily(prep.sig_len, derive_seed(prep.seed, _SIG_TAG))
    sk_fam = SketchFamily(prep.sketch_words, derive_seed(prep.seed, _SK_TAG))
    return sig_fam, sk_fam
