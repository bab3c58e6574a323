"""Hash layer tests: stream values, table construction, and statistical
sanity of the tabulation hashes everything else is built on."""

import numpy as np

from setjoin.tabulation import (
    derive_seed,
    splitmix64,
    splitmix64_array,
    table_tensor,
)


# Reference hash functions, one key and one seed at a time or per element:
# the routes the library's batched table gathers must agree with.


def _key_bytes(keys: np.ndarray):
    keys = np.asarray(keys, dtype=np.uint32)
    return [(keys >> np.uint32(8 * j)).astype(np.intp) & 0xFF for j in range(4)]


class Tabulation64:
    """One tabulation hash function: 32-bit keys to 64-bit values."""

    __slots__ = ("seed", "tables")

    def __init__(self, seed: int):
        self.seed = seed
        self.tables = table_tensor(seed)

    def hash(self, key: int) -> int:
        if not 0 <= key <= 0xFFFFFFFF:
            raise ValueError(f"key {key} outside 32-bit range")
        t = self.tables
        h = 0
        for j in range(4):
            h ^= int(t[j, (key >> (8 * j)) & 0xFF])
        return h

    def hash_array(self, keys) -> np.ndarray:
        """Hash many keys at once; returns uint64 of the same shape."""
        b0, b1, b2, b3 = _key_bytes(keys)
        t = self.tables
        return t[0, b0] ^ t[1, b1] ^ t[2, b2] ^ t[3, b3]


class BitHash:
    """1-bit hash: low bit of an underlying 64-bit tabulation hash."""

    __slots__ = ("base",)

    def __init__(self, seed: int):
        self.base = Tabulation64(seed)

    def bit(self, key: int) -> int:
        return self.base.hash(key) & 1

    def bit_array(self, keys) -> np.ndarray:
        return (self.base.hash_array(keys) & np.uint64(1)).astype(np.uint8)


def hash_batch(seeds, keys) -> np.ndarray:
    """Tabulation-hash `keys` under per-element function seeds, without
    materializing tables.

    `seeds` and `keys` broadcast against each other; element i of the result is
    Tabulation64(seeds[i]).hash(keys[i]). Useful when the number of functions
    is large relative to the number of keys per function (Monte-Carlo tests
    over many independent functions).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    keys = np.asarray(keys, dtype=np.uint32)
    out = None
    for j in range(4):
        byte = (keys >> np.uint32(8 * j)).astype(np.uint64) & np.uint64(0xFF)
        word = splitmix64_array(seeds, np.uint64(256 * j) + byte)
        out = word if out is None else out ^ word
    return out


# First outputs of the SplitMix64 reference stream seeded with 0. Frozen from
# the published reference implementation, independent of this codebase.
_STREAM_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_stream_matches_reference_vectors():
    for i, want in enumerate(_STREAM_SEED0):
        assert splitmix64(0, i) == want


def test_stream_is_stateless_random_access():
    # counter access must agree with itself regardless of evaluation order
    values = [splitmix64(123, c) for c in (5, 0, 17, 0, 5)]
    assert values[0] == values[4]
    assert values[1] == values[3]
    assert len({values[0], values[1], values[2]}) == 3


def test_array_stream_matches_scalar():
    counters = np.arange(1000, dtype=np.uint64)
    arr = splitmix64_array(7, counters)
    assert arr.dtype == np.uint64
    for c in (0, 1, 99, 999):
        assert int(arr[c]) == splitmix64(7, c)


def test_array_stream_broadcasts():
    seeds = np.array([1, 2, 3], dtype=np.uint64)
    out = splitmix64_array(seeds[:, None], np.arange(4, dtype=np.uint64)[None, :])
    assert out.shape == (3, 4)
    assert int(out[1, 2]) == splitmix64(2, 2)


def test_derive_seed_is_stream_value():
    assert derive_seed(42, 7) == splitmix64(42, 7)


def test_table_entries_are_stream_values():
    tab = Tabulation64(99)
    assert tab.tables.shape == (4, 256)
    for j in (0, 3):
        for c in (0, 128, 255):
            assert int(tab.tables[j, c]) == splitmix64(99, j * 256 + c)


def test_table_tensor_stacks_function_tables():
    seeds = np.array([5, 6], dtype=np.uint64)
    stacked = table_tensor(seeds)
    assert stacked.shape == (2, 4, 256)
    assert np.array_equal(stacked[0], Tabulation64(5).tables)
    assert np.array_equal(stacked[1], Tabulation64(6).tables)


def test_hash_is_xor_of_byte_entries():
    tab = Tabulation64(1)
    key = 0xA1B2C3D4
    want = (int(tab.tables[0, 0xD4]) ^ int(tab.tables[1, 0xC3])
            ^ int(tab.tables[2, 0xB2]) ^ int(tab.tables[3, 0xA1]))
    assert tab.hash(key) == want


def test_single_byte_flip_xors_two_entries():
    # Changing byte j from a to b changes the hash by exactly T[j][a]^T[j][b],
    # which pins the per-byte table structure.
    tab = Tabulation64(17)
    key = 0x00000012
    flipped = 0x00000034
    delta = tab.hash(key) ^ tab.hash(flipped)
    assert delta == int(tab.tables[0, 0x12]) ^ int(tab.tables[0, 0x34])


def test_hash_array_matches_scalar_hash():
    tab = Tabulation64(3)
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2 ** 32, size=500, dtype=np.uint32)
    arr = tab.hash_array(keys)
    for i in (0, 10, 499):
        assert int(arr[i]) == tab.hash(int(keys[i]))


def test_hash_rejects_out_of_range_keys():
    tab = Tabulation64(3)
    try:
        tab.hash(2 ** 32)
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_same_seed_same_function():
    a, b = Tabulation64(11), Tabulation64(11)
    assert np.array_equal(a.tables, b.tables)
    keys = np.arange(100, dtype=np.uint32)
    assert np.array_equal(a.hash_array(keys), b.hash_array(keys))


def test_no_collisions_on_distinct_keys():
    # 64-bit outputs on 4M distinct keys: a single collision would be a
    # ~4e-7 probability event, so any collision means a real defect.
    tab = Tabulation64(23)
    keys = np.arange(4_000_000, dtype=np.uint32)
    h = tab.hash_array(keys)
    assert np.unique(h).size == keys.size


def test_low_bit_is_balanced():
    # Sequential keys reuse table entries, so the empirical mean concentrates
    # at table granularity (the 16 live entries of byte 2 dominate), not at
    # the 1/sqrt(n) rate of independent coins. 0.02 still catches any real
    # structural bias.
    bh = BitHash(29)
    keys = np.arange(2 ** 20, dtype=np.uint32)
    bits = bh.bit_array(keys)
    assert bits.dtype == np.uint8
    mean = bits.mean()
    assert abs(mean - 0.5) < 0.02
    assert bh.bit(12345) == int(bh.bit_array(np.array([12345], dtype=np.uint32))[0])


def test_output_bits_are_balanced_everywhere():
    tab = Tabulation64(31)
    keys = np.arange(2 ** 18, dtype=np.uint32)
    h = tab.hash_array(keys)
    for shift in (0, 13, 31, 63):
        mean = ((h >> np.uint64(shift)) & np.uint64(1)).mean()
        assert abs(mean - 0.5) < 0.02, f"bit {shift} biased: {mean}"


def test_hash_batch_matches_table_functions():
    rng = np.random.default_rng(4)
    seeds = rng.integers(0, 2 ** 63, size=50, dtype=np.uint64)
    keys = rng.integers(0, 2 ** 32, size=50, dtype=np.uint32)
    out = hash_batch(seeds, keys)
    for i in range(50):
        assert int(out[i]) == Tabulation64(int(seeds[i])).hash(int(keys[i]))


def test_hash_batch_broadcasts_seeds_against_keys():
    seeds = np.array([1, 2], dtype=np.uint64)
    keys = np.array([10, 20, 30], dtype=np.uint32)
    out = hash_batch(seeds[:, None], keys[None, :])
    assert out.shape == (2, 3)
    assert int(out[1, 0]) == Tabulation64(2).hash(10)
