"""Bloom filters for LSM disk components.

An LSM lookup must consult every disk component newest-first; most
consultations miss. Production LSM trees (including the Hyracks storage
library Pregelix later shipped with) guard each immutable component with
a bloom filter so a lookup only descends components that *might* hold
the key — the difference between one B-tree descent and one per
component for the probe-heavy left-outer-join plan.
"""

import hashlib
import math
import struct

_DIGEST = struct.Struct(">QQ")


class BloomFilter:
    """A classic m-bit, k-hash bloom filter over byte-string keys.

    :param expected_entries: sizing target.
    :param false_positive_rate: target FPR at the sizing target.
    """

    def __init__(self, expected_entries, false_positive_rate=0.01):
        expected_entries = max(int(expected_entries), 1)
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        ln2 = math.log(2.0)
        bits = int(-expected_entries * math.log(false_positive_rate) / (ln2 * ln2))
        self.num_bits = max(bits, 8)
        self.num_hashes = max(int(round(self.num_bits / expected_entries * ln2)), 1)
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.count = 0

    # ------------------------------------------------------------------
    def add(self, key):
        h1, h2 = self._base_hashes(key)
        for i in range(self.num_hashes):
            self._set_bit((h1 + i * h2) % self.num_bits)
        self.count += 1

    def __contains__(self, key):
        h1, h2 = self._base_hashes(key)
        return all(
            self._get_bit((h1 + i * h2) % self.num_bits)
            for i in range(self.num_hashes)
        )

    @property
    def nbytes(self):
        return len(self._bits)

    # ------------------------------------------------------------------
    @staticmethod
    def _base_hashes(key):
        # Two 64-bit words of one blake2b digest; the second is the probe
        # stride, odd so the probe sequence covers the bit array.
        h1, h2 = _DIGEST.unpack(hashlib.blake2b(key, digest_size=16).digest())
        return h1, h2 | 1

    def _set_bit(self, index):
        self._bits[index >> 3] |= 1 << (index & 7)

    def _get_bit(self, index):
        return self._bits[index >> 3] & (1 << (index & 7))
