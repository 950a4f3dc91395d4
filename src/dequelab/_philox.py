"""The key holder through which RandomStream builds its Philox generators.

It lives apart from numerics because it derives from a numpy.random class:
RandomStream imports it when it first builds its generator, so importing
dequelab does not import numpy.random (10-15 ms).
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class PhiloxKey(ISeedSequence):
    """The key (seed, stream_id) of a Philox generator, passed as its seed.

    np.random.Philox(key=...) first builds a SeedSequence from OS entropy and
    then discards it; this holder hands Philox its two key words directly.
    Philox keeps it as seed_seq, one per generator, so it holds two ints.
    """

    __slots__ = ("seed", "stream_id")

    def __init__(self, seed: int, stream_id: int):
        self.seed = seed
        self.stream_id = stream_id

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # Philox asks for its key once, as two uint64 words
        return np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
