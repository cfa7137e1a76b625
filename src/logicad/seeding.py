"""Stable seed derivation so every pipeline stage can be rerun independently.

The one module that makes a generator; the others draw from those they are
handed.  The stream of a name under (master seed, qualifiers) is
``np.random.default_rng(seed)``, a PCG64 generator seeded through numpy's
``SeedSequence``, for the little-endian first 8 bytes of the SHA-256 of
``"master|part|...|name"``.  A task draws one render stream per sample and
one negative per train sample, so ``derive_rngs`` makes a task's streams of
one kind in one pass: it hashes their shared qualifiers once, and runs
``SeedSequence``'s hash over all their seeds at once as uint32 vectors
(``seed_words``).  Each stream is still its own generator, in the state
``default_rng`` would give it; the tests check both against numpy.

A stream that one consumer reads and then drops (a task's scenes, each
render and each negative) is read through ``Draws``: it takes the stream's
raw PCG64 outputs in blocks and turns them into exactly the values numpy's
``Generator`` gives for the four calls those consumers make, without a
numpy call per value.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) for its default
# pool of four 32-bit words.
POOL_SIZE = 4
MASK32 = 0xFFFFFFFF
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**i`` mod 2**32 for i < n, as a (n, 1) uint32 column."""
    constants = [init]
    for _ in range(n - 1):
        constants.append(constants[-1] * mult & MASK32)
    return np.array(constants, dtype=np.uint32)[:, None]


# hashmix call i xors its word with HASH_A[i] and multiplies it by
# HASH_A[i + 1]: 4 calls fill the pool and 12 mix it.  generate_state's
# word i does the same with HASH_B.
HASH_A = _hash_constants(INIT_A, MULT_A, POOL_SIZE * POOL_SIZE + 1)
HASH_B = _hash_constants(INIT_B, MULT_B, 2 * POOL_SIZE + 1)


def _hashmix(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """One hashmix call per row of ``constants[:-1]``, in order."""
    words = (words ^ constants[:-1]) * constants[1:]
    return words ^ (words >> XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = MIX_MULT_L * x - MIX_MULT_R * y
    return result ^ (result >> XSHIFT)


def seed_words(seeds: np.ndarray) -> np.ndarray:
    """The (N, 4) uint64 state words of ``SeedSequence(s).generate_state(4,
    np.uint64)`` for each 64-bit seed ``s``: what seeds a PCG64.

    A seed enters the pool as its entropy words (low, high); one below
    2**32 has one word, and the pool pads it as a high word of 0 would.
    uint32 arithmetic wraps as numpy's does.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros_like(seeds)
    entropy = np.stack([seeds & MASK32, seeds >> 32, zero, zero])
    pool = _hashmix(entropy.astype(np.uint32), HASH_A[:POOL_SIZE + 1])
    calls = POOL_SIZE
    for src in range(POOL_SIZE):
        # pool[src] stays put while it is mixed into the other three words
        dst = [i for i in range(POOL_SIZE) if i != src]
        hashed = _hashmix(pool[src], HASH_A[calls:calls + POOL_SIZE])
        calls += POOL_SIZE - 1
        pool[dst] = _mix(pool[dst], hashed)
    state = _hashmix(np.tile(pool, (2, 1)), HASH_B).astype(np.uint64)
    # word j is uint32 words 2j (low) and 2j + 1 (high), on any byte order
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


class _GeneratedState(ISeedSequence):
    """A seed sequence whose PCG64 state words ``seed_words`` made."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words  # PCG64 asks for its 4 uint64 words


def derive_rngs(master_seed: int, *parts: str,
                names: Iterable[str]) -> Iterator[np.random.Generator]:
    """The stream of each name under ``(master_seed, *parts)``, in order and
    one at a time, seeded in one pass; a repeated name starts its stream
    again."""
    prefix = hashlib.sha256(
        "|".join([str(int(master_seed)), *parts, ""]).encode("utf-8"))
    digests = []
    for name in names:
        digest = prefix.copy()
        digest.update(name.encode("utf-8"))
        digests.append(digest.digest()[:8])
    seeds = np.frombuffer(b"".join(digests), dtype="<u8")
    for words in seed_words(seeds):
        yield np.random.Generator(np.random.PCG64(_GeneratedState(words)))


# raw outputs fetched per numpy call; at seed 0 a render reads at most 14, a
# negative 4 and a task's views up to 181
DRAW_BLOCK = 16


class Draws:
    """The values ``np.random.Generator`` gives for ``random``,
    ``integers(n)``, ``permutation(n)`` and ``choice(n, size,
    replace=False)``, read from a fresh generator's raw PCG64 outputs.

    It fetches ``DRAW_BLOCK`` outputs at a time, the first on the first
    draw, so it may read past the last value it returns: the generator must
    not be drawn from again.  Like numpy, a 32-bit draw takes the low half of
    an output and keeps the high half for the next one (PCG64's
    ``has_uint32``); a generator that is not fresh may hold such a half, so
    it must not be wrapped.  It matches numpy for ``integers(n)`` with
    1 <= n <= 2**32 and for ``choice`` from at most 10,000 items (past that
    numpy draws 64-bit values or shuffles), and checks neither range: its
    callers draw ``integers(n)`` with n <= 5 and ``choice`` of 2 or fewer
    from 8 or fewer items.  ``permutation`` and ``choice`` return lists.
    """

    __slots__ = ("_next64", "_high")

    def __init__(self, rng: np.random.Generator):
        bits = rng.bit_generator
        blocks = iter(lambda: bits.random_raw(DRAW_BLOCK).tolist(), None)
        self._next64 = itertools.chain.from_iterable(blocks).__next__
        self._high = None  # the buffered high half of the last output

    def _next32(self) -> int:
        high = self._high
        if high is None:
            raw = self._next64()
            self._high = raw >> 32
            return raw & MASK32
        self._high = None
        return high

    def random(self) -> float:
        """A float in [0, 1): the top 53 bits of one output."""
        return (self._next64() >> 11) * 2.0**-53

    def _bounded(self, top: int) -> int:
        """An int in [0, top], for ``top < 2**32``, by Lemire's method
        (numpy's ``random_bounded_uint64``); 0 takes no draw."""
        if top == 0:
            return 0
        span = top + 1
        m = self._next32() * span
        if m & MASK32 < span:
            threshold = 2**32 % span
            while m & MASK32 < threshold:
                m = self._next32() * span
        return m >> 32

    def _interval(self, top: int) -> int:
        """An int in [0, top], for ``top < 2**32``, drawn under the smallest
        all-ones mask that covers ``top`` until one fits (numpy's
        ``random_interval``)."""
        mask = (1 << top.bit_length()) - 1
        value = self._next32() & mask
        while value > top:
            value = self._next32() & mask
        return value

    @staticmethod
    def _shuffle(items: list, draw) -> None:
        """Swap each position from the last down to 1 with the one
        ``draw(position)`` names at or below it."""
        for i in range(len(items) - 1, 0, -1):
            j = draw(i)
            items[i], items[j] = items[j], items[i]

    def integers(self, n: int) -> int:
        """An int in [0, n)."""
        return self._bounded(n - 1)

    def permutation(self, n: int) -> list[int]:
        """``range(n)`` shuffled as numpy's ``shuffle`` does (masked draws)."""
        items = list(range(n))
        self._shuffle(items, self._interval)
        return items

    def choice(self, n: int, size: int, replace: bool) -> list[int]:
        """``size`` distinct ints in [0, n), in numpy's order: Floyd's
        algorithm, then a shuffle by Lemire draws."""
        if replace:
            raise ValueError("Draws.choice draws without replacement only")
        picked: dict[int, None] = {}  # in draw order
        for j in range(n - size, n):
            value = self._bounded(j)
            picked[j if value in picked else value] = None
        items = list(picked)
        self._shuffle(items, self._bounded)
        return items
