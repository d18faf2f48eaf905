"""The blow-up's two fixed-seed draws, in pure Python.

Pcg64(seed) is numpy's default_rng(seed) for the two calls the blow-up
makes: random() and sample(pop, size), which is
choice(pop, size, replace=False).  The seed goes through SeedSequence's
hash into 128-bit PCG64 state and increment; a 64-bit draw is the XSL-RR
output of the stepped state, a double is its top 53 bits times 2^-53, and
a bounded draw in [0, j] is Lemire's multiply-and-reject on 32-bit draws,
taken in turn from the low and high halves of one 64-bit draw.  sample is
numpy's Floyd path with its closing shuffle; numpy shuffles a tail instead
only when pop > 10,000 and size > pop // 50, which the blow-up's at most
100 samples never reach, so that case raises.  The draws match numpy's
stream from 1.17 on; NEP 19 leaves numpy free to change it, this module
does not.
"""

from __future__ import annotations

_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int, n_words: int):
    """SeedSequence(seed).generate_state(n_words, np.uint32): the seed's
    32-bit words, little end first, hashed into a pool of four, then
    hashed out again."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    entropy = []
    while True:
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_a = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(extra))
    hash_b, out = 0x8B51F9DD, []
    for i in range(n_words):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        out.append(value ^ value >> 16)
    return out


class Pcg64:
    """numpy's default_rng(seed) for random() and sample()."""

    def __init__(self, seed: int):
        w = _seed_words(seed, 8)
        # four little-endian uint64 words: state (high, low), then increment
        s0, s1, i0, i1 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = 0
        self._step()
        self._state = (self._state + (s0 << 64 | s1)) & _M128
        self._step()
        self._half = None            # the unread high half of a 64-bit draw

    def _step(self):
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def _next64(self):
        self._step()
        s = self._state
        rot = s >> 122
        x = (s >> 64 ^ s) & _M64
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self):
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def _bounded(self, j: int) -> int:
        """A draw in [0, j], j < 2^32 - 1."""
        if j == 0:
            return 0
        span = j + 1
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (_M32 - j) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return m >> 32

    def random(self) -> float:
        """Generator.random(): a double in [0, 1)."""
        return (self._next64() >> 11) * 2.0 ** -53

    def sample(self, pop: int, size: int):
        """Generator.choice(pop, size, replace=False): size distinct ints of
        range(pop), as a list in numpy's order."""
        if not 0 <= size <= pop:
            raise ValueError("sample size must lie in 0..pop")
        if pop > 10_000 and size > pop // 50:
            raise NotImplementedError("numpy shuffles a tail for this size")
        picked, seen = [], set()
        for j in range(pop - size, pop):
            v = self._bounded(j)
            v = j if v in seen else v
            seen.add(v)
            picked.append(v)
        for i in range(size - 1, 0, -1):
            k = self._bounded(i)
            picked[i], picked[k] = picked[k], picked[i]
        return picked
