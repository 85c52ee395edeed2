"""Deterministic random-stream derivation.

Every stochastic piece of the study draws from its own sub-stream keyed by
(master seed, trial index, purpose tag), so adding or reordering metrics
never perturbs the draws of another purpose.

The stream of a key is numpy's: ``SeedSequence([seed, trial, crc32(tag)])``
seeds a PCG64 generator, whose 64-bit outputs x become the 53-bit doubles
(x >> 11) * 2**-53 in [0, 1). ``substream_uniforms`` computes the first n
doubles of many (trial, tag) streams in one vectorised pass: it runs
SeedSequence's hash mixing over all rows at once, then jumps PCG64's 128-bit
LCG (O'Neill, PCG, HMC-CS-2014-0905) straight to each of the n states. It
is every draw a study takes (anchor pools, and the coverage lattice's
shift), so a study never imports ``numpy.random``.

``substream`` returns numpy's own generator of a key. The study does not
call it: it is the reference that ``substream_uniforms`` equals bit for bit
(row i is ``substream(seed, trials[i], tags[i]).random(n)``), and the
generator that ``terrain.sample_anchors`` takes.
"""
from __future__ import annotations

import functools
import zlib

import numpy as np

_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1

# SeedSequence's hash constants and 4-word entropy pool (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL = 4

# PCG64's LCG multiplier; the state advances as s <- a * s + inc (mod 2**128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def substream(seed: int, trial: int = 0, tag: str = "") -> np.random.Generator:
    """Return an independent generator for one (trial, purpose) cell."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    key = zlib.crc32(tag.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial), key]))


def substream_uniforms(seed: int, trials, tags, n: int) -> np.ndarray:
    """The first ``n`` doubles of each trial's stream, as (len(trials), n) float64.

    ``tags`` is one tag for every row or a sequence of one tag per row. Row
    i equals ``substream(seed, trials[i], tags[i]).random(n)`` bit for bit.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    trials = np.asarray(trials, dtype=np.int64).reshape(-1)
    if trials.size and trials.min() < 0:
        raise ValueError("trial must be non-negative")
    tags = [tags] if isinstance(tags, str) else list(tags)
    crc = {tag: zlib.crc32(tag.encode("utf-8")) for tag in set(tags)}
    keys = np.broadcast_to(np.array([crc[tag] for tag in tags], dtype=np.uint32), trials.shape)
    head, low = _words(int(seed)), trials.astype(np.uint32)
    wide = trials > _M32  # such a trial is two entropy words, not one
    if wide.any():
        out = np.empty((len(trials), n))
        out[~wide] = _uniforms(head, [low[~wide], keys[~wide]], n)
        out[wide] = _uniforms(head, [low[wide], (trials[wide] >> 32).astype(np.uint32),
                                     keys[wide]], n)
        return out
    return _uniforms(head, [low, keys], n)


def _words(value: int) -> list[int]:
    """A non-negative int as SeedSequence's little-endian 32-bit entropy words."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _hash_constants(init: int, mult: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of hash steps start .. start + count - 1.

    SeedSequence's hash step k xors with init * mult**k and multiplies by
    init * mult**(k+1) (mod 2**32); both come as (count, 1) uint32 columns.
    """
    c = [init * pow(mult, k, 1 << 32) & _M32 for k in range(start, start + count + 1)]
    return np.array(c[:-1], dtype=np.uint32)[:, None], np.array(c[1:], dtype=np.uint32)[:, None]


# mix_entropy's hashmix calls: 4 filling the pool, then 3 per pool word mixed
# into the other three; calls from 16 on fold in entropy words past the pool.
_FILL = _hash_constants(_INIT_A, _MULT_A, 0, _POOL)
_MIXING = [([dst for dst in range(_POOL) if dst != src],
            _hash_constants(_INIT_A, _MULT_A, _POOL + (_POOL - 1) * src, _POOL - 1))
           for src in range(_POOL)]
# generate_state(4, uint64) hashes the pool words cyclically into eight 32-bit
# words; its uint64s are (init high, init low, seq high, seq low). Taken in
# this order, the words read init then seq, each least significant first.
_STATE_ORDER = np.array([2, 3, 0, 1, 6, 7, 4, 5])
_STATE = tuple(c[_STATE_ORDER] for c in _hash_constants(_INIT_B, _MULT_B, 0, 8))


def _hashmix(value: np.ndarray, constants: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    xor, mul = constants
    value = (value ^ xor) * mul
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    out ^= out >> _XSHIFT
    return out


def _uniforms(head: list[int], words: list[np.ndarray], n: int) -> np.ndarray:
    """Rows of ``substream_uniforms`` whose entropy words are head + words.

    ``head`` holds the seed's words, shared by all rows; ``words`` one
    uint32 array per further entropy word, one entry per row.
    """
    rows = len(words[0])
    entropy = np.zeros((max(_POOL, len(head) + len(words)), rows), dtype=np.uint32)
    entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
    entropy[len(head):len(head) + len(words)] = words
    pool = _hashmix(entropy[:_POOL], _FILL)  # a short entropy is padded with zeros
    for src, (dests, constants) in enumerate(_MIXING):
        pool[dests] = _mix(pool[dests], _hashmix(pool[src], constants))
    for extra, word in enumerate(entropy[_POOL:]):
        pool = _mix(pool, _hashmix(word, _hash_constants(
            _INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra, _POOL)))
    state = _hashmix(pool[_STATE_ORDER % _POOL], _STATE)
    limbs = np.ones((rows, 17))
    limbs[:, :16] = np.ascontiguousarray(state.T, dtype="<u4").view("<u2")  # 16-bit limbs
    # s_k = A_k init + 2 B_k seq + B_k as four 32-bit digits before carries.
    # Each digit sums 17 products below 2**48, so every partial sum is an
    # integer below 2**53 and the float64 matrix product is exact.
    digits = (limbs @ _jump_table(n)).astype(np.uint64).reshape(rows, 4, n)
    thirty_two = np.uint64(32)
    low = digits[:, 0] + (digits[:, 1] << thirty_two)
    carry = ((digits[:, 0] >> thirty_two) + digits[:, 1]) >> thirty_two
    high = digits[:, 2] + (digits[:, 3] << thirty_two) + carry
    # PCG64's XSL-RR output, then numpy's 53-bit double.
    rot = high >> np.uint64(58)
    low ^= high
    out = (low >> rot) | (low << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@functools.lru_cache(maxsize=8)
def _jump_table(n: int) -> np.ndarray:
    """The (17, 4 * n) matrix from a row's limbs to its n states' 32-bit digits.

    ``srandom(init, seq)`` sets inc = 2 seq + 1 and leaves the state at
    a init + (a + 1) inc, and each output first steps the state, so output
    k = 1..n comes from s_k = A_k init + B_k inc = A_k init + 2 B_k seq + B_k
    with A_k = a**(k+1) and B_k = sum(a**j for j < k + 2), all mod 2**128.
    Rows 0-7 take init's 16-bit limbs, rows 8-15 seq's and row 16 a
    constant 1; column (d, k) is 32-bit digit d of s_k, before carries.
    """
    table = np.zeros((17, 8, n))  # (row limb, limb m of s_k, k)
    power, total = _PCG_MULT, 1 + _PCG_MULT
    for k in range(n):
        power = power * _PCG_MULT & _M128  # A_k
        total = total + power & _M128  # B_k
        for j, factor in enumerate((power, 2 * total & _M128)):
            limbs = _limbs(factor)
            for i in range(8):  # row limb i times factor limb m - i lands in limb m
                table[8 * j + i, i:, k] = limbs[:8 - i]
        table[16, :, k] = _limbs(total)
    table = (table[:, 0::2] + 65536.0 * table[:, 1::2]).reshape(17, 4 * n)
    table.flags.writeable = False
    return table


def _limbs(value: int) -> list[int]:
    """A 128-bit int's eight 16-bit limbs, least significant first."""
    return [value >> (16 * m) & 0xFFFF for m in range(8)]
