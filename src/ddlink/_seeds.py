"""Trial substreams: the generators of numpy's ``SeedSequence`` spawn
keys, with their seed words computed for a block of trial ids at once.

``SeedSequence(master, spawn_key=(trial, component))`` is a fixed uint32
hash (``hashmix`` and ``mix`` in numpy's ``random/bit_generator.pyx``).
Where the master and the trial id are one uint32 word each, its entropy
is ``[master, 0, 0, 0, trial, component]``: the first four words fill
the pool, a function of the master alone (``SeedSequence(master).pool``,
since a pool pads short entropy with zero words), and the trial and
component words then mix into each pool word in turn, with hash
constants that depend only on their positions. So one broadcast over
(pool word, component, trial id) gives ``generate_state(4, uint64)`` of
every component for a whole block of trial ids. ``_block`` keeps the
tables of the last few (master, block) pairs a process asked for.
"""

from functools import lru_cache

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

COMPONENTS = {"channel": 0, "noise": 1, "data": 2, "impairment": 3}

# trial ids per table; it divides 2**32, so no table straddles the end of
# the one-word range
_BLOCK = 256
_WORD = 0xFFFFFFFF


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a hash constant: init * mult**i."""
    return np.array([init * pow(mult, i, 1 << 32) & _WORD
                     for i in range(count)], dtype=np.uint32)


# hashmix's constant before each of its calls: the pool takes calls 0-15,
# the trial word 16-19 and the component word 20-23; then the constant of
# each of generate_state's eight output words
_HASHMIX = _constants(0x43B0D7E5, 0x931E8875, 25)
_OUTPUT = _constants(0x8B51F9DD, 0x58F38DED, 9)


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """hashmix of ``value`` with each constant of ``consts`` but the last
    (along axis 0), and the one after it."""
    v = (value ^ consts[:-1]) * consts[1:]
    return v ^ (v >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return r ^ (r >> np.uint32(16))


@lru_cache(maxsize=4)
def _block(master: int, block: int) -> np.ndarray:
    """``generate_state(4, uint64)`` of ``SeedSequence(master,
    spawn_key=(trial, c))`` for each component c and each trial id of
    ``block``, as a read-only (component, trial, 4) table."""
    trials = np.arange(_BLOCK, dtype=np.uint32) + np.uint32(block * _BLOCK)
    pool = SeedSequence(master).pool[:, None]
    # (pool word, trial), then (pool word, component, trial)
    words = _mix(pool, _hash(trials, _HASHMIX[16:21, None]))
    comps = _hash(np.arange(len(COMPONENTS), dtype=np.uint32),
                  _HASHMIX[20:25, None])
    words = _mix(words[:, None, :], comps[:, :, None])
    # the eight uint32 output words cycle through the pool twice; each
    # little-endian pair is one uint64
    state = _hash(np.concatenate([words, words]), _OUTPUT[:, None, None])
    table = np.ascontiguousarray(state.transpose(1, 2, 0), dtype="<u4")
    table = table.view("<u8").astype(np.uint64, copy=False)
    table.setflags(write=False)
    return table


class _Words(ISeedSequence):
    """Seed words PCG64 reads as ``generate_state(4, uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def seed_stream(master_seed: int, trial: int, component: str) -> np.random.Generator:
    """Deterministic, collision-free RNG substream for one trial component.

    Its state equals that of numpy's ``default_rng(SeedSequence(
    master_seed, spawn_key=(trial, c)))``, c the component's number in
    ``COMPONENTS``, so distinct (trial, component) pairs never collide and
    trial indices beyond 2**32 stay well-defined. Where the master and the
    trial id are each below 2**32, the seed words come from a table per
    block of 256 trial ids (:func:`_block`); elsewhere from that
    ``SeedSequence``, which also rejects a negative master or trial id.
    """
    if component not in COMPONENTS:
        raise ValueError(f"unknown component {component!r}; one of "
                         f"{sorted(COMPONENTS)}")
    c = COMPONENTS[component]
    if not (isinstance(master_seed, int) and isinstance(trial, int)
            and 0 <= master_seed <= _WORD and 0 <= trial <= _WORD):
        return np.random.default_rng(
            SeedSequence(master_seed, spawn_key=(trial, c)))
    words = _block(master_seed, trial // _BLOCK)[c, trial % _BLOCK]
    return Generator(PCG64(_Words(words)))
