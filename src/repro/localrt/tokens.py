"""Process-wide token dictionary: what a wave shares beyond the scan.

S³ shares one read of a block between the jobs riding it, and
:class:`~repro.localrt.api.BlockData` extends that to the decode and the
tokenisation.  This module extends it once more, to everything the
riders would otherwise each recompute *per distinct word*: a
:class:`TokenEncoder` maps words to dense integer ids, so a block is
encoded once per wave (:class:`EncodedBlock`) and a pattern's match
verdicts are one vector per (dictionary, pattern) indexed by id.  A
rider's map over a block is then a gather of that vector at the block's
ids — no per-word Python loop, no per-job memo — and each vocabulary
word is matched once per pattern per process, whichever job, wave or
pool task meets it first.

State is bounded.  A :class:`TokenDictionary` only grows up to
:data:`TOKEN_DICTIONARY_CAP` words; the block that would pass the cap
starts a fresh dictionary that replaces it wholesale (*roll-over*).
Blocks in flight keep a reference to the dictionary they were encoded
against, so their ids stay valid, and the old dictionary — verdict
vectors included — is garbage once the last of them is done.  Roll-over
costs one re-match per (word, pattern) as the vocabulary is met again;
ids and verdicts are internal, so outputs cannot depend on it.  A
dictionary keeps vectors for at most :data:`VERDICT_PATTERNS_CAP`
patterns and only ever drops an idle one: a pattern that finds the
table full of vectors still in use matches each block's own words
instead, uncached, so its cost per block never exceeds the block's
vocabulary however many patterns ride the scan.

Concurrency: the ``threads`` map backend encodes different blocks from
several tasks at once.  Every mutation — id assignment, roll-over,
verdict extension — happens under ``TokenEncoder._lock``.  What leaves
the lock is safe to read without it by construction: an id is never
reassigned, and words and verdict vectors are append-only, so a gather
at ids a block was handed stays valid while another task appends.  A
forked child (a ``processes`` pool worker) starts with an encoder of
its own: the parent's lock may be held by another thread at the fork.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import Any, Callable, Hashable, Mapping, Sequence

from ..analysis.lockgraph import OrderedLock
from ..analysis.racecheck import register_instance

#: Most words one dictionary holds before a fresh one replaces it.  A
#: word costs one ``dict`` slot and one list slot, plus a byte per
#: pattern that has been matched against the dictionary.
TOKEN_DICTIONARY_CAP = 1 << 17

#: Most patterns one dictionary keeps verdict vectors for.
VERDICT_PATTERNS_CAP = 256

#: Blocks encoded since a verdict vector's last use before a full table
#: may drop it for a new pattern.  A job riding a scan uses its vector on
#: every block, so one that sat this many out belongs to no rider (a few
#: blocks can be in flight at once on the ``threads`` backend).
VERDICT_IDLE_BLOCKS = 64


def _gatherer(keys: Sequence[Hashable]) -> Callable[[Any], tuple[Any, ...]]:
    """``container -> tuple(container[k] for k in keys)`` as one C-level
    call (``itemgetter`` returns a bare item for one key and refuses
    none, so the two short shapes are spelled out)."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda container: tuple(container[key] for key in keys)


class TokenDictionary:
    """One word -> dense id assignment and the verdicts indexed by it.

    A plain record: only :class:`TokenEncoder` mutates it, under its
    lock.  ``words[i]`` is the word with id ``i``; ``verdicts[pattern]``
    holds one byte per id assigned when it was last extended (1 = the
    pattern matches the word) and ``used[pattern]`` the value of
    ``blocks`` — blocks encoded against this dictionary — at its last
    use.
    """

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.words: list[str] = []
        self.blocks = 0
        self.verdicts: dict[str, bytearray] = {}
        self.used: dict[str, int] = {}


class EncodedBlock:
    """One block's token counts, dictionary-encoded; shared by its wave.

    ``items`` are the block's ``(word, count)`` pairs in first-occurrence
    order and ``ids`` the same words' ids in ``dictionary``; ``total``
    is the block's token count.  ``gather(vector)`` is
    ``tuple(vector[i] for i in ids)``, built once per block.
    """

    __slots__ = ("dictionary", "ids", "items", "total", "gather")

    def __init__(self, dictionary: TokenDictionary, ids: tuple[int, ...],
                 items: tuple[tuple[str, int], ...], total: int) -> None:
        self.dictionary = dictionary
        self.ids = ids
        self.items = items
        self.total = total
        self.gather = _gatherer(ids)


class TokenEncoder:
    """Encodes blocks against the current :class:`TokenDictionary`."""

    def __init__(self) -> None:
        self._lock = OrderedLock("TokenEncoder._lock")
        self._current = TokenDictionary()  # guarded-by: _lock
        register_instance(self, fields=("_current",),
                          guard="TokenEncoder._lock")

    def encode(self, counts: Mapping[str, int]) -> EncodedBlock:
        """The encoded view of one block's token counts.

        Words the current dictionary has not met are assigned the next
        ids.  If they would take it past :data:`TOKEN_DICTIONARY_CAP`
        the block is encoded against a fresh dictionary, which becomes
        the current one — unless the block alone holds more distinct
        words than the cap, in which case that dictionary is the
        block's own and the shared one stays as it is.
        """
        words = tuple(counts)
        lookup = _gatherer(words)
        with self._lock:
            dictionary = self._current
            try:
                ids = lookup(dictionary.ids)
            except KeyError:
                fresh: Sequence[str] = [
                    word for word in words if word not in dictionary.ids]
                if len(dictionary.words) + len(fresh) > TOKEN_DICTIONARY_CAP:
                    dictionary = TokenDictionary()
                    if len(words) <= TOKEN_DICTIONARY_CAP:
                        self._current = dictionary
                    fresh = words
                first = len(dictionary.words)
                dictionary.ids.update(
                    zip(fresh, range(first, first + len(fresh))))
                dictionary.words.extend(fresh)
                ids = lookup(dictionary.ids)
            dictionary.blocks += 1
        return EncodedBlock(dictionary, ids, tuple(counts.items()),
                            sum(counts.values()))

    def selectors(self, block: EncodedBlock, pattern: str,
                  match: Callable[[str], object]) -> Sequence[object]:
        """One truth value per item of ``block``: ``pattern`` matches it.

        ``match(word)`` (``None`` = no match) runs once per word the
        pattern's verdict vector does not cover yet — never again for
        that word while the vector lives, whichever job asks — and the
        answer is a gather of that vector at the block's ids.  A
        pattern the full table has no room for matches the block's own
        words and keeps nothing.
        """
        dictionary = block.dictionary
        with self._lock:
            vector = self._vector(dictionary, pattern)
            if vector is not None and len(vector) < len(dictionary.words):
                vector.extend(match(word) is not None
                              for word in dictionary.words[len(vector):])
        if vector is None:
            return [match(word) is not None for word, _ in block.items]
        return block.gather(vector)

    def _vector(self, dictionary: TokenDictionary, pattern: str,
                ) -> bytearray | None:
        """``pattern``'s verdict vector in ``dictionary``, marked used
        (caller holds the lock); ``None`` if it has none and every
        vector in the full table is still in use."""
        table, used = dictionary.verdicts, dictionary.used
        vector = table.get(pattern)
        if vector is None:
            if len(table) >= VERDICT_PATTERNS_CAP:
                idlest = min(used, key=used.__getitem__)
                if dictionary.blocks - used[idlest] < VERDICT_IDLE_BLOCKS:
                    return None
                del table[idlest], used[idlest]
            vector = table[pattern] = bytearray()
        used[pattern] = dictionary.blocks
        return vector

    def current_size(self) -> int:
        """Words in the current dictionary (never above the cap)."""
        with self._lock:
            return len(self._current.words)


#: The process's encoder: one per parent, one per pool worker, alive
#: between tasks so a worker matches each word once, not once per task.
ENCODER = TokenEncoder()


def _fresh_encoder_after_fork() -> None:
    """A child must not inherit ``ENCODER``: another thread of the
    parent may hold its lock, or be half-way through a mutation, at the
    moment of the fork."""
    global ENCODER
    ENCODER = TokenEncoder()


os.register_at_fork(after_in_child=_fresh_encoder_after_fork)
