"""What jobs share beyond the scan: the token dictionary and the table
of derived views.

S³ shares one read of a block between the jobs riding it, and
:class:`~repro.localrt.api.BlockData` extends that to the decode and the
tokenisation.  This module extends it twice more, both times per store
handle: a handle's :class:`DerivedViews` table (``store.derived``, in
memory, gone with the handle) owns everything below, and nothing
process-wide does.

*Across jobs*, to everything the riders would otherwise each recompute
*per distinct word*: the table's :class:`TokenDictionary` maps words to
dense integer ids, so a block's token counts become an
:class:`EncodedBlock` (two int arrays, ids and counts) and a pattern's
match verdicts are one boolean array per (dictionary, pattern) indexed
by id, so each vocabulary word is matched once per pattern per handle,
whichever job or wave meets it first.  A filter commutes with a per-word
sum, so a summing wordcount rider does not filter block by block at
all: a map wave sums its blocks' counts once (a :class:`WaveSums`, with
how many blocks hold each word) for every rider that rode those blocks,
each rider adds that to its own raw totals once per wave, and its
pattern is applied once, at reduce — a gather of the verdict array at
the ids its totals reach (see
:class:`~repro.localrt.jobs.PatternWordCountBlock`).  Its shuffle stays
in id space through the job's reduce, which orders the ids by two
per-word codes the dictionary keeps — the partition digest and the
``repr`` rank — and decodes each emitted key once (see
:class:`~repro.localrt.engine.JobRunState`).  A direct ``map_block``
call gathers the verdicts at the block's ids instead and emits plain
records.  A block in hand rather than read from a store (an unbound
``BlockData``) encodes against :data:`UNBOUND`, a table no handle
reads.

*Across time*, to jobs that never overlap: the table keeps each block's
compact derived views (its :class:`EncodedBlock`, a kernel's ``memo``
value) from one lap of the circular scan to the next, so a block is
tokenised and encoded once per store handle, not once per wave.  A
visit loads the block's bytes only on a miss — a view one of its riders
uses that the table lacks, or a per-record mapper — whatever the
kernels; a visit the table answered whole is booked as a logical read
it served (``visit_block``).

State is bounded.  A :class:`TokenDictionary` only grows up to
:data:`TOKEN_DICTIONARY_CAP` words; the block that would pass the cap
starts a fresh dictionary that replaces its table's wholesale
(*roll-over*), and in the same step the table drops every encoded view
it kept against the old one, so the old dictionary — verdict vectors
included — is garbage once the blocks in flight, which keep a reference
to the dictionary they were encoded against and so keep valid ids, are
done.  A roll-over touches its own handle only.  It costs one re-match
per (word, pattern) as the vocabulary is met again; ids and verdicts
are internal, so outputs cannot depend on it.  A dictionary keeps
vectors for at most :data:`VERDICT_PATTERNS_CAP` patterns and only ever
drops an idle one: a pattern that finds the table full of vectors still
in use matches each block's own words instead, uncached, so its cost
per block never exceeds the block's vocabulary however many patterns
ride the scan.

A :class:`DerivedViews` table is bounded by
:data:`DERIVED_VIEWS_CAP_BYTES` and *stops admitting* at the bound
instead of evicting: the scan is circular, so a least-recently-used
table one block too small for the file would evict every view just
before its next use and hit never, while one that keeps what it first
admitted hits on cap ÷ file size of its lookups.  Blocks are immutable
once a store is created, so nothing but a roll-over ever drops a view.
One sizing rule: every view is O(its block's bytes) and is charged its
block's raw length.  Never kept: a block's decoded text, its
``Counter`` or its line list — each as large as the block or larger —
nor all of a block's parsed rows, which weigh ten times their text: a
:class:`RowTable` (the delimited kernels' shared parse, one write-once
slot per record) keeps at most a fixed share of its block's row text
(one part in :data:`ROW_TABLE_TEXT_DIVISOR`), and a row past it is
parsed for the rider that asked, every time.

Concurrency: a wave maps its blocks one by one, but two runners sharing
a store handle encode, look up and fill views at once.  A handle's
derived state has one lock, ``DerivedViews._lock``: every table
operation and every mutation of a dictionary the table made — id
assignment, roll-over, verdict extension, the idle clock, the words'
reduce codes — happens under it.  Besides it, each row table has its own
``RowTable._lock``, a leaf taken for writes to that table only, and
neither lock is ever taken while the other is held.  What leaves the
lock is safe to read without it by construction: an id is never
reassigned and words are append-only; a verdict array, like a
dictionary's ``digests`` and ``rank``, is never written once published
(it is published read-only, like every array a shared view holds) —
extending it builds a longer array under the lock and replaces it (an
array cannot grow in place, nor can a ``bytearray`` while a numpy view
of it is alive) — so a gather at ids a block was handed reads an array
no one writes while another runner extends; and a row-table slot goes
from ``None`` to a finished record once, after its row's key codes are
written (a rewrite of them writes the values already there); racing
runners replace an :class:`EncodedBlock`'s memo slot with equal sums.
"""

from __future__ import annotations

from operator import is_, itemgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..analysis.lockgraph import ordered_lock
from ..analysis.racecheck import register_instance

#: Most words one dictionary holds before a fresh one replaces it.  A
#: word costs one ``dict`` slot and one list slot, plus a byte per
#: pattern that has been matched against the dictionary, sixteen per
#: summing job whose map waves met it while the sums wait for the job's
#: pattern (eight once it applies), and sixteen for its reduce codes
#: once a summing job has reduced against it.
TOKEN_DICTIONARY_CAP = 1 << 17

#: Most patterns one dictionary keeps verdict vectors for.
VERDICT_PATTERNS_CAP = 256

#: Blocks mapped since a verdict vector's last use before a full table
#: may drop it for a new pattern.  A wave marks the vector of every
#: pattern riding it used (:meth:`TokenDictionary.keep_verdicts`), so
#: one that sat this many blocks out belongs to no rider (a wave is a few
#: blocks, and a few more can be in flight when runners share the
#: store handle).
VERDICT_IDLE_BLOCKS = 64

#: A :class:`WaveSums` is dense — indexed by id up to the highest id its
#: blocks hold — when its blocks hold at least one id per this many
#: slots of that span, and otherwise lists its distinct ids.  A rider
#: (:class:`~repro.localrt.jobs.WaveWordSums`) adds a dense one with two
#: slice adds, a sparse one with two scatters
#: at its ids; on one core of a 2-CPU x86 host a scatter costs about
#: eight slot adds per id (numpy 2.4, int64: at 4 435 slots the two
#: break even at one id in eight to sixteen, at 2**17 slots at one in
#: eight).  Either way a rider's add costs O(its wave's ids), never
#: O(the dictionary).
WAVE_DENSE_SHARE = 8

#: Most block bytes one :class:`DerivedViews` table answers for.  Every
#: view is O(its block's bytes) — an encoded natural-text block is a few
#: per cent of them — so each admitted view is charged its block's raw
#: length and the sum is capped.
DERIVED_VIEWS_CAP_BYTES = 1 << 26

#: A :class:`RowTable` keeps parsed at most one part in this many of its
#: block's bytes.  A parsed lineitem row — sixteen ``str``, the tuple
#: holding them, the key pair — measures 1 228 bytes (``sys.getsizeof``,
#: summed) for 124 bytes of text, ×9.9, so a full table weighs about
#: 1.25 × its block plus 24 bytes per record (a pointer and two key
#: codes), and the sizing rule
#: above still describes it.  Measured, not configured: a selection up
#: to 12 % wide shares every row it emits, a wider one parses the rest
#: for itself.
ROW_TABLE_TEXT_DIVISOR = 8

#: What :meth:`DerivedViews.lookup` answers for a view it does not hold
#: (``None`` is a value: a kernel memoises its rejection of a block).
MISSING: Any = object()

#: The view key of a block's :class:`EncodedBlock` (kernel ``memo`` keys
#: are the kernels' own; none can equal this object).
ENCODED_VIEW: Hashable = object()


def _gatherer(keys: Sequence[Hashable]) -> Callable[[Any], tuple[Any, ...]]:
    """``container -> tuple(container[k] for k in keys)`` as one C-level
    call (``itemgetter`` returns a bare item for one key and refuses
    none, so the two short shapes are spelled out)."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda container: tuple(container[key] for key in keys)


def str_digest(key: str) -> int:
    """Java's ``String.hashCode`` folded to 31 bits: the partition digest
    of a ``str`` key (:func:`~repro.localrt.api.default_partitioner`
    memoizes it; a :class:`TokenDictionary` keeps it per word)."""
    digest = 0
    for ch in key:
        digest = (digest * 31 + ord(ch)) & 0x7FFFFFFF
    return digest


def _verdicts(words: Sequence[str],
              match: Callable[[str], object]) -> np.ndarray:
    """``match(word) is not None`` for each of ``words``, as a boolean
    array."""
    return np.fromiter((match(word) is not None for word in words), bool,
                       len(words))


class TokenDictionary:
    """One word -> dense id assignment, the verdicts indexed by it and
    the words' reduce codes.

    Made and grown by one :class:`DerivedViews` table
    (:meth:`DerivedViews.encode` assigns the ids), whose lock it is
    handed: that lock guards every mutation, here and there.
    ``words[i]`` is the word with id ``i``; ``verdicts[pattern]`` is a
    boolean array with one entry per id assigned when it was last
    extended (``True`` = the pattern matches the word) and
    ``used[pattern]`` the value of ``blocks`` — the idle clock: blocks
    mapped against this dictionary, freshly encoded or served from the
    table — at its last use.  ``digests`` and ``rank`` are the words'
    reduce codes (:meth:`codes`).
    """

    def __init__(self, lock: Any) -> None:
        self._lock = lock
        self.ids: dict[str, int] = {}
        self.words: list[str] = []
        self.blocks = 0
        self.verdicts: dict[str, np.ndarray] = {}
        self.used: dict[str, int] = {}
        self.digests = frozen(np.zeros(0, np.int64))
        self.rank = frozen(np.zeros(0, np.int64))
        register_instance(self, fields=("blocks", "digests", "rank"),
                          guard="DerivedViews._lock")

    def matches(self, ids: np.ndarray, pattern: str,
                match: Callable[[str], object]) -> np.ndarray:
        """One boolean per id of ``ids``: ``pattern`` matches its word.

        ``match(word)`` (``None`` = no match) runs once per word the
        pattern's verdict array does not cover yet — never again for
        that word while the array lives, whichever job asks — and the
        answer is a gather of that array at ``ids``.  A pattern the full
        table has no room for matches the words of ``ids`` only and
        keeps nothing.
        """
        with self._lock:
            vector = self._vector(pattern)
            if vector is not None and len(vector) < len(self.words):
                vector = self.verdicts[pattern] = frozen(np.concatenate(
                    (vector, _verdicts(self.words[len(vector):], match))))
        if vector is None:
            return _verdicts(list(map(self.words.__getitem__, ids.tolist())),
                             match)
        return vector[ids]

    def keep_verdicts(self, patterns: Iterable[str]) -> None:
        """Mark each pattern's verdict array used now — making an empty
        one, to be extended when the pattern is matched, where the table
        has room — under one acquisition of the lock: what a wave does
        for the patterns riding it, whose matching waits until their
        jobs' reduces."""
        with self._lock:
            for pattern in patterns:
                self._vector(pattern)

    def _vector(self, pattern: str) -> np.ndarray | None:
        """``pattern``'s verdict array, marked used (caller holds the
        lock); ``None`` if it has none and every array in the full table
        is still in use."""
        table, used = self.verdicts, self.used
        vector = table.get(pattern)
        if vector is None:
            if len(table) >= VERDICT_PATTERNS_CAP:
                idlest = min(used, key=used.__getitem__)
                if self.blocks - used[idlest] < VERDICT_IDLE_BLOCKS:
                    return None
                del table[idlest], used[idlest]
            vector = table[pattern] = frozen(np.zeros(0, bool))
        used[pattern] = self.blocks
        return vector

    def codes(self, last: int) -> tuple[np.ndarray, np.ndarray]:
        """``(digests, rank)``, covering every id up to ``last``:
        ``digests[i]`` is :func:`str_digest` of word ``i``, so
        ``digests % P`` is the partition
        :func:`~repro.localrt.api.default_partitioner` gives the word,
        and ordering ranked ids by ``rank`` orders their words by
        ``repr`` (what :func:`~repro.localrt.engine._sort_key` compares
        for a ``str``; distinct words never tie).

        While the dictionary does not grow, this is a read of the arrays
        it has.  A call whose ``last`` is not ranked yet digests the
        words added since the last call and ranks every word again.
        """
        with self._lock:
            rank = self.rank
            if last >= len(rank):
                words = self.words
                known = len(self.digests)
                self.digests = frozen(np.concatenate((
                    self.digests,
                    np.fromiter(map(str_digest, words[known:]), np.int64,
                                len(words) - known))))
                reprs = list(map(repr, words))
                rank = np.empty(len(words), np.int64)
                rank[sorted(range(len(words)), key=reprs.__getitem__)] = \
                    np.arange(len(words))
                self.rank = rank = frozen(rank)
            return self.digests, rank


class EncodedBlock:
    """One block's token counts, dictionary-encoded; shared by every job
    that maps the block while ``dictionary`` is its table's current one.

    ``ids`` are the dictionary ids of the block's distinct words in
    first-occurrence order and ``counts`` their occurrence counts, two
    int arrays of one length; ``total`` is the block's token count and
    ``lines`` its record count, both known before the view is shared,
    so a kept view answers for the bytes it was encoded from.  The view
    outlives its wave (see :class:`DerivedViews`), so it owns nothing
    per word but two machine integers: the words themselves live in
    ``dictionary``.

    ``sums`` memoises :meth:`WaveSums.of` for the groups this block
    leads, one slot per group length naming the group's other blocks: a
    re-derived block is a new object no slot names, so none goes stale.
    """

    __slots__ = ("dictionary", "ids", "counts", "total", "lines", "sums")

    def __init__(self, dictionary: TokenDictionary, ids: np.ndarray,
                 counts: np.ndarray, total: int) -> None:
        self.dictionary = dictionary
        self.ids = ids
        self.counts = counts
        self.total = total
        self.lines = 0
        self.sums: dict[int, tuple[tuple[EncodedBlock, ...],
                                   list[WaveSums]]] = {}


class WaveSums:
    """What one wave's blocks encoded against ``dictionary`` add to each
    summing wordcount rider that rode exactly those blocks: every word's
    summed count (``totals``) and the number of blocks holding it
    (``presence``), unfiltered, built once for all of those riders.

    ``ids`` lists the words (sorted, distinct) the two arrays are
    aligned with, or is ``None`` when they are dense: indexed by id, up
    to the highest id the blocks hold (see :data:`WAVE_DENSE_SHARE`).
    The arrays are read-only: :meth:`of` memoises them for later laps.
    """

    __slots__ = ("dictionary", "ids", "totals", "presence")

    def __init__(self, dictionary: TokenDictionary, ids: np.ndarray | None,
                 totals: np.ndarray, presence: np.ndarray) -> None:
        self.dictionary = dictionary
        self.ids = ids
        self.totals = totals
        self.presence = presence

    @classmethod
    def of(cls, blocks: Sequence[EncodedBlock]) -> list["WaveSums"]:
        """The sums of ``blocks``, one per dictionary they were encoded
        against (more than one only across a roll-over or an over-wide
        block): the list memoised on the first block when it has met
        the same other blocks before (see :class:`EncodedBlock`)."""
        first, rest = blocks[0], tuple(blocks[1:])
        kept = first.sums.get(len(rest))
        if kept is not None and all(map(is_, kept[0], rest)):
            return kept[1]
        by_dictionary: dict[TokenDictionary, list[EncodedBlock]] = {}
        for block in blocks:
            by_dictionary.setdefault(block.dictionary, []).append(block)
        shared = [cls._summed(dictionary, held)
                  for dictionary, held in by_dictionary.items()]
        first.sums[len(rest)] = (rest, shared)
        return shared

    @classmethod
    def _summed(cls, dictionary: TokenDictionary,
                blocks: list[EncodedBlock]) -> "WaveSums":
        ids = np.concatenate([block.ids for block in blocks])
        counts = np.concatenate([block.counts for block in blocks])
        span = int(ids.max()) + 1 if len(ids) else 0
        # ``len(ids)`` bounds the distinct ids, so a dense add costs at
        # most WAVE_DENSE_SHARE slot adds per id the blocks hold.
        if len(ids) * WAVE_DENSE_SHARE >= span:
            return cls(dictionary, None,
                       frozen(np.bincount(ids, counts, span).astype(np.int64)),
                       frozen(np.bincount(ids, minlength=span)))
        distinct, slots = np.unique(ids, return_inverse=True)
        return cls(dictionary, frozen(distinct),
                   frozen(np.bincount(slots, counts).astype(np.int64)),
                   frozen(np.bincount(slots)))

    @property
    def span(self) -> int:
        """One past the highest id the sums cover."""
        if self.ids is None:
            return len(self.totals)
        return int(self.ids[-1]) + 1 if len(self.ids) else 0


class RowPartial:
    """One selection rider's map output for one block, still in row
    space: its ``records`` and, one entry per record, their keys' codes
    — ``hashes[i]`` is ``hash(key)``, so ``hashes % P`` is
    :func:`~repro.localrt.api.default_partitioner`'s partition, and
    ``order[i]`` sorts as the key's ``repr`` does (what
    :func:`~repro.localrt.engine._sort_key` compares), equal exactly
    when the keys are.

    What the columnar selection kernel hands the shuffle instead of a
    bare record list.  ``len()``, iteration and ``==`` read as
    ``records``, so any consumer of a record list reads it as one; a job
    whose reduce is the identity keeps it whole until its reduce, which
    orders every row it absorbed with one sort over the codes
    (:meth:`~repro.localrt.engine.JobRunState.absorb`).
    """

    __slots__ = ("records", "hashes", "order")

    def __init__(self, records: list[Any], hashes: np.ndarray,
                 order: np.ndarray) -> None:
        self.records = records
        self.hashes = hashes
        self.order = order

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, RowPartial)):
            return self.records == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RowPartial({self.records!r})"


def frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: what a shared view publishes, so a
    kernel that writes into one raises instead of changing the answer
    every other rider reads."""
    array.setflags(write=False)
    return array


class DerivedViews:
    """Compact derived views of a store's blocks, keyed ``(block, view)``,
    and the token dictionary its blocks are encoded against.

    One per store handle (``store.derived``).  Each block visit's
    :class:`~repro.localrt.api.BlockData` is bound to it, and
    ``encoded()`` / ``memo()`` then :meth:`lookup` before they compute
    and keep what they computed after (:meth:`encode`, :meth:`publish`),
    so a view is derived once per block per table for as long as there
    is room — and the block's bytes are loaded only to compute one.  A
    view that could not be admitted is simply derived again on the
    block's next visit.
    """

    def __init__(self) -> None:
        self._lock = ordered_lock("DerivedViews._lock")
        self._dictionary = TokenDictionary(self._lock)  # guarded-by: _lock
        #: (block, view) -> (value, bytes charged).
        self._views: dict[tuple[Hashable, Hashable],
                          tuple[Any, int]] = {}  # guarded-by: _lock
        #: block -> views kept of it (what ``resident_blocks`` counts).
        self._per_block: dict[Hashable, int] = {}  # guarded-by: _lock
        self._charged = 0  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._admitted = 0  # guarded-by: _lock
        self._refused_at_cap = 0  # guarded-by: _lock
        self._invalidated = 0  # guarded-by: _lock
        register_instance(
            self, fields=("_dictionary", "_charged", "_hits", "_misses",
                          "_admitted", "_refused_at_cap", "_invalidated"),
            guard="DerivedViews._lock")

    def encode(self, counts: Mapping[str, int], lines: int = 0,
               block: Hashable = None, nbytes: int = 0) -> EncodedBlock:
        """The encoded view of one block's token counts (``lines`` is its
        record count), kept as the ``block``'s, charged ``nbytes``, when
        a block is named and the table has room.

        Words the table's dictionary has not met are assigned the next
        ids.  If they would take it past :data:`TOKEN_DICTIONARY_CAP`
        the block is encoded against a fresh dictionary, which becomes
        the table's — and the encodings kept against the old one are
        dropped, in the same acquisition of the lock — unless the block
        alone holds more distinct words than the cap, in which case that
        dictionary is the block's own, the table's stays as it is, and
        the view is not kept: it could never be served.
        """
        words = tuple(counts)
        lookup = _gatherer(words)
        values = frozen(np.fromiter(counts.values(), np.int64, len(words)))
        with self._lock:
            dictionary = self._dictionary
            try:
                ids = lookup(dictionary.ids)
            except KeyError:
                fresh: Sequence[str] = [
                    word for word in words if word not in dictionary.ids]
                if len(dictionary.words) + len(fresh) > TOKEN_DICTIONARY_CAP:
                    dictionary = TokenDictionary(self._lock)
                    if len(words) <= TOKEN_DICTIONARY_CAP:
                        self._dictionary = dictionary
                        self._drop_encodings()
                    fresh = words
                # Keep copies made side by side, not the block's own
                # strings: those lie among the block's freed tokens, and
                # each one kept pins that memory (a join of two parts
                # always builds a new string).
                fresh = ["".join((word, "")) for word in fresh]
                first = len(dictionary.words)
                dictionary.ids.update(
                    zip(fresh, range(first, first + len(fresh))))
                dictionary.words.extend(fresh)
                ids = lookup(dictionary.ids)
            dictionary.blocks += 1
            encoded = EncodedBlock(dictionary, frozen(np.array(ids, np.intp)),
                                   values, sum(counts.values()))
            encoded.lines = lines
            if block is not None and dictionary is self._dictionary:
                self._admit(block, ENCODED_VIEW, encoded, nbytes)
        return encoded

    def lookup(self, block: Hashable, view: Hashable) -> Any:
        """The kept ``view`` of ``block``, or :data:`MISSING`, booked as
        a hit or a miss under one acquisition of the lock.  Serving an
        encoded view ticks its dictionary's idle clock, as encoding the
        block would (a kept encoding is against the table's dictionary:
        a roll-over drops the others)."""
        with self._lock:
            held = self._views.get((block, view))
            if held is None:
                self._misses += 1
                return MISSING
            self._hits += 1
            if view is ENCODED_VIEW:
                held[0].dictionary.blocks += 1
            return held[0]

    def publish(self, block: Hashable, view: Hashable, value: Any,
                nbytes: int) -> bool:
        """Keep ``value`` as the ``view`` of ``block``, charged ``nbytes``
        (the block's raw length), if the table has room; never evicts.
        A view published twice (two tasks raced to derive it) keeps the
        first value."""
        with self._lock:
            return self._admit(block, view, value, nbytes)

    def _admit(self, block: Hashable, view: Hashable, value: Any,
               nbytes: int) -> bool:
        """:meth:`publish`, the caller holding the lock."""
        if (block, view) in self._views:
            return True
        if self._charged + nbytes > DERIVED_VIEWS_CAP_BYTES:
            self._refused_at_cap += 1
            return False
        self._views[block, view] = (value, nbytes)
        self._per_block[block] = self._per_block.get(block, 0) + 1
        self._charged += nbytes
        self._admitted += 1
        return True

    def _drop_encodings(self) -> None:
        """Drop every kept encoded view, whichever block's (caller holds
        the lock)."""
        for key in [key for key in self._views if key[1] is ENCODED_VIEW]:
            self._charged -= self._views.pop(key)[1]
            self._invalidated += 1
            self._per_block[key[0]] -= 1
            if not self._per_block[key[0]]:
                del self._per_block[key[0]]

    def stats(self) -> dict[str, int]:
        """Plain-dict snapshot of the counters (the ``derived.stats``
        trace-event payload)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "admitted": self._admitted,
                "refused_at_cap": self._refused_at_cap,
                "invalidated": self._invalidated,
                "resident_blocks": len(self._per_block),
                "charged_bytes": self._charged,
            }


class RowTable:
    """A delimited block's parsed records: one write-once slot each.

    The derived view that is *filled by its readers*: ``slots[i]`` is
    ``None`` until the first rider that emits record ``i`` parses it
    and offers it (:meth:`keep`); from then on every rider — of any
    parameters, in this wave or a later lap — takes that one immutable
    record.  What a slot holds is a pure function of the block's bytes
    and the view's key, so the table is observably immutable although
    it fills over time, and reading ``slots`` needs no lock: a slot is
    ``None`` or a finished record.  Writes and the budget sit under
    ``_lock`` (a leaf: nothing is acquired while it is held), because
    two runners sharing a store handle may fill one block's table at
    once.  The budget is row *text*: at most
    ``block_bytes // ROW_TABLE_TEXT_DIVISOR`` bytes of the block are
    kept parsed, and a record past it is not kept — its next reader
    parses it again, for itself.

    Beside each record the table keeps its key's codes (``hashes`` and
    ``order``, as in :class:`RowPartial`), so a rider gathers a kept
    row's codes as it gathers its record.  :meth:`keep` writes the codes
    of every row it is offered, kept or past the budget, before any slot
    fills; ``ordered`` turns ``False`` for good once records are offered
    without codes, and only while it is ``True`` does a filled slot
    vouch for its row's codes.
    """

    def __init__(self, records: int, block_bytes: int) -> None:
        self.slots: list[Any] = [None] * records
        self.hashes = np.zeros(records, np.int64)
        self.order = np.zeros(records, np.int64)
        self.ordered = True
        self._lock = ordered_lock("RowTable._lock")
        self._room = block_bytes // ROW_TABLE_TEXT_DIVISOR  # guarded-by: _lock
        register_instance(self, fields=("_room",), guard="RowTable._lock")

    def keep(self, rows: Sequence[int], text_bytes: Iterable[int],
             records: Iterable[Any],
             codes: "tuple[np.ndarray, np.ndarray] | None" = None) -> None:
        """Offer ``records``, each parsed from that many bytes of the
        block, for the slots ``rows``, with their keys' ``(hashes,
        order)`` codes if the caller has them: an empty slot takes its
        record while the budget lasts (a slot another rider filled
        meanwhile keeps what it has — an equal record, by construction,
        and the codes written for it again are the ones it has)."""
        slots = self.slots
        with self._lock:
            if codes is None:
                self.ordered = False
            else:
                self.hashes[rows], self.order[rows] = codes
            room = self._room
            for row, size, record in zip(rows, text_bytes, records):
                if size <= room and slots[row] is None:
                    slots[row] = record
                    room -= size
            self._room = room


#: The table a block in hand (an unbound
#: :class:`~repro.localrt.api.BlockData`) encodes against.  No store
#: handle reads it and nothing is kept in it but its dictionary, so such
#: blocks — a direct ``map_block`` call's, a benchmark's map-phase
#: pass's — share one vocabulary and its verdicts, as a handle's do.
UNBOUND = DerivedViews()
