"""User-facing API of the local (really-executing) mini-MapReduce runtime.

This is the Hadoop-programming-model analogue used to demonstrate *actual*
shared scanning at the byte level: mappers and reducers are real Python
callables executed over real files on disk.  The interface mirrors
Hadoop's: a job supplies ``map(key, value)`` and ``reduce(key, values)``,
optionally a combiner, and the framework handles splits, shuffle and sort.
"""

from __future__ import annotations

import abc
import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Protocol,
    runtime_checkable,
)

from ..common.errors import ExecutionError
from . import tokens
from .counters import Counters
from .records import RecordReader, TextLineReader

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.tracer import Tracer
    from .storage import ReadStats

#: A key/value record flowing through the pipeline.
Record = tuple[Hashable, Any]


@runtime_checkable
class BlockStoreProtocol(Protocol):
    """What the runtime needs from *any* block store.

    Both the single-directory :class:`~repro.localrt.storage.BlockStore`
    and the replicated :class:`~repro.localrt.sharded.ShardedBlockStore`
    satisfy this protocol; runners, the map wave and the scheduler
    service are typed against it, so execution code never branches on
    the concrete store class.  The contract splits in four:

    * **geometry** — ``num_blocks`` / ``total_bytes`` / per-block sizes,
      offsets and replica locations, all fixed once the store is open;
    * **reads** — ``read_block_bytes`` (one disk read; what a map wave
      reads unless the derived-view table answers the visit) and
      ``visit_block`` (the visit the table answered: no bytes loaded),
      each charging one *logical* read, by the store that routed it;
    * **accounting** — ``stats_snapshot`` / ``logical_blocks_read`` over
      one cumulative :class:`~repro.localrt.storage.ReadStats`;
    * **attachments** — ``attach_tracer`` for stores with placement
      events to emit, and ``derived``, the handle's
      :class:`~repro.localrt.tokens.DerivedViews` table (what was
      derived from a block's bytes, kept between laps of a scan).
    """

    @property
    def num_blocks(self) -> int: ...

    @property
    def total_bytes(self) -> int: ...

    @property
    def derived(self) -> "tokens.DerivedViews": ...

    def block_size_bytes(self, index: int) -> int: ...

    def block_offset(self, index: int) -> int: ...

    def block_locations(self, index: int) -> tuple[str, ...]: ...

    def read_block_bytes(self, index: int) -> bytes: ...

    def visit_block(self, index: int) -> None: ...

    def attach_tracer(self, tracer: "Tracer | None") -> None: ...

    def stats_snapshot(self) -> "ReadStats": ...

    def logical_blocks_read(self) -> int: ...


class BlockData:
    """One visit of a block: its bytes plus lazily memoized views.

    The map wave makes one :class:`BlockData` per block visit and hands
    the *same* object to every batched mapper riding it, so expensive
    derivations — UTF-8 decode, line split, whitespace tokenization —
    happen at most once per visit regardless of how many jobs share the
    scan.  Memoization is write-once per attribute and the derived
    values are observably immutable (see :meth:`memo`), so sharing
    across jobs is safe.

    The wave's handle (:meth:`from_store`) is bound (:meth:`bind`) to
    its store handle's :class:`~repro.localrt.tokens.DerivedViews`
    table, where the two *compact* views — :meth:`encoded` and
    :meth:`memo` — are looked up before they are computed and published
    after: once per block per store handle, not once per visit.  Its
    bytes are loaded (:meth:`raw`) only when a view is computed, so a
    visit whose riders find all their views kept reads nothing.  The
    large views (:meth:`text`, :meth:`lines`, :meth:`token_counts`) are
    never kept beyond the visit.  ``BlockData(raw)`` wraps bytes already
    in hand; unbound, it derives everything itself.
    """

    _text: "str | None" = None
    _lines: "list[bytes] | None" = None
    _line_count: "int | None" = None
    _token_counts: "Counter[str] | None" = None
    _encoded: "tokens.EncodedBlock | None" = None
    _derived: "dict[Hashable, Any] | None" = None
    _views: "tokens.DerivedViews | None" = None
    _block: Hashable = None
    _store: "BlockStoreProtocol | None" = None

    def __init__(self, raw: bytes) -> None:
        self._raw: "bytes | None" = raw

    @classmethod
    def from_store(cls, store: BlockStoreProtocol,
                   index: int) -> "BlockData":
        """Block ``index`` of ``store``, bound to its table; the bytes are
        read (``store.read_block_bytes``) the first time they are needed."""
        data = cls.__new__(cls)
        data._raw, data._store = None, store
        data._views, data._block = store.derived, index
        return data

    def bind(self, views: "tokens.DerivedViews",
             block: Hashable) -> "BlockData":
        """Share this block's compact views through ``views``, where it
        is known as ``block`` (its index in the store the table belongs
        to).  Returns ``self``."""
        self._views = views
        self._block = block
        return self

    @property
    def fetched(self) -> bool:
        """Whether the block's bytes are in hand."""
        return self._raw is not None

    def raw(self) -> bytes:
        """The block's bytes, read from the store on first use."""
        if self._raw is None:
            store, index = self._store, self._block
            assert store is not None and isinstance(index, int)
            self._raw = store.read_block_bytes(index)
        return self._raw

    def __len__(self) -> int:
        """The block's length in bytes (no read: the store knows it)."""
        if self._raw is None:
            store, index = self._store, self._block
            assert store is not None and isinstance(index, int)
            return store.block_size_bytes(index)
        return len(self._raw)

    def text(self) -> str:
        """The block decoded as UTF-8 (memoized; one decode per block)."""
        if self._text is None:
            self._text = self.raw().decode("utf-8")
        return self._text

    def lines(self) -> list[bytes]:
        """Newline-delimited raw records (memoized).

        Mirrors :func:`repro.localrt.records.split_records` at the byte
        level: split on ``b"\\n"``, trailing empty fragment dropped.
        UTF-8 never embeds ``0x0A`` in a multi-byte sequence, so the
        per-line byte count always matches the record boundaries the
        per-record readers see.
        """
        if self._lines is None:
            parts = self.raw().split(b"\n")
            if parts and parts[-1] == b"":
                parts.pop()
            self._lines = parts
        return self._lines

    def line_count(self) -> int:
        """Number of records in the block (== per-record reader count).

        Counted from the newline bytes directly (memoized) — no line
        objects are allocated unless :meth:`lines` is also used — or
        taken from the :meth:`encoded` view when that was fetched first.
        """
        if self._line_count is None:
            raw = self.raw()
            count = raw.count(b"\n")
            if raw and not raw.endswith(b"\n"):
                count += 1
            self._line_count = count
        return self._line_count

    def token_counts(self) -> "Counter[str]":
        """Whitespace-token occurrence counts, keys in first-seen order.

        One ``str.split()`` over the decoded block — newlines are
        whitespace, so this is the same token sequence (and therefore
        the same ``Counter`` content and first-occurrence key order) as
        splitting every line separately, which is what the per-record
        wordcount mapper does.
        """
        if self._token_counts is None:
            self._token_counts = Counter(self.text().split())
        return self._token_counts

    def encoded(self) -> "tokens.EncodedBlock":
        """:meth:`token_counts` dictionary-encoded (memoized).

        Built against the bound table's token dictionary
        (:mod:`repro.localrt.tokens`; an unbound block's is
        :data:`~repro.localrt.tokens.UNBOUND`'s) and shared by every
        rider: each one's map is then a gather at the block's ids
        instead of a loop over its words.  A bound block takes the view
        its table kept on an earlier lap — no load, no decode, no split,
        no ``Counter`` — and otherwise builds the view, which the table
        keeps if it can (see
        :meth:`~repro.localrt.tokens.DerivedViews.encode`).  The view
        carries the block's record count, so after a table hit
        :meth:`line_count` is answered without reading a byte of the
        block.
        """
        if self._encoded is None:
            views = self._views
            if views is None:
                encoded = tokens.UNBOUND.encode(self.token_counts(),
                                                self.line_count())
            else:
                encoded = views.lookup(self._block, tokens.ENCODED_VIEW)
                if encoded is tokens.MISSING:
                    encoded = views.encode(self.token_counts(),
                                           self.line_count(), self._block,
                                           len(self))
            self._encoded = encoded
            self._line_count = encoded.lines
        return self._encoded

    def memo(self, key: Hashable, compute: "Callable[[], Any]") -> Any:
        """Kernel-defined derived view, computed once per block.

        Lets batch kernels share work that depends on their own
        configuration (e.g. the delimiter-position structure of a
        delimited block, keyed by delimiter + field count): the first
        kernel to meet the block computes, the rest reuse — in this
        wave and, on a bound block, on every later lap for as long as
        the table has room.  ``compute`` must be a pure function of the
        block bytes and the key, and the value must be *observably
        immutable* — the same object is handed to every job, on any
        thread.  Either it is never mutated, or it is a table of
        write-once slots, each filled with a value that is itself a
        pure function of the bytes and the key
        (:class:`~repro.localrt.tokens.RowTable`): readers can then
        tell an empty slot from a full one, but never two different
        answers.  Because it outlives the wave it must also be compact
        (O(the block's bytes), whatever fills it) and own what it
        holds: no view into the block's bytes or into a larger
        intermediate.
        """
        cache = self._derived
        if cache is None:
            cache = {}
            self._derived = cache
        if key not in cache:
            cache[key] = self._through_table(key, compute)
        return cache[key]

    def _through_table(self, view: Hashable,
                       compute: "Callable[[], Any]") -> Any:
        """``compute()``, unless the bound table kept this block's
        ``view``; what was computed is offered to the table.  Unbound:
        just ``compute()``."""
        views = self._views
        if views is None:
            return compute()
        value = views.lookup(self._block, view)
        if value is tokens.MISSING:
            value = compute()
            views.publish(self._block, view, value, len(self))
        return value


class Mapper(abc.ABC):
    """Transforms one input record into zero or more intermediate records."""

    @abc.abstractmethod
    def map(self, key: Hashable, value: Any) -> Iterable[Record]:
        """Process one record; yield intermediate ``(key, value)`` pairs."""


class BlockMapper(Mapper):
    """A mapper that can additionally consume one whole block at a time.

    The batched protocol moves the unit of work from the record to the
    block so CPU cost scales with bytes scanned instead of
    records × jobs.  The engine calls :meth:`map_block` when
    :meth:`supports_reader` accepts the wave's record reader, and raises
    :class:`~repro.common.errors.ExecutionError` otherwise.  The
    inherited per-record :meth:`~Mapper.map` must stay *observably
    identical* to :meth:`map_block` (it is the reference): the same
    record count the reader would report, an output list whose
    post-combiner content is identical, and the same counter totals.

    ``map_block`` must be pure with respect to the mapper instance: the
    engine shares one instance across concurrently running block tasks
    (unlike the per-record path, which copies counter-carrying mappers
    per task), so per-block counters are *returned*, never accumulated
    on ``self``.
    """

    #: Set True when ``map_block``'s output is already a fixed point of
    #: the job's combiner — unique keys, one value per key, keys in the
    #: first-occurrence order ``_combine`` would emit, and each value
    #: bit-identical to ``combiner.reduce(key, [value])``.  The engine
    #: then skips the (redundant) map-side combine pass for this kernel.
    combined_output: bool = False

    def supports_reader(self, reader: RecordReader) -> bool:
        """True when ``map_block`` reproduces ``reader``'s record model.

        The default accepts exactly :class:`TextLineReader` (not
        subclasses, whose overridden parsing the kernel cannot see).
        """
        return type(reader) is TextLineReader

    @abc.abstractmethod
    def map_block(self, data: "bytes | BlockData", base_offset: int,
                  ) -> tuple[int, list[Record], Counters | None]:
        """Process one whole block of raw bytes.

        Returns ``(record_count, outputs, counters)``: how many input
        records the block contained (exactly what the per-record reader
        would have yielded), the pre-combiner output records, and the
        task's user counters (``None`` when the mapper keeps none).
        ``data`` may be a :class:`BlockData` (what the map wave passes),
        in which case derived views (decode/tokenize) are shared with
        the wave's other jobs, and the bytes are read through
        :meth:`BlockData.raw` only when a view the kernel needs is not
        kept.
        """


class Reducer(abc.ABC):
    """Merges all intermediate values sharing a key."""

    @abc.abstractmethod
    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[Record]:
        """Process one key group; yield output ``(key, value)`` pairs."""


class IdentityReducer(Reducer):
    """Passes every (key, value) straight through (map-only-style jobs)."""

    def reduce(self, key: Hashable, values: list[Any]) -> Iterator[Record]:
        for value in values:
            yield (key, value)


class SumReducer(Reducer):
    """Classic wordcount reducer: sums numeric values per key."""

    def reduce(self, key: Hashable, values: list[Any]) -> Iterator[Record]:
        yield (key, sum(values))


#: Most ``str`` keys whose digest stays memoized (least recently used
#: dropped first).
DIGEST_TABLE_CAP = 1 << 16


#: :func:`~repro.localrt.tokens.str_digest`, memoized: the reduce
#: partitions each job's distinct keys, and a scan's keys repeat in
#: every job, so the per-character loop runs once per distinct key per
#: process instead of once per key per job.
_str_digest = functools.lru_cache(maxsize=DIGEST_TABLE_CAP)(tokens.str_digest)


def default_partitioner(key: Hashable, num_partitions: int) -> int:
    """Hash partitioner (Hadoop's default), stable across processes."""
    # hash() is salted for str in CPython; use a deterministic fallback.
    if isinstance(key, str):
        return _str_digest(key) % num_partitions
    return hash(key) % num_partitions


@dataclass
class LocalJob:
    """One runnable MapReduce job for the local runtime.

    Attributes
    ----------
    job_id:
        Unique identifier.
    mapper / reducer:
        The user's processing logic.
    combiner:
        Optional map-side pre-aggregation (a reducer run per map task).
    num_partitions:
        Reduce parallelism (number of key partitions).
    """

    job_id: str
    mapper: Mapper
    reducer: Reducer
    combiner: Reducer | None = None
    num_partitions: int = 4

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ExecutionError("job_id must be non-empty")
        if self.num_partitions <= 0:
            raise ExecutionError(f"{self.job_id}: num_partitions must be positive")


@dataclass
class JobResult:
    """Output and bookkeeping of one completed local job."""

    job_id: str
    output: list[Record]
    map_input_records: int = 0
    map_output_records: int = 0
    reduce_output_records: int = 0
    #: Values fed into the final reduce phase (the Section V.G extension
    #: compares this between collect-at-end and progressive aggregation).
    reduce_input_values: int = 0
    #: For shared-scan runs: iteration at which the job's scan completed.
    completed_iteration: int | None = None
    #: Blocks the runner had read (cumulatively) when this job completed —
    #: a hardware-independent "virtual completion time" in I/O units.
    completed_blocks_read: int | None = None
    #: Aggregated job counters (framework built-ins + user counters).
    counters: Counters = field(default_factory=Counters)

    def as_dict(self) -> dict[Hashable, Any]:
        """Output as a dict (requires unique keys)."""
        out: dict[Hashable, Any] = {}
        for key, value in self.output:
            if key in out:
                raise ExecutionError(
                    f"{self.job_id}: duplicate output key {key!r}; "
                    "use .output for multi-valued results")
            out[key] = value
        return out
