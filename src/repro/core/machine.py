"""Bulk-synchronous shared-memory machine base (QSM / s-QSM / GSM).

Algorithms drive a machine in orchestrator style: the algorithm code plays
every processor, issuing reads, writes and local-op charges through a
:class:`Phase` context manager.  The machine enforces the model's semantics:

* **Read latency** — a value read in phase *t* is only available after the
  phase commits (returned through a :class:`ReadHandle` that stays sealed
  until then), matching "the value returned by a shared-memory read can only
  be used in a subsequent phase".
* **No concurrent read+write** — a location may be read by many processors
  or written by many processors in one phase, but not both; violations raise
  :class:`MemoryConflictError`.
* **Queue accounting** — per-cell queue lengths count the number of
  *distinct processors* accessing the cell (Section 2.1's contention), and
  feed the contention term ``kappa`` of the cost formulas.  A processor
  issuing two reads of one cell contributes 1 to that cell's queue (but
  still 2 to its own ``m_rw`` request count).
* **Bulk operations** — :meth:`Phase.read_block` and
  :meth:`Phase.write_block` are semantically identical to loops of
  :meth:`Phase.read` / :meth:`Phase.write` by *one* processor, and
  :meth:`Phase.read_each` / :meth:`Phase.write_each` to loops in which
  *many* processors issue one operation each.  Both update the counters
  with aggregate operations, so the per-operation Python overhead is paid
  once per call instead of once per cell (see
  ``benchmarks/bench_phase_engine``).
* **Write resolution** — model-specific: the QSM/s-QSM pick one arbitrary
  winner per cell; the GSM's strong queuing merges all written values into
  the cell (see subclasses).

Costs are charged per phase by the subclass's cost formula and accumulated
in ``machine.time``; the full phase history is kept as
:class:`~repro.core.phase.PhaseRecord` objects for the round auditor and the
lower-bound engines.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from itertools import compress, repeat
from operator import itemgetter, ne
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.phase import PhaseRecord
from repro.obs import metrics as _metrics
from repro.util.seeding import derive_rng

__all__ = [
    "MemoryConflictError",
    "PhaseClosedError",
    "ReadHandle",
    "BlockReadHandle",
    "EachReadHandle",
    "Phase",
    "SharedMemoryMachine",
    "Collided",
    "WriteEntry",
]


class Collided(list):
    """Pending writes of one cell with >= 2 writers: ``(proc, value)`` pairs
    in issue order.  A dedicated type so entry dispatch is an exact-type
    check that can never be confused with a user value that happens to be a
    list."""

    __slots__ = ()


# One cell's pending writes, discriminated by exact type:
#
# * ``Collided``         — two or more writes, as ``(proc, value)`` pairs in
#                          issue order;
# * ``tuple``            — exactly one write issued through the scalar path
#                          (or a block carrying tuple-like values), stored as
#                          ``(proc, value)``;
# * anything else        — exactly one write issued through the bulk path,
#                          stored as the bare value.  The writing processor
#                          is recorded once per block in
#                          ``Phase._block_origins`` and only looked up on
#                          the rare paths that need it (collision promotion,
#                          trace recording).
#
# The bare-value form is what makes ``write_block`` allocation-free per
# cell; tuple-like values automatically take the explicit ``(proc, value)``
# form, so the discrimination is never ambiguous.
WriteEntry = Union[Any, Tuple[int, Any], Collided]


class MemoryConflictError(RuntimeError):
    """A location was both read and written in the same phase."""


class PhaseClosedError(RuntimeError):
    """An operation was issued against a phase that has already committed."""


class ReadHandle:
    """Deferred result of a shared-memory read.

    The handle is *sealed* while its phase is open; accessing ``.value``
    raises then.  After the phase commits the handle resolves to the value
    the cell held at the start of the phase.
    """

    __slots__ = ("proc", "addr", "_value", "_resolved")

    def __init__(self, proc: int, addr: int) -> None:
        self.proc = proc
        self.addr = addr
        self._value: Any = None
        self._resolved = False

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._resolved = True

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def value(self) -> Any:
        if not self._resolved:
            raise PhaseClosedError(
                "read value used before its phase committed: the QSM/GSM read "
                "rule only makes values available in a subsequent phase"
            )
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = repr(self._value) if self._resolved else "<sealed>"
        return f"ReadHandle(proc={self.proc}, addr={self.addr}, value={state})"


# C-callable isinstance check: lets bulk paths scan a value tuple for
# handles via any(map(...)) without per-item bytecode.
_is_read_handle = ReadHandle.__instancecheck__


class _DeferredValues:
    """Sealed-until-commit value list shared by the bulk read handles."""

    __slots__ = ("addrs", "_values", "_resolved")

    def _resolve(self, values: List[Any]) -> None:
        self._values = values
        self._resolved = True

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def values(self) -> List[Any]:
        if not self._resolved:
            raise PhaseClosedError(
                "block read values used before their phase committed: the "
                "QSM/GSM read rule only makes values available in a "
                "subsequent phase"
            )
        return list(self._values)

    def __len__(self) -> int:
        return len(self.addrs)


class BlockReadHandle(_DeferredValues):
    """Deferred result of a bulk shared-memory read (:meth:`Phase.read_block`).

    Sealed while its phase is open; after the phase commits ``.values`` is
    the list of values the cells held at the start of the phase, in the
    order the addresses were requested.
    """

    __slots__ = ("proc",)

    def __init__(self, proc: int, addrs: Tuple[int, ...]) -> None:
        self.proc = proc
        self.addrs = addrs
        self._values: Optional[List[Any]] = None
        self._resolved = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = repr(self._values) if self._resolved else "<sealed>"
        return f"BlockReadHandle(proc={self.proc}, addrs={self.addrs!r}, values={state})"


class EachReadHandle(_DeferredValues):
    """Deferred result of a many-processor read (:meth:`Phase.read_each`).

    Request ``k`` is processor ``procs[k]`` reading cell ``addrs[k]``.
    Sealed while its phase is open; after the phase commits ``.values[k]``
    is the value ``addrs[k]`` held at the start of the phase.
    """

    __slots__ = ("procs", "_tile")

    def __init__(self, procs: Sequence[int], addrs: Sequence[int], tile: int = 0) -> None:
        self.procs = procs
        self.addrs = addrs
        # The period ``t`` with ``addrs == addrs[:t] * (len(addrs) // t)``
        # (``len(addrs)`` when the addresses do not repeat).
        self._tile = tile or len(addrs)
        self._values: Optional[List[Any]] = None
        self._resolved = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = repr(self._values) if self._resolved else "<sealed>"
        return f"EachReadHandle(n={len(self.addrs)}, values={state})"


def _each_values(machine: "SharedMemoryMachine", handle: EachReadHandle) -> List[Any]:
    """What every request of a many-processor read delivers, in request order."""
    addrs, tile = handle.addrs, handle._tile
    return list(map(machine._read_cell, addrs[:tile])) * (len(addrs) // tile)


# Value types that cannot be stored in the bare-entry form: exact tuples and
# Collided would be indistinguishable from the bookkeeping forms, and handles
# need the unwrap/seal check.  (Exact types only — a namedtuple value lands
# bare and dispatches as bare, consistently.)
_NON_PLAIN_TYPES = (tuple, Collided, ReadHandle, BlockReadHandle)

# (proc, value) -> proc / value, at C speed, for bulk commit of tuple entries.
_proc_of = itemgetter(0)
_value_of = itemgetter(1)

_INT_ONLY = {int}


def _span_bounds(seq: Sequence[int]) -> Tuple[int, int]:
    """``(min, max)`` of a non-empty int sequence; O(1) for a ``range``."""
    if type(seq) is range:
        return (seq[0], seq[-1]) if seq.step > 0 else (seq[-1], seq[0])
    return min(seq), max(seq)


def _columns(name: str, *cols: Sequence[Any]) -> List[Sequence[Any]]:
    """Parallel request columns as indexable sequences of one length."""
    out = [c if type(c) in (range, list, tuple) else tuple(c) for c in cols]
    if len(set(map(len, out))) > 1:
        raise ValueError(
            f"{name} needs parallel columns of equal length, got lengths "
            f"{[len(c) for c in out]}"
        )
    return out


@contextmanager
def _gc_paused():
    """Hold off the cyclic garbage collector while a bulk path builds many
    small containers.  They are acyclic and stay reachable from the phase,
    so a collection in between frees nothing; left on, the collector runs
    full passes over the growing heap again and again.  If the collector
    was already off, it stays off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _count_each(counts: Dict[int, int], procs: Sequence[int]) -> None:
    """Add one request per entry of ``procs`` to ``counts``.

    New keys enter in first-issue order, exactly as the scalar loop's
    ``counts[p] = counts.get(p, 0) + 1`` would insert them.
    """
    if (type(procs) is range or len(set(procs)) == len(procs)) and (
        not counts or counts.keys().isdisjoint(procs)
    ):
        # Fresh, distinct processors: one request each, in one C pass.
        counts.update(zip(procs, repeat(1)))
        return
    get = counts.get
    for proc, k in Counter(procs).items():
        counts[proc] = get(proc, 0) + k


class Phase:
    """One open phase of a shared-memory machine.

    Use via ``with machine.phase() as ph:``; operations are recorded and the
    phase commits (applying writes, resolving reads, charging cost) when the
    context exits without an exception.
    """

    def __init__(self, machine: "SharedMemoryMachine") -> None:
        self._machine = machine
        self._open = True
        # Scalar ReadHandles and BlockReadHandles, in issue order.
        self._reads: List[Any] = []
        # addr -> pending writes (see WriteEntry for the three entry kinds).
        self._writes: Dict[int, WriteEntry] = {}
        # (proc, addrs) per bulk block that landed bare values; consulted by
        # _first_writer() on the rare paths that need a bare entry's writer.
        self._block_origins: List[Tuple[int, Sequence[int]]] = []
        # Entry-kind summary flags; while _write_collision is False, commit
        # and record building take C-level bulk paths, and the other two
        # pick the right bulk resolver.
        self._write_collision = False  # any Collided entry
        self._has_plain = False  # any bare-value entry (bulk path)
        self._has_pairs = False  # any (proc, value) entry (scalar path)
        # Interval hull of all written addresses this phase.  A block whose
        # addresses lie wholly outside [lo, hi] cannot revisit a cell, so
        # the bulk write path skips the per-address disjointness probe; the
        # hull also gives the commit its high-water mark without a max()
        # over all keys.
        self._write_lo: Any = float("inf")
        self._write_hi: int = -1
        # addr -> set of distinct reading processors (Section 2.1 contention)
        self._readers: Dict[int, set] = {}
        self._reads_per_proc: Dict[int, int] = {}
        self._writes_per_proc: Dict[int, int] = {}
        self._ops_per_proc: Dict[int, int] = {}

    # -- operations -------------------------------------------------------

    def read(self, proc: int, addr: int) -> ReadHandle:
        """Processor ``proc`` requests the contents of cell ``addr``.

        Returns a sealed :class:`ReadHandle`; the value is available after
        the phase commits.
        """
        self._check_open()
        self._machine._check_proc(proc)
        self._machine._check_addr(addr)
        if addr in self._writes:
            raise MemoryConflictError(
                f"cell {addr} is being written this phase; concurrent read and "
                f"write to one location in a phase is forbidden"
            )
        handle = ReadHandle(proc, addr)
        self._reads.append(handle)
        readers = self._readers.get(addr)
        if readers is None:
            self._readers[addr] = {proc}
        else:
            readers.add(proc)
        self._reads_per_proc[proc] = self._reads_per_proc.get(proc, 0) + 1
        return handle

    def read_block(self, proc: int, addrs: Sequence[int]) -> BlockReadHandle:
        """Processor ``proc`` requests the contents of all cells in ``addrs``.

        Semantically identical to ``[ph.read(proc, a) for a in addrs]`` but
        the per-processor and per-cell counters are updated with aggregate
        operations, so large blocks avoid the per-operation bookkeeping that
        dominates scalar reads.  Returns a sealed :class:`BlockReadHandle`
        whose ``.values`` resolves to the list of cell values (request
        order) after the phase commits.  Duplicate addresses are allowed
        and count once toward each cell's contention (the processor set),
        but each request counts toward ``m_rw``.
        """
        self._check_open()
        self._machine._check_proc(proc)
        addr_tuple = tuple(addrs)
        handle = BlockReadHandle(proc, addr_tuple)
        if not addr_tuple:
            handle._resolve([])
            return handle
        # Aggregate validation: one type pass, then min/max bounds checks.
        for a in addr_tuple:
            if type(a) is not int:
                raise TypeError(f"address must be an int, got {a!r}")
        if min(addr_tuple) < 0:
            raise ValueError(
                f"address must be non-negative, got {min(addr_tuple)}"
            )
        mem_size = self._machine.memory_size
        if mem_size is not None and max(addr_tuple) >= mem_size:
            raise ValueError(
                f"address {max(addr_tuple)} out of range for memory of size {mem_size}"
            )
        writes = self._writes
        if writes:
            for a in addr_tuple:
                if a in writes:
                    raise MemoryConflictError(
                        f"cell {a} is being written this phase; concurrent read "
                        f"and write to one location in a phase is forbidden"
                    )
        self._add_readers(repeat(proc), addr_tuple)
        self._reads_per_proc[proc] = (
            self._reads_per_proc.get(proc, 0) + len(addr_tuple)
        )
        self._reads.append(handle)
        return handle

    def read_each(self, procs: Sequence[int], addrs: Sequence[int]) -> EachReadHandle:
        """Processor ``procs[k]`` requests the contents of cell ``addrs[k]``.

        Semantically identical to
        ``[ph.read(p, a) for p, a in zip(procs, addrs)]`` — the same
        counters, queues, trace and errors — but returns one sealed
        :class:`EachReadHandle` whose ``.values[k]`` resolves after the
        phase commits.  The columns must have equal length.  Addresses
        that repeat one tile of distinct cells (many processors on one
        cell is a tile of one), and distinct processors reading distinct
        fresh cells, update the counters in C-level passes.
        """
        self._check_open()
        procs, addrs = _columns("read_each", procs, addrs)
        if not addrs:
            handle = EachReadHandle(procs, addrs)
            handle._resolve([])
            return handle
        bounds = self._each_bounds(procs, addrs)
        if bounds is None or self._read_conflict(addrs, *bounds):
            # Off the fast path the scalar loop raises its own error at
            # its own request, with the requests before it issued.
            for proc, addr in zip(procs, addrs):
                self.read(proc, addr)
            raise AssertionError("read_each rejected requests the scalar path accepts")
        readers = self._readers
        lo, hi = bounds
        n = len(addrs)
        if lo == hi:
            tile = 1
        elif type(addrs) is range:
            tile = n
        else:
            tile = len(set(addrs))
            if tile < n and (n % tile or addrs[:tile] * (n // tile) != addrs):
                tile = 0  # no repeating tile
        if tile == n and readers.keys().isdisjoint(addrs):
            # Distinct fresh cells: one single-reader set each.
            readers.update(zip(addrs, map(set, zip(procs))))
        elif 0 < tile < n:
            # The addresses repeat a tile of distinct cells: cell
            # addrs[i] gets readers procs[i], procs[i + tile], ... in
            # issue order, as one reader set.
            get = readers.get
            for i in range(tile):
                procs_at = get(addrs[i])
                if procs_at is None:
                    readers[addrs[i]] = set(procs[i::tile])
                else:
                    procs_at.update(procs[i::tile])
        else:
            self._add_readers(procs, addrs)
        _count_each(self._reads_per_proc, procs)
        handle = EachReadHandle(procs, addrs, tile)
        self._reads.append(handle)
        return handle

    def _add_readers(self, procs: Any, addrs: Sequence[int]) -> None:
        """Record ``procs[k]`` as a reader of ``addrs[k]``, per request."""
        readers = self._readers
        get = readers.get
        for proc, addr in zip(procs, addrs):
            procs_at = get(addr)
            if procs_at is None:
                readers[addr] = {proc}
            else:
                procs_at.add(proc)

    def write(self, proc: int, addr: int, value: Any) -> None:
        """Processor ``proc`` writes ``value`` to cell ``addr``.

        ``value`` must be a concrete value computed from state available
        before this phase.  Passing a sealed :class:`ReadHandle` from the
        current phase raises; resolved handles from earlier phases are
        unwrapped for convenience.
        """
        self._check_open()
        self._machine._check_proc(proc)
        self._machine._check_addr(addr)
        if isinstance(value, ReadHandle):
            if not value.resolved:
                raise PhaseClosedError(
                    "attempted to write a value read in the same phase; reads "
                    "only deliver in a subsequent phase"
                )
            value = value.value
        if addr in self._readers:
            raise MemoryConflictError(
                f"cell {addr} is being read this phase; concurrent read and "
                f"write to one location in a phase is forbidden"
            )
        writes = self._writes
        entry = writes.get(addr)
        if entry is None:
            writes[addr] = (proc, value)
        elif type(entry) is Collided:
            entry.append((proc, value))
        else:
            first = entry if type(entry) is tuple else (
                self._first_writer(addr), entry
            )
            writes[addr] = Collided((first, (proc, value)))
            self._write_collision = True
        self._has_pairs = True
        if addr > self._write_hi:
            self._write_hi = addr
        if addr < self._write_lo:
            self._write_lo = addr
        self._writes_per_proc[proc] = self._writes_per_proc.get(proc, 0) + 1

    def write_block(self, proc: int, items: Sequence[Tuple[int, Any]]) -> None:
        """Processor ``proc`` writes every ``(addr, value)`` pair in ``items``.

        Semantically identical to ``for a, v in items: ph.write(proc, a, v)``
        (including on error: a bad pair aborts the phase at that pair, just
        as the scalar loop would) but the per-pair bookkeeping is a single
        aggregate pass.  Values follow the scalar rule: sealed same-phase
        :class:`ReadHandle` values raise, resolved handles from earlier
        phases are unwrapped.
        """
        self._check_open()
        self._machine._check_proc(proc)
        pairs = items if type(items) is list else list(items)
        if not pairs:
            return
        # Aggregate validation at C speed; every failure re-scans on a cold
        # path for a precise per-item error.  strict=True makes mixed-arity
        # rows raise instead of silently truncating to the shortest row.
        try:
            addrs, values = zip(*pairs, strict=True)
        except (TypeError, ValueError):
            addrs = values = ()
        if len(addrs) != len(pairs):
            # Malformed rows (wrong arity); the scalar path reports them.
            for addr, value in pairs:
                self.write(proc, addr, value)
            return
        if not set(map(type, addrs)) <= {int}:
            for a in addrs:
                if type(a) is not int:
                    raise TypeError(f"address must be an int, got {a!r}")
        lo = min(addrs)
        hi = max(addrs)
        if lo < 0:
            raise ValueError(f"address must be non-negative, got {lo}")
        mem_size = self._machine.memory_size
        if mem_size is not None and hi >= mem_size:
            raise ValueError(
                f"address {hi} out of range for memory of size {mem_size}"
            )
        readers = self._readers
        if readers and not readers.keys().isdisjoint(addrs):
            for a in addrs:
                if a in readers:
                    raise MemoryConflictError(
                        f"cell {a} is being read this phase; concurrent read "
                        f"and write to one location in a phase is forbidden"
                    )
        # Values whose exact type is tuple-like or a handle cannot use the
        # bare-value entry form (see WriteEntry); everything else can.
        plain = set(map(type, values)).isdisjoint(_NON_PLAIN_TYPES)
        if not plain and any(map(_is_read_handle, values)):
            unwrapped: List[Any] = []
            for value in values:
                if isinstance(value, ReadHandle):
                    if not value.resolved:
                        raise PhaseClosedError(
                            "attempted to write a value read in the same "
                            "phase; reads only deliver in a subsequent phase"
                        )
                    value = value.value
                unwrapped.append(value)
            values = unwrapped
        writes = self._writes
        if plain and (
            not writes
            or lo > self._write_hi
            or hi < self._write_lo
            or writes.keys().isdisjoint(addrs)
        ):
            # Outside the interval hull of earlier writes (or provably
            # disjoint from them): land the whole block as bare-value
            # entries in one C-level pass — no per-cell allocation at all.
            # Duplicates *within* the block would clobber each other in the
            # bulk update, so detect them from the key-count delta and redo
            # the block through the per-item path (all its keys are new, so
            # the rollback is exact).
            before = len(writes)
            writes.update(zip(addrs, values))
            if len(writes) - before != len(addrs):
                for a in addrs:
                    writes.pop(a, None)
                self._insert_writes(repeat(proc), addrs, values)
            else:
                self._has_plain = True
                self._block_origins.append((proc, addrs))
        else:
            self._insert_writes(repeat(proc), addrs, values)
        if hi > self._write_hi:
            self._write_hi = hi
        if lo < self._write_lo:
            self._write_lo = lo
        self._writes_per_proc[proc] = (
            self._writes_per_proc.get(proc, 0) + len(addrs)
        )

    def write_cols(self, proc: int, addrs: Sequence[int], values: Sequence[Any]) -> None:
        """Processor ``proc`` writes parallel columns: ``values[i]`` into
        ``addrs[i]``.

        Column form of :meth:`write_block` — semantically identical to
        ``ph.write_block(proc, list(zip(addrs, values)))`` but without
        building the pair list, and the form the vector engine consumes
        without unzipping.  The columns must have equal length.
        """
        self._check_open()
        self._machine._check_proc(proc)
        if len(addrs) != len(values):
            raise ValueError(
                f"write_cols needs parallel columns of equal length, got "
                f"{len(addrs)} addresses and {len(values)} values"
            )
        self.write_block(proc, list(zip(addrs, values)))

    def write_each(
        self, procs: Sequence[int], addrs: Sequence[int], values: Sequence[Any]
    ) -> None:
        """Processor ``procs[k]`` writes ``values[k]`` to cell ``addrs[k]``.

        Semantically identical to
        ``for p, a, v in zip(procs, addrs, values): ph.write(p, a, v)`` —
        the same entries, ``Collided`` order (hence winner draws), counters,
        trace and errors.  The columns must have equal length.  Writes to
        distinct fresh cells land in one C-level pass, and writers already
        grouped by cell (each cell's writes contiguous) land as one entry
        per cell.
        """
        self._check_open()
        procs, addrs, values = _columns("write_each", procs, addrs, values)
        if not addrs:
            return
        bounds = self._each_bounds(procs, addrs)
        if (
            bounds is None
            or self._write_conflict(addrs, *bounds)
            or any(issubclass(t, ReadHandle) for t in set(map(type, values)))
        ):
            # The scalar loop raises its own error at its own request, or
            # unwraps the handle values.
            for proc, addr, value in zip(procs, addrs, values):
                self.write(proc, addr, value)
            return
        self._land_each(procs, addrs, values)
        lo, hi = bounds
        if hi > self._write_hi:
            self._write_hi = hi
        if lo < self._write_lo:
            self._write_lo = lo
        _count_each(self._writes_per_proc, procs)

    def _each_bounds(self, procs: Sequence[int], addrs: Sequence[int]) -> Optional[Tuple[int, int]]:
        """The addresses' ``(min, max)`` when every request passes the
        scalar processor and address checks, else ``None``."""
        if type(procs) is not range and not set(map(type, procs)) <= _INT_ONLY:
            return None
        if type(addrs) is not range and not set(map(type, addrs)) <= _INT_ONLY:
            return None
        machine = self._machine
        proc_lo, proc_hi = _span_bounds(procs)
        lo = addrs[0]
        if addrs.count(lo) == len(addrs):  # one cell: no min/max passes
            hi = lo
        else:
            lo, hi = _span_bounds(addrs)
        if proc_lo < 0 or lo < 0:
            return None
        if machine.num_processors is not None and proc_hi >= machine.num_processors:
            return None
        if machine.memory_size is not None and hi >= machine.memory_size:
            return None
        return lo, hi

    def _written_set(self) -> Any:
        """Membership view of every cell written so far this phase."""
        return self._writes.keys()

    def _read_conflict(self, addrs: Sequence[int], lo: int, hi: int) -> bool:
        """Whether any of ``addrs`` (bounds ``lo``..``hi``) is being written."""
        return (
            lo <= self._write_hi
            and hi >= self._write_lo
            and not self._written_set().isdisjoint(addrs)
        )

    def _write_conflict(self, addrs: Sequence[int], lo: int, hi: int) -> bool:
        """Whether any of ``addrs`` (bounds ``lo``..``hi``) is being read."""
        readers = self._readers
        return bool(readers) and not readers.keys().isdisjoint(addrs)

    def _land_each(self, procs: Sequence[int], addrs: Sequence[int], values: Sequence[Any]) -> None:
        """Enter validated many-processor writes into the write dict."""
        writes = self._writes
        if not writes or writes.keys().isdisjoint(addrs):
            n = len(addrs)
            cells = addrs if type(addrs) is range else dict.fromkeys(addrs)
            if len(cells) == n:
                writes.update(zip(addrs, zip(procs, values)))
                self._has_pairs = True
                return
            starts = [0, *compress(range(1, n), map(ne, addrs[1:], addrs))]
            if len(starts) == len(cells):
                # Grouped by cell: each run becomes the cell's entry, its
                # writes in issue order — a Collided list, or the scalar
                # (proc, value) form for a run of one.
                ends = starts[1:]
                ends.append(n)
                with _gc_paused():
                    for s, e in zip(starts, ends):
                        if e - s == 1:
                            writes[addrs[s]] = (procs[s], values[s])
                        else:
                            writes[addrs[s]] = Collided(zip(procs[s:e], values[s:e]))
                self._write_collision = True
                self._has_pairs = True
                return
        self._insert_writes(procs, addrs, values)

    def _insert_writes(self, procs: Any, addrs: Sequence[int], values: Sequence[Any]) -> None:
        """Per-item write insertion (the path that handles colliding cells);
        ``procs`` is the per-write processor column."""
        writes = self._writes
        writes_get = writes.get
        collision = self._write_collision
        for proc, addr, value in zip(procs, addrs, values):
            entry = writes_get(addr)
            if entry is None:
                writes[addr] = (proc, value)
            elif type(entry) is Collided:
                entry.append((proc, value))
            else:
                first = entry if type(entry) is tuple else (
                    self._first_writer(addr), entry
                )
                writes[addr] = Collided((first, (proc, value)))
                collision = True
        self._write_collision = collision
        self._has_pairs = True

    def _first_writer(self, addr: int) -> int:
        """Writer of a bare-value entry, from the per-block origin records."""
        for proc, addrs in reversed(self._block_origins):
            if addr in addrs:
                return proc
        raise AssertionError(f"no origin recorded for bare write to cell {addr}")

    def local(self, proc: int, ops: int = 1) -> None:
        """Charge ``ops`` units of local RAM computation to processor ``proc``."""
        self._check_open()
        self._machine._check_proc(proc)
        if ops < 0:
            raise ValueError(f"ops must be non-negative, got {ops}")
        self._ops_per_proc[proc] = self._ops_per_proc.get(proc, 0) + ops

    # -- commit machinery --------------------------------------------------

    def _check_open(self) -> None:
        if not self._open:
            raise PhaseClosedError("phase already committed")

    def _scalar_read_queue(self) -> Dict[int, int]:
        # Contention counts *distinct processors* per cell (Section 2.1):
        # duplicate requests by one processor count once toward kappa (they
        # still count per-request toward the processor's m_rw).  When the
        # total request count equals the number of touched cells, every
        # queue has length one and the dict builds in a single C-level pass.
        readers = self._readers
        if readers and sum(self._reads_per_proc.values()) == len(readers):
            return dict.fromkeys(readers, 1)
        return {addr: len(procs) for addr, procs in readers.items()}

    def _dict_write_queue(self) -> Dict[int, int]:
        writes = self._writes
        if not self._write_collision:
            return dict.fromkeys(writes, 1)
        return {
            addr: len(set(map(_proc_of, entry))) if type(entry) is Collided else 1
            for addr, entry in writes.items()
        }

    def _build_record(self, index: int) -> PhaseRecord:
        read_queue = self._scalar_read_queue()
        write_queue = self._dict_write_queue()
        return PhaseRecord(
            index=index,
            reads_per_proc=dict(self._reads_per_proc),
            writes_per_proc=dict(self._writes_per_proc),
            ops_per_proc=dict(self._ops_per_proc),
            read_queue=read_queue,
            write_queue=write_queue,
        )

    def _resolve_reads(self, machine: "SharedMemoryMachine") -> None:
        """Resolve every read handle against pre-phase memory (engine hook)."""
        read_cell = machine._read_cell
        for handle in self._reads:
            kind = type(handle)
            if kind is ReadHandle:
                handle._resolve(read_cell(handle.addr))
            elif kind is EachReadHandle:
                handle._resolve(_each_values(machine, handle))
            else:  # BlockReadHandle
                handle._resolve([read_cell(a) for a in handle.addrs])

    def _apply_writes(self, machine: "SharedMemoryMachine") -> None:
        """Apply this phase's writes to memory (engine hook)."""
        machine._resolve_writes(self)

    def __enter__(self) -> "Phase":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if exc_type is None:
                self._machine._commit(self)
        finally:
            # Whether the phase aborted or the commit itself raised (e.g. a
            # PRAM concurrency violation), release the machine so callers
            # can continue after asserting on the error.
            self._machine._phase_open = False
            self._open = False
        return False


class SharedMemoryMachine:
    """Base class for the QSM, s-QSM and GSM simulators.

    Parameters
    ----------
    num_processors:
        Upper bound on processor ids, or ``None`` for the paper's
        "unlimited number of processors" setting.
    memory_size:
        Upper bound on addresses, or ``None`` for unbounded memory.
    seed:
        Seed for the machine's internal generator.  The QSM/s-QSM use it to
        pick the "arbitrary" winner among concurrent writers, so a seed pins
        an entire execution.
    winner_policy:
        How "arbitrary"-winner write collisions resolve: ``None`` (the
        machine's own seeded generator — the historical behaviour), a name
        (``"seeded"``/``"first"``/``"last"``) or a
        :class:`~repro.faults.winners.WinnerPolicy` instance.  The paper's
        semantics make *any* resolution legal, so a correct algorithm's
        output must not depend on this choice;
        :mod:`repro.faults.adversary` searches for violations.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`.  Scheduled
        ``corrupt`` faults fire after the matching phase commits; every
        firing is appended to ``machine.fault_events`` (and to the phase's
        cost record when ``record_costs=True``).
    record_trace:
        When true, the machine additionally stores per-phase read/write
        address detail (see :mod:`repro.core.trace`) for the lower-bound
        engines.  Off by default because it is memory-heavy on large runs.
    record_costs:
        When true, every committed phase also appends a
        :class:`~repro.obs.records.PhaseCostRecord` (per-term charge
        values, the dominant term, contention histogram, per-processor op
        counts, wall time) to ``machine.cost_records``.  Zero-cost when
        off: the operation-issue paths are untouched and the commit pays
        a single predicate test.
    engine:
        ``"reference"`` (pure-Python, the default), ``"vector"`` (numpy
        batch engine — see :mod:`repro.core.engine_vector`), or ``None``
        to consult ``$REPRO_ENGINE``.  Both engines are bit-equal; the
        vector engine falls back to reference (with a one-time
        ``RuntimeWarning``) when numpy is unavailable.
    """

    #: Model tag used in cost records / result tables; subclasses override.
    model_label = "shared-memory"

    #: Whether a single writer's value is stored as-is ("store the value"
    #: semantics — QSM/s-QSM/PRAM).  Models whose write rule transforms
    #: values even without a collision (GSM strong queuing) set this False;
    #: the vector engine then always materializes its write log so the
    #: model's own ``_resolve_writes`` runs.
    _plain_write_semantics = True

    def __init__(
        self,
        num_processors: Optional[int] = None,
        memory_size: Optional[int] = None,
        seed: Optional[int] = 0,
        record_trace: bool = False,
        record_snapshots: bool = False,
        record_costs: bool = False,
        winner_policy: Optional[Any] = None,
        fault_plan: Optional[Any] = None,
        engine: Optional[str] = None,
    ) -> None:
        if num_processors is not None:
            if type(num_processors) is not int:
                raise ValueError(
                    f"num_processors must be an int >= 1 or None, got {num_processors!r}"
                )
            if num_processors < 1:
                raise ValueError(f"num_processors must be >= 1, got {num_processors}")
        if memory_size is not None:
            if type(memory_size) is not int:
                raise ValueError(
                    f"memory_size must be an int >= 1 or None, got {memory_size!r}"
                )
            if memory_size < 1:
                raise ValueError(f"memory_size must be >= 1, got {memory_size}")
        self.num_processors = num_processors
        self.memory_size = memory_size
        from repro.core.engine_vector import resolve_engine

        self.engine = resolve_engine(engine)
        if _metrics.REGISTRY.enabled:
            _metrics.record_engine(self.engine, self.model_label)
        if self.engine == "vector":
            from repro.core.engine_vector import DenseMemory, VectorPhase

            self._memory: Dict[int, Any] = DenseMemory(memory_size)
            self._phase_factory = VectorPhase
        else:
            self._memory = {}
            self._phase_factory = Phase
        # Highest address ever written (-1 when untouched); kept current by
        # poke() and _commit() so next_free_address() is O(1) instead of
        # max() over the whole memory footprint.
        self._high_water: int = -1
        self._rng = derive_rng(seed)
        if winner_policy is not None:
            from repro.faults.winners import make_winner_policy

            winner_policy = make_winner_policy(winner_policy, seed=seed)
        self.winner_policy = winner_policy
        self.fault_plan = fault_plan
        self.fault_events: List[Any] = []
        if fault_plan is not None:
            fault_plan.attach(self)
        self.record_trace = record_trace
        self.record_snapshots = record_snapshots
        self.record_costs = record_costs
        self.history: List[PhaseRecord] = []
        self.phase_costs: List[float] = []
        self.traces: List["PhaseTrace"] = []
        self.snapshots: List[Dict[int, Any]] = []
        self.cost_records: List["PhaseCostRecord"] = []
        self.time: float = 0.0
        self._phase_open = False

    # -- subclass hooks ----------------------------------------------------

    def _phase_cost(self, record: PhaseRecord) -> float:
        raise NotImplementedError

    def _cost_terms(self, record: PhaseRecord) -> Dict[str, float]:
        """Evaluated terms of this model's phase-cost ``max()``.

        Returned in the model's canonical order (see the ``*_cost_terms``
        functions in :mod:`repro.core.cost`); the first argmax is the
        phase's dominant term.  Invariant: ``max(terms.values())`` equals
        :meth:`_phase_cost` of the same record.
        """
        raise NotImplementedError

    def _resolve_writes(self, phase: Phase) -> None:
        """Apply ``phase._writes`` to memory (model-specific).

        Entries come in the three :data:`WriteEntry` kinds; the phase's
        ``_write_collision`` / ``_has_plain`` / ``_has_pairs`` flags tell a
        resolver which kinds are present so it can pick a bulk path —
        :meth:`_apply_single_writes` implements the common last-value case.
        """
        raise NotImplementedError

    def _pick_winner(self, addr: int, entries: "Collided") -> int:
        """Index of the surviving write among ``entries`` (>= 2 writers).

        Routes through :attr:`winner_policy` when one is installed;
        otherwise draws from the machine's own seeded generator, exactly
        as every pre-policy run did.
        """
        policy = self.winner_policy
        if policy is None:
            return int(self._rng.integers(0, len(entries)))
        choice = policy.choose(addr, entries, len(self.history))
        if not 0 <= choice < len(entries):
            raise ValueError(
                f"winner policy {policy!r} chose index {choice} among "
                f"{len(entries)} writers of cell {addr}"
            )
        return choice

    def _apply_single_writes(self, phase: Phase) -> None:
        """Apply a collision-free phase's writes: each cell gets its one value.

        Covers the write rule of every model whose single-writer semantics is
        "store the value" (QSM, s-QSM, PRAM); only calls with
        ``phase._write_collision`` false are valid.
        """
        writes = phase._writes
        memory = self._memory
        if not phase._has_pairs:
            # Every entry is a bare value from the bulk path.
            memory.update(writes)
        elif not phase._has_plain:
            # Every entry is a (proc, value) tuple from the scalar path.
            memory.update(zip(writes.keys(), map(_value_of, writes.values())))
        else:
            for addr, entry in writes.items():
                memory[addr] = entry[1] if type(entry) is tuple else entry

    # -- public API ---------------------------------------------------------

    def phase(self) -> Phase:
        """Open a new phase.  Phases may not be nested."""
        if self._phase_open:
            raise PhaseClosedError("a phase is already open; phases cannot nest")
        self._phase_open = True
        phase = self._phase_factory(self)
        if self.record_costs:
            phase._t_open = perf_counter()
        return phase

    def peek(self, addr: int) -> Any:
        """Read committed memory without charging cost (test/verifier use only)."""
        self._check_addr(addr)
        return self._memory.get(addr)

    def poke(self, addr: int, value: Any) -> None:
        """Set committed memory without charging cost (input loading)."""
        self._check_addr(addr)
        self._memory[addr] = value
        if addr > self._high_water:
            self._high_water = addr

    def load(self, values: Sequence[Any], base: int = 0) -> None:
        """Place ``values`` into consecutive cells starting at ``base`` for free.

        Input placement is not charged in any of the models; the input is
        assumed to reside in shared memory (or be distributed, on the BSP)
        at time zero.
        """
        scatter = getattr(self._memory, "scatter", None)
        if scatter is not None and values and type(base) is int and base >= 0:
            span = range(base, base + len(values))
            if self.memory_size is None or span[-1] < self.memory_size:
                scatter(span, list(values))
                if span[-1] > self._high_water:
                    self._high_water = span[-1]
                return
        for offset, value in enumerate(values):
            self.poke(base + offset, value)

    @property
    def phase_count(self) -> int:
        return len(self.history)

    @property
    def memory_in_use(self) -> int:
        """Number of distinct cells ever written (footprint measure)."""
        return len(self._memory)

    def next_free_address(self) -> int:
        """One past the highest address ever written.

        Algorithms that lay out scratch arrays start their allocators here
        so that several algorithm invocations can share one machine without
        address collisions.  O(1): reads the high-water mark maintained by
        ``poke`` and phase commits (memory cells are never deleted, so the
        mark always equals ``max(self._memory)``).
        """
        return self._high_water + 1

    # -- internals -----------------------------------------------------------

    def _check_proc(self, proc: int) -> None:
        # Hot path: one exact-type test covers the common case (profiling
        # showed per-operation validation dominating large sweeps; `type is
        # int` also rejects bool, unlike isinstance).
        if type(proc) is not int:
            raise TypeError(f"processor id must be an int, got {proc!r}")
        if proc < 0:
            raise ValueError(f"processor id must be non-negative, got {proc}")
        if self.num_processors is not None and proc >= self.num_processors:
            raise ValueError(
                f"processor id {proc} out of range for machine with "
                f"{self.num_processors} processors"
            )

    def _check_addr(self, addr: int) -> None:
        if type(addr) is not int:
            raise TypeError(f"address must be an int, got {addr!r}")
        if addr < 0:
            raise ValueError(f"address must be non-negative, got {addr}")
        if self.memory_size is not None and addr >= self.memory_size:
            raise ValueError(
                f"address {addr} out of range for memory of size {self.memory_size}"
            )

    def _commit(self, phase: Phase) -> None:
        record = phase._build_record(len(self.history))
        cost = self._phase_cost(record)
        # Resolve reads against pre-phase memory, then apply writes.  Both
        # steps go through the phase so an engine-specific Phase subclass
        # can substitute bulk gathers / slice assignments.
        phase._resolve_reads(self)
        phase._apply_writes(self)
        # The phase's interval hull tracks its exact max written address.
        if phase._write_hi > self._high_water:
            self._high_water = phase._write_hi
        phase_faults: Tuple[Dict[str, Any], ...] = ()
        if self.fault_plan is not None:
            fired = self.fault_plan.fire_memory(record.index, self)
            if fired:
                self.fault_events.extend(fired)
                phase_faults = tuple(ev.to_dict() for ev in fired)
        self.history.append(record)
        self.phase_costs.append(cost)
        self.time += cost
        if _metrics.REGISTRY.enabled:
            _metrics.record_phase(self.model_label, record, cost, len(phase_faults))
        if self.record_trace:
            from repro.core.trace import PhaseTrace

            self.traces.append(PhaseTrace.from_phase(record.index, phase))
        if self.record_snapshots:
            self.snapshots.append(dict(self._memory))
        if self.record_costs:
            from repro.obs.records import build_phase_cost_record

            self.cost_records.append(
                build_phase_cost_record(
                    record.index,
                    self.model_label,
                    self._cost_terms(record),
                    cost,
                    record,
                    wall_time=perf_counter() - getattr(phase, "_t_open", perf_counter()),
                    faults=phase_faults,
                )
            )
        self._phase_open = False

    def _read_cell(self, addr: int) -> Any:
        """Value delivered by a read of ``addr`` (subclasses may override)."""
        return self._memory.get(addr)
