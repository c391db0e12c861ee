"""Detailed per-phase execution traces.

The cost formulas only need counts, but the lower-bound engines in
:mod:`repro.lowerbounds` need to know *which* cells each processor touched:
the degree-argument engine (Theorems 3.1 / 7.2) replays traces to maintain
its per-phase degree recurrence, and the Random Adversary inspects access
patterns to build its conflict graphs.  Machines record these traces when
constructed with ``record_trace=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Sequence, Tuple

__all__ = ["PhaseTrace"]


@dataclass(frozen=True)
class PhaseTrace:
    """Who read and wrote what during one phase.

    Attributes
    ----------
    index:
        Phase number.
    reads:
        processor id -> tuple of addresses read.
    writes:
        processor id -> tuple of ``(address, value)`` pairs written.
    """

    index: int
    reads: Mapping[int, Tuple[int, ...]]
    writes: Mapping[int, Tuple[Tuple[int, Any], ...]]

    @classmethod
    def from_phase(cls, index: int, phase: "Phase") -> "PhaseTrace":  # noqa: F821
        reads: Dict[int, list] = {}
        for handle in phase._reads:
            block_addrs = getattr(handle, "addrs", None)
            if block_addrs is None:  # scalar ReadHandle
                reads.setdefault(handle.proc, []).append(handle.addr)
            elif hasattr(handle, "procs"):  # EachReadHandle: one request per proc
                for proc, addr in zip(handle.procs, block_addrs):
                    reads.setdefault(proc, []).append(addr)
            else:  # BlockReadHandle
                reads.setdefault(handle.proc, []).extend(block_addrs)
        from repro.core.machine import Collided

        writes: Dict[int, list] = {}
        for addr, entry in phase._writes.items():
            kind = type(entry)
            if kind is Collided:
                for proc, value in entry:
                    writes.setdefault(proc, []).append((addr, value))
            elif kind is tuple:
                writes.setdefault(entry[0], []).append((addr, entry[1]))
            else:  # bare value from the bulk path; writer from block origins
                proc = phase._first_writer(addr)
                writes.setdefault(proc, []).append((addr, entry))
        return cls(
            index=index,
            reads={p: tuple(a) for p, a in reads.items()},
            writes={p: tuple(w) for p, w in writes.items()},
        )

    def cells_read(self) -> Tuple[int, ...]:
        """All distinct addresses read this phase, sorted."""
        out = set()
        for addrs in self.reads.values():
            out.update(addrs)
        return tuple(sorted(out))

    def cells_written(self) -> Tuple[int, ...]:
        """All distinct addresses written this phase, sorted."""
        out = set()
        for pairs in self.writes.values():
            out.update(addr for addr, _ in pairs)
        return tuple(sorted(out))

    # Per-address processor indices, built lazily on the first readers_of /
    # writers_of call and cached on the (frozen) instance.  Adversary
    # replays query every touched address of large traces; the old linear
    # membership scans per call made those replays quadratic in trace size.

    def _reader_index(self) -> Dict[int, Tuple[int, ...]]:
        index = self.__dict__.get("_readers_by_addr")
        if index is None:
            by_addr: Dict[int, set] = {}
            for proc, addrs in self.reads.items():
                for addr in addrs:
                    by_addr.setdefault(addr, set()).add(proc)
            index = {a: tuple(sorted(procs)) for a, procs in by_addr.items()}
            object.__setattr__(self, "_readers_by_addr", index)
        return index

    def _writer_index(self) -> Dict[int, Tuple[int, ...]]:
        index = self.__dict__.get("_writers_by_addr")
        if index is None:
            by_addr: Dict[int, set] = {}
            for proc, pairs in self.writes.items():
                for addr, _ in pairs:
                    by_addr.setdefault(addr, set()).add(proc)
            index = {a: tuple(sorted(procs)) for a, procs in by_addr.items()}
            object.__setattr__(self, "_writers_by_addr", index)
        return index

    def readers_of(self, addr: int) -> Tuple[int, ...]:
        """Processor ids that read ``addr`` this phase, sorted.  O(1) after
        the first call builds the per-address index."""
        return self._reader_index().get(addr, ())

    def writers_of(self, addr: int) -> Tuple[int, ...]:
        """Processor ids that wrote ``addr`` this phase, sorted.  O(1) after
        the first call builds the per-address index."""
        return self._writer_index().get(addr, ())
