"""Phase-instruction IR shared by the reference and vector engines.

A phase (or BSP superstep) is a batch of operations with no intra-batch
ordering constraints beyond issue order.  This module gives that batch a
first-class representation: a list of small frozen instruction objects that
can be built once and executed against *any* machine, whatever its
``engine=`` selection.  Both engines consume the same IR because
:class:`~repro.core.engine_vector.VectorPhase` implements the exact method
protocol of :class:`~repro.core.machine.Phase` — ``run_phase`` just replays
instructions through that protocol, so an IR program is the natural input
for the reference-vs-vector bit-equality suite
(``tests/property/test_engine_equivalence.py``).

Shared-memory instructions: :class:`ReadOp`, :class:`ReadBlockOp`,
:class:`ReadEachOp`, :class:`WriteOp`, :class:`WriteBlockOp` (parallel
address/value columns), :class:`WriteEachOp` and :class:`LocalOp`.  BSP
instructions: :class:`SendOp`, :class:`SendBlockOp` and :class:`WorkOp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple, Union

__all__ = [
    "ReadOp",
    "ReadBlockOp",
    "ReadEachOp",
    "WriteOp",
    "WriteBlockOp",
    "WriteEachOp",
    "LocalOp",
    "SendOp",
    "SendBlockOp",
    "WorkOp",
    "PhaseOp",
    "SuperstepOp",
    "apply_phase_op",
    "apply_superstep_op",
    "run_phase",
    "run_superstep",
]


# -- shared-memory instructions ----------------------------------------------

@dataclass(frozen=True)
class ReadOp:
    """``proc`` reads cell ``addr``; yields a sealed handle at replay."""

    proc: int
    addr: int


@dataclass(frozen=True)
class ReadBlockOp:
    """``proc`` reads every cell in ``addrs`` (a bulk read)."""

    proc: int
    addrs: Sequence[int]


@dataclass(frozen=True)
class ReadEachOp:
    """``procs[k]`` reads cell ``addrs[k]`` (a many-processor read)."""

    procs: Sequence[int]
    addrs: Sequence[int]


@dataclass(frozen=True)
class WriteOp:
    """``proc`` writes ``value`` to cell ``addr``."""

    proc: int
    addr: int
    value: Any


@dataclass(frozen=True)
class WriteBlockOp:
    """``proc`` writes parallel columns: ``values[i]`` into ``addrs[i]``.

    Column form rather than ``(addr, value)`` pairs so a vector engine can
    consume the columns without unzipping; ``run_phase`` feeds it through
    :meth:`~repro.core.machine.Phase.write_cols`, whose reference
    implementation is pair-exact with ``write_block``.
    """

    proc: int
    addrs: Sequence[int]
    values: Sequence[Any]


@dataclass(frozen=True)
class WriteEachOp:
    """``procs[k]`` writes ``values[k]`` into ``addrs[k]`` (a
    many-processor write)."""

    procs: Sequence[int]
    addrs: Sequence[int]
    values: Sequence[Any]


@dataclass(frozen=True)
class LocalOp:
    """``proc`` charges ``ops`` units of local computation."""

    proc: int
    ops: int = 1


# -- BSP instructions ---------------------------------------------------------

@dataclass(frozen=True)
class SendOp:
    """Component ``src`` sends ``payload`` to component ``dst``."""

    src: int
    dst: int
    payload: Any


@dataclass(frozen=True)
class SendBlockOp:
    """Component ``src`` sends ``payloads[i]`` to ``dsts[i]`` (bulk send)."""

    src: int
    dsts: Sequence[int]
    payloads: Sequence[Any]


@dataclass(frozen=True)
class WorkOp:
    """Component ``proc`` charges ``ops`` units of local work."""

    proc: int
    ops: int = 1


PhaseOp = Union[
    ReadOp, ReadBlockOp, ReadEachOp, WriteOp, WriteBlockOp, WriteEachOp, LocalOp
]
SuperstepOp = Union[SendOp, SendBlockOp, WorkOp]


# -- replay ------------------------------------------------------------------

def apply_phase_op(ph: Any, op: PhaseOp) -> Any:
    """Execute one shared-memory instruction against an open phase.

    Returns the read handle for read instructions, ``None`` otherwise.
    """
    kind = type(op)
    if kind is ReadOp:
        return ph.read(op.proc, op.addr)
    if kind is ReadBlockOp:
        return ph.read_block(op.proc, op.addrs)
    if kind is ReadEachOp:
        return ph.read_each(op.procs, op.addrs)
    if kind is WriteOp:
        ph.write(op.proc, op.addr, op.value)
    elif kind is WriteBlockOp:
        ph.write_cols(op.proc, op.addrs, op.values)
    elif kind is WriteEachOp:
        ph.write_each(op.procs, op.addrs, op.values)
    elif kind is LocalOp:
        ph.local(op.proc, op.ops)
    else:
        raise TypeError(f"not a phase instruction: {op!r}")
    return None


def apply_superstep_op(ss: Any, op: SuperstepOp) -> None:
    """Execute one BSP instruction against an open superstep."""
    kind = type(op)
    if kind is SendOp:
        ss.send(op.src, op.dst, op.payload)
    elif kind is SendBlockOp:
        ss.send_cols(op.src, op.dsts, op.payloads)
    elif kind is WorkOp:
        ss.local(op.proc, op.ops)
    else:
        raise TypeError(f"not a superstep instruction: {op!r}")


def run_phase(machine: Any, program: Sequence[PhaseOp]) -> List[Any]:
    """Execute ``program`` as one committed phase of ``machine``.

    Returns the handles produced by the program's read instructions, in
    program order — resolved, since the phase has committed by the time
    this returns.
    """
    handles: List[Any] = []
    with machine.phase() as ph:
        for op in program:
            handle = apply_phase_op(ph, op)
            if handle is not None:
                handles.append(handle)
    return handles


def run_superstep(bsp: Any, program: Sequence[SuperstepOp]) -> None:
    """Execute ``program`` as one committed superstep of ``bsp``."""
    with bsp.superstep() as ss:
        for op in program:
            apply_superstep_op(ss, op)
