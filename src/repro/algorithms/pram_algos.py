"""Reference algorithms for the classical PRAM family.

These close the model ladder the paper sits on: the EREW binary tree is the
Theta(log n) baseline, and the CRCW pattern method is the
Theta(log n / log log n) Beame-Hastad-matching parity algorithm whose
*lower* bound Theorem 3.3 transfers to the QSM.  OR on a COMMON CRCW is the
textbook O(1) step — the separation that motivates charging contention at
all (on the paper's queuing models the same trick costs ``kappa``).

Every processor issues at most one shared-memory access per step, as the
:class:`~repro.core.pram.PRAM` machine enforces.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.algorithms.common import Allocator, CostMeter, RunResult, fresh_allocator
from repro.algorithms.parity import MAX_BLOCK_BITS, pattern_level
from repro.core.pram import PRAM, ConcurrencyViolation

__all__ = ["or_crcw", "parity_erew", "parity_crcw"]


def _check_bits(bits: Sequence[int]) -> List[int]:
    out = [int(b) for b in bits]
    if any(b not in (0, 1) for b in out):
        raise ValueError("input must be 0/1 bits")
    if not out:
        raise ValueError("empty input")
    return out


def _require_variant(machine: PRAM, *variants: str) -> None:
    if not isinstance(machine, PRAM):
        raise TypeError(f"expected a PRAM, got {type(machine)!r}")
    if machine.params.variant not in variants:
        raise ValueError(
            f"algorithm needs a {'/'.join(variants)} PRAM, got {machine.params.variant}"
        )


def or_crcw(machine: PRAM, bits: Sequence[int], alloc: Optional[Allocator] = None) -> RunResult:
    """OR in O(1) CRCW steps: every 1-holder writes 1 to the output cell.

    All writers agree on the value, so the COMMON rule suffices (and
    arbitrary/priority trivially work too).  One more step reads the answer
    back.  Total: 2 unit-time steps regardless of n.
    """
    _require_variant(machine, "CRCW")
    values = _check_bits(bits)
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)
    out = alloc.alloc(1)
    with machine.phase() as ph:
        for i, v in enumerate(values):
            if v == 1:
                ph.write(i, out, 1)
    with machine.phase() as ph:
        handle = ph.read(0, out)
    return meter.result(1 if handle.value == 1 else 0)


def parity_erew(
    machine: PRAM, bits: Sequence[int], alloc: Optional[Allocator] = None
) -> RunResult:
    """Binary-tree parity in Theta(log n) EREW steps.

    Each tree level takes three steps (read left child, read right child,
    write parent), with every cell touched by exactly one processor per
    step — exclusive reads and writes throughout.
    """
    _require_variant(machine, "EREW", "CREW", "CRCW")
    values = _check_bits(bits)
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)

    base = alloc.alloc(len(values))
    machine.load(values, base=base)
    size = len(values)
    proc = 0
    while size > 1:
        groups = size // 2
        odd = size % 2
        nxt = alloc.alloc(groups + odd)
        left = []
        with machine.phase() as ph:
            for j in range(groups):
                left.append(ph.read(proc + j, base + 2 * j))
        right = []
        with machine.phase() as ph:
            for j in range(groups):
                right.append(ph.read(proc + j, base + 2 * j + 1))
        with machine.phase() as ph:
            for j in range(groups):
                ph.write(proc + j, nxt + j, int(left[j].value) ^ int(right[j].value))
        if odd:
            with machine.phase() as ph:
                carry = ph.read(proc + groups, base + size - 1)
            with machine.phase() as ph:
                ph.write(proc + groups, nxt + groups, int(carry.value))
        proc += groups + odd
        base, size = nxt, groups + odd

    with machine.phase() as ph:
        handle = ph.read(0, base)
    return meter.result(int(handle.value))


def parity_crcw(
    machine: PRAM,
    bits: Sequence[int],
    block_size: Optional[int] = None,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """Pattern-method parity in Theta(log n / log log n) CRCW steps.

    Per level, blocks of ``b ~ log n`` bits are evaluated in O(1) steps:
    one reader per (block, pattern, position) reads its bit (concurrent
    reads are free), mismatching readers write a common flag to their
    pattern cell (COMMON-compatible: everyone writes 1), one checker per
    pattern reads the flag, and the unique clean pattern writes the block
    parity.  Levels shrink n by the factor b, giving the
    ``log n / log log n`` step count whose optimality is Beame-Hastad [3].
    """
    _require_variant(machine, "CRCW")
    values = _check_bits(bits)
    n = len(values)
    if block_size is None:
        block_size = max(2, min(MAX_BLOCK_BITS, int(math.log2(max(4, n)))))
    if block_size < 2:
        raise ValueError(f"block size must be >= 2, got {block_size}")
    b = block_size
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)

    base = alloc.alloc(n)
    machine.load(values, base=base)
    size = n
    proc = 0
    levels = 0
    while size > 1:
        base, proc = pattern_level(machine, base, size, b, proc, alloc, charge_local=False)
        size = -(-size // b)
        levels += 1

    with machine.phase() as ph:
        handle = ph.read(0, base)
    return meter.result(int(handle.value or 0), block_size=b, levels=levels)
