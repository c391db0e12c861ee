"""Scalar oracles for the pattern-method parity algorithms.

These are the one-request-per-call bodies of
:func:`repro.algorithms.parity.parity_blocks` and
:func:`repro.algorithms.pram_algos.parity_crcw` as they were before the
shared :func:`repro.algorithms.parity.pattern_level` moved them onto the
many-processor bulk operations (``Phase.read_each`` / ``Phase.write_each``).
Every reader, flagger and checker issues its own ``ph.read`` /
``ph.write``, so the ported versions must reproduce their histories,
costs, memory, traces and winner draws exactly.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.algorithms.common import Allocator, CostMeter, RunResult, fresh_allocator
from repro.algorithms.parity import MAX_BLOCK_BITS, _block_size, _check_bits


def _pattern_level(machine, base, size, b, proc, alloc, charge_local):
    groups = -(-size // b)
    out_base = alloc.alloc(groups)
    flag_base = alloc.alloc(groups << b)

    readers = {}
    with machine.phase() as ph:
        for j in range(groups):
            width = min(b, size - j * b)
            for q in range(1 << width):
                for i in range(width):
                    readers[(j, q, i)] = ph.read(proc, base + j * b + i)
                    proc += 1
    with machine.phase() as ph:
        for (j, q, i), handle in readers.items():
            if int(handle.value) != (q >> i) & 1:
                ph.write(handle.proc, flag_base + (j << b) + q, 1)
    checkers = {}
    with machine.phase() as ph:
        for j in range(groups):
            width = min(b, size - j * b)
            for q in range(1 << width):
                checkers[(j, q)] = ph.read(proc, flag_base + (j << b) + q)
                proc += 1
    with machine.phase() as ph:
        for (j, q), handle in checkers.items():
            if handle.value is None:
                if charge_local:
                    ph.local(handle.proc, 1)
                ph.write(handle.proc, out_base + j, bin(q).count("1") & 1)
    return out_base, proc


def parity_blocks_scalar(
    machine,
    bits: Sequence[int],
    block_size: Optional[int] = None,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """Scalar-loop ``parity_blocks`` (QSM)."""
    values = _check_bits(bits)
    b = block_size if block_size is not None else _block_size(machine)
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)
    base = alloc.alloc(len(values))
    machine.load(values, base=base)
    size, proc, levels = len(values), 0, 0
    while size > 1:
        base, proc = _pattern_level(machine, base, size, b, proc, alloc, True)
        size = -(-size // b)
        levels += 1
    answer = int(machine.peek(base) or 0)
    return meter.result(answer, block_size=b, levels=levels)


def parity_crcw_scalar(
    machine,
    bits: Sequence[int],
    block_size: Optional[int] = None,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """Scalar-loop ``parity_crcw`` (CRCW PRAM)."""
    values = _check_bits(bits)
    n = len(values)
    if block_size is None:
        block_size = max(2, min(MAX_BLOCK_BITS, int(math.log2(max(4, n)))))
    b = block_size
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)
    base = alloc.alloc(n)
    machine.load(values, base=base)
    size, proc, levels = n, 0, 0
    while size > 1:
        base, proc = _pattern_level(machine, base, size, b, proc, alloc, False)
        size = -(-size // b)
        levels += 1
    with machine.phase() as ph:
        handle = ph.read(0, base)
    return meter.result(int(handle.value or 0), block_size=b, levels=levels)
