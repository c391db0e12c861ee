"""Parity algorithms (Section 8, first paragraph).

Four implementations, matching the paper's claims:

* :func:`parity_tree` — plain k-ary read-combining tree.  With the default
  fan-in 2 this is the straightforward ``O(g log n)`` algorithm that is
  *tight* on the s-QSM (Theta(g log n), Table 1b).  On the GSM fan-in
  ``alpha`` packs each phase into one big-step.
* :func:`parity_blocks` — emulation of the depth-2 unbounded fan-in parity
  circuit, the ``O(g log n / log log g)`` QSM algorithm.  Each level splits
  the input into blocks of ``b`` bits and evaluates every block's parity in
  O(1) phases of cost O(g) using per-pattern mismatch detection:

  - one processor per (block, pattern, position) reads its input bit
    (per-bit read contention ``2^b``, so ``b = floor(log2 g)`` keeps the
    contention charge at ``g``),
  - mismatching processors write a flag to their pattern cell (write
    contention <= b),
  - one processor per pattern reads the flag cell; the unique pattern with
    no mismatch knows the block's bits and writes their parity.

  With unit-time concurrent reads (``QSMParams.unit_time_concurrent_reads``)
  the read contention is free and the block size grows to ``b = g``, giving
  the ``O(g log n / log g)`` variant that matches Theorem 3.1's bound for
  QSM-with-concurrent-reads *exactly* (the Theta entry of Table 1a).
* :func:`parity_bsp` — local XOR then an (L/g)-ary reduction tree:
  ``O(g n/p + L log p / log(L/g))``.
* :func:`parity_rounds` — p-processor rounds version (local blocks of n/p,
  then an (n/p)-ary tree): ``O(log n / log(n/p))`` rounds, the upper bound
  quoted under Table 1d.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, repeat
from operator import is_
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.algorithms.common import Allocator, CostMeter, RunResult, bsp_fanin, fresh_allocator
from repro.core.bsp import BSP
from repro.core.gsm import GSM
from repro.core.qsm import QSM
from repro.core.sqsm import SQSM

__all__ = ["parity_tree", "parity_blocks", "parity_bsp", "parity_rounds"]

SharedMachine = Union[QSM, SQSM, GSM]


def _check_bits(bits: Sequence[int]) -> List[int]:
    out = []
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"parity input must be 0/1 bits, got {b!r}")
        out.append(int(b))
    if not out:
        raise ValueError("parity of an empty input is undefined here; pass >= 1 bit")
    return out


def _unwrap(machine: SharedMachine, value):
    if isinstance(machine, GSM) and isinstance(value, tuple):
        return value[0]
    return value


def _default_fanin(machine: SharedMachine, fan_in: Optional[int]) -> int:
    if fan_in is not None:
        if fan_in < 2:
            raise ValueError(f"fan-in must be >= 2, got {fan_in}")
        return fan_in
    if isinstance(machine, GSM):
        return max(2, int(machine.params.alpha))
    from repro.models.pem import PEM

    if isinstance(machine, PEM):
        # B reads are one block I/O: B-ary trees cost one I/O per level.
        return max(2, int(machine.params.B))
    return 2


def parity_tree(
    machine: SharedMachine,
    bits: Sequence[int],
    fan_in: Optional[int] = None,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """k-ary read-combining parity tree.

    Each level: one read phase where a leader per group reads its k children
    (``m_rw = k``, contention 1) and one write phase for the group parities.
    Cost ``O(g k log_k n)`` on QSM/s-QSM; ``O(mu * log_alpha n)`` on the GSM
    with the default fan-in alpha.
    """
    values = _check_bits(bits)
    k = _default_fanin(machine, fan_in)
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)

    base = alloc.alloc(len(values))
    machine.load(values, base=base)
    size = len(values)
    proc = 0
    levels = 0
    while size > 1:
        groups = -(-size // k)
        nxt = alloc.alloc(groups)
        handles = []
        with machine.phase() as ph:
            for j in range(groups):
                handles.append(
                    ph.read_block(
                        proc + j,
                        range(base + j * k, base + min((j + 1) * k, size)),
                    )
                )
        new_vals = []
        with machine.phase() as ph:
            for j, hs in enumerate(handles):
                got = [_unwrap(machine, v) for v in hs.values]
                par = 0
                for v in got:
                    par ^= int(v)
                ph.local(proc + j, len(got))
                ph.write(proc + j, nxt + j, par)
                new_vals.append(par)
        proc += groups
        base, size = nxt, groups
        levels += 1

    answer = int(_unwrap(machine, machine.peek(base)))
    return meter.result(answer, fan_in=k, levels=levels)


# The pattern-matching emulation spawns 2^b processors per block; the paper's
# QSM has unlimited processors but the simulator has finite memory, so default
# block widths are capped here.  Benchmarks sweeping the concurrent-reads
# variant keep g at or below 2^MAX_BLOCK_BITS (documented in EXPERIMENTS.md).
MAX_BLOCK_BITS = 10


def _block_size(machine: SharedMachine) -> int:
    """Block width for :func:`parity_blocks`, per the model's contention charge."""
    if isinstance(machine, QSM) and not isinstance(machine, SQSM):
        g = int(machine.params.g)
        if machine.params.unit_time_concurrent_reads:
            # Reads are free; write contention <= b caps the block at b = g.
            return min(max(2, g), MAX_BLOCK_BITS)
        # Read contention 2^b is charged raw: keep 2^b <= g.
        return min(max(2, g.bit_length() - 1), MAX_BLOCK_BITS)
    # s-QSM / GSM: contention is expensive; the block method degenerates, use 2.
    return 2


@lru_cache(maxsize=None)
def _set_bits(width: int) -> Tuple[Tuple[int, ...], ...]:
    """Positions of the set bits of every ``width``-bit mask."""
    return tuple(
        tuple(i for i in range(width) if x >> i & 1) for x in range(1 << width)
    )


def _read_blocks(
    machine: Any, base: int, b: int, widths: List[int], proc: int
) -> Tuple[List[Tuple[int, int, int]], int]:
    """Phase A of :func:`pattern_level`: reader ``(j, q, i)`` reads bit
    ``j*b+i``.  Each block's ``w * 2^w`` readers go out as one
    many-processor read in the scalar issue order (pattern ``q`` outer,
    position ``i`` inner), so the addresses repeat the block's ``w``
    cells once per pattern.

    Returns, per block, ``(first reader id, contents v, bad)``, where
    ``bad`` marks the positions whose cell did not hold a 0/1 bit (they
    mismatch every pattern), and the next free processor id.
    """
    reads = []
    with machine.phase() as ph:
        for j, w in enumerate(widths):
            span = w << w
            cells = list(range(base + j * b, base + j * b + w))
            reads.append((proc, w, ph.read_each(range(proc, proc + span), cells * (1 << w))))
            proc += span
    blocks = []
    for first, w, handle in reads:
        v = bad = 0
        for i, bit in enumerate(handle.values[:w]):
            bit = int(bit)
            if bit == 1:
                v |= 1 << i
            elif bit != 0:
                bad |= 1 << i
        blocks.append((first, v, bad))
    return blocks, proc


def pattern_level(
    machine: Any,
    base: int,
    size: int,
    b: int,
    proc: int,
    alloc: Allocator,
    charge_local: bool,
) -> Tuple[int, int]:
    """One level of the pattern method: the parities of the ``b``-bit
    blocks of cells ``base .. base+size-1``, in four phases.

    Shared by :func:`parity_blocks` (QSM) and
    :func:`~repro.algorithms.pram_algos.parity_crcw` (CRCW PRAM);
    ``charge_local`` charges the QSM's one local op per parity writer.
    Returns ``(out_base, next free processor id)``.

    Processor ids and issue order are those of the one-request-per-call
    emulation (so are the key orders of every record): reader ``(j, q, i)`` is processor ``first_j + q*w + i`` and
    checker ``(j, q)`` is ``first_check + (j << b) + q``.
    """
    groups = -(-size // b)
    out_base = alloc.alloc(groups)
    flag_base = alloc.alloc(groups << b)  # mismatch flags, one per (block, pattern)
    widths = [min(b, size - j * b) for j in range(groups)]

    blocks, proc = _read_blocks(machine, base, b, widths, proc)

    # Phase B: reader (j, q, i) flags cell (j, q) iff its bit differs from
    # bit i of q — iff bit i of (q ^ v) | bad is set, for the block's
    # contents v and its non-0/1 positions bad.
    procs: List[int] = []
    cells: List[int] = []
    for j, (w, (first, v, bad)) in enumerate(zip(widths, blocks)):
        set_bits = _set_bits(w)
        flag = flag_base + (j << b)
        for q in range(1 << w):
            offsets = set_bits[(q ^ v) | bad]
            if offsets:
                at = first + q * w
                procs.extend([at + i for i in offsets])
                cells.extend([flag + q] * len(offsets))
    with machine.phase() as ph:
        ph.write_each(procs, cells, [1] * len(procs))

    # Phase C: checker (j, q) reads flag cell (j, q).  Only the last block
    # can be narrower, so the checkers and their cells are contiguous.
    n_check = ((groups - 1) << b) + (1 << widths[-1])
    first_check = proc
    with machine.phase() as ph:
        flags = ph.read_each(
            range(proc, proc + n_check), range(flag_base, flag_base + n_check)
        )
    proc += n_check

    # Phase D: the unflagged pattern of each block is its contents; its
    # checker writes the block's parity.
    clean = list(compress(range(n_check), map(is_, flags.values, repeat(None))))
    mask = (1 << b) - 1
    with machine.phase() as ph:
        writers = [first_check + k for k in clean]
        if charge_local:
            for pid in writers:
                ph.local(pid, 1)
        ph.write_each(
            writers,
            [out_base + (k >> b) for k in clean],
            [bin(k & mask).count("1") & 1 for k in clean],
        )
    return out_base, proc


def parity_blocks(
    machine: QSM,
    bits: Sequence[int],
    block_size: Optional[int] = None,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """Depth-2 circuit emulation: parity via per-block pattern matching.

    Intended for the QSM (where contention is charged raw); see the module
    docstring for the phase structure and :func:`pattern_level` for one
    level.  The per-level cost is ``O(max(g, 2^b, b))`` and the level count
    ``ceil(log n / log b)``, so

    * plain QSM, ``b = log g``: ``O(g log n / log log g)`` total,
    * unit-time concurrent reads, ``b = g``: ``O(g log n / log g)`` total.
    """
    if not isinstance(machine, QSM) or isinstance(machine, SQSM):
        raise TypeError("parity_blocks targets the QSM; use parity_tree elsewhere")
    values = _check_bits(bits)
    b = block_size if block_size is not None else _block_size(machine)
    if b < 2:
        raise ValueError(f"block size must be >= 2, got {b}")
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)

    base = alloc.alloc(len(values))
    machine.load(values, base=base)
    size = len(values)
    proc = 0
    levels = 0
    while size > 1:
        base, proc = pattern_level(machine, base, size, b, proc, alloc, charge_local=True)
        size = -(-size // b)
        levels += 1

    answer = int(machine.peek(base) or 0)
    return meter.result(answer, block_size=b, levels=levels)


def parity_bsp(machine: BSP, bits: Sequence[int]) -> RunResult:
    """BSP parity: local XOR then (L/g)-ary reduction to component 0.

    Cost ``O(n/p)`` local work in the first superstep plus
    ``ceil(log p / log(L/g + 1))`` combine supersteps of cost ``L`` each.
    """
    values = _check_bits(bits)
    meter = CostMeter(machine)
    p = machine.p
    machine.scatter(values, key="parity_in")
    k = bsp_fanin(machine)

    partial: List[int] = []
    with machine.superstep() as ss:
        for i in range(p):
            block = machine.store[i]["parity_in"]
            ss.local(i, max(1, len(block)))
            par = 0
            for v in block:
                par ^= int(v)
            partial.append(par)

    group = 1
    while group < p:
        with machine.superstep() as ss:
            for leader in range(0, p, group * k):
                for child_idx in range(1, k):
                    child = leader + child_idx * group
                    if child < p:
                        ss.send(child, leader, partial[child])
        for leader in range(0, p, group * k):
            acc = partial[leader]
            for _, payload in machine.inbox(leader):
                acc ^= int(payload)
            partial[leader] = acc
        group *= k

    return meter.result(partial[0], fan_in=k)


def parity_rounds(
    machine: SharedMachine,
    bits: Sequence[int],
    p: int,
    alloc: Optional[Allocator] = None,
) -> RunResult:
    """p-processor parity that computes in rounds.

    One round of local XOR over blocks of ``ceil(n/p)`` bits, then an
    ``(n/p)``-ary :func:`parity_tree` over the p partial parities — every
    phase fits the ``O(g n/p)`` round budget, and the round count is
    ``O(1 + log p / log(n/p)) = O(log n / log(n/p))``.
    """
    values = _check_bits(bits)
    n = len(values)
    if p < 1 or p > n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    alloc = alloc or fresh_allocator(machine)
    meter = CostMeter(machine)
    block = -(-n // p)
    base = alloc.alloc(n)
    machine.load(values, base=base)

    handles = []
    with machine.phase() as ph:
        for i in range(p):
            lo, hi = i * block, min((i + 1) * block, n)
            handles.append(ph.read_block(i, range(base + lo, base + hi)))
    partials = []
    for hs in handles:
        par = 0
        for v in hs.values:
            par ^= int(_unwrap(machine, v))
        partials.append(par)

    if len(partials) == 1:
        return meter.result(partials[0], p=p, block=block)
    inner = parity_tree(machine, partials, fan_in=max(2, block), alloc=alloc)
    return meter.result(inner.value, p=p, block=block, fan_in=max(2, block))
