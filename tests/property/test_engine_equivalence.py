"""engine="reference" == engine="vector" — bit-equality, property-checked.

The vector engine promises to be a drop-in for the reference engine: same
``PhaseRecord`` / ``SuperstepRecord`` streams, same phase costs and cost
records, same final memory, same delivered read values and inboxes, same
traces — and the same winner-policy RNG draws, so even arbitrary-winner
collisions resolve identically on seeded machines.  Randomized IR programs
(scalar, block and many-processor reads/writes, local charges, collisions,
duplicates, conflicts, faults) are replayed through both engines and every
observable compared.  The many-processor operations are also checked
against the scalar loops they stand for, errors included.
"""

from dataclasses import replace

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BSP,
    GSM,
    PRAM,
    QSM,
    QSMGD,
    SQSM,
    BSPParams,
    LocalOp,
    MemoryConflictError,
    PRAMParams,
    ReadBlockOp,
    ReadEachOp,
    ReadOp,
    SendBlockOp,
    SendOp,
    WorkOp,
    WriteBlockOp,
    WriteEachOp,
    WriteOp,
    run_phase,
    run_superstep,
)
from repro.faults.plan import random_fault_plan
from repro.faults.winners import FirstWriterWins, LastWriterWins, SeededWinners
from repro.models import MPC, PEM, MPCParams, PEMParams
from tests.records import key_orders

ADDRS = st.integers(0, 15)
VALUES = st.integers(-5, 5)
PROCS = st.integers(0, 3)


def _block_addrs():
    # Mix of explicit address lists and contiguous ranges: ranges take the
    # vector engine's interval fast paths, lists its np.unique paths.
    explicit = st.lists(ADDRS, min_size=0, max_size=6)
    contiguous = st.tuples(ADDRS, st.integers(0, 6)).map(
        lambda t: range(t[0], t[0] + t[1])
    )
    return st.one_of(explicit, contiguous)


@st.composite
def _each_columns(draw, procs=PROCS, addrs=ADDRS):
    """Parallel (procs, addrs) columns: the shapes the bulk fast paths
    take (one cell, a repeated tile of cells, cells grouped in runs,
    ranges) and random order."""
    k = draw(st.integers(0, 8))
    shape = draw(st.sampled_from(["random", "one-cell", "tiled", "grouped", "ranges"]))
    if shape == "ranges":
        first, base = draw(st.integers(0, 3)), draw(st.integers(0, 12))
        return range(first, first + k), range(base, base + k)
    if shape == "tiled":
        tile = draw(st.lists(addrs, min_size=1, max_size=3))
        addr_col = tile * draw(st.integers(0, 3))
        return draw(st.lists(procs, min_size=len(addr_col), max_size=len(addr_col))), addr_col
    proc_col = draw(st.lists(procs, min_size=k, max_size=k))
    if shape == "one-cell":
        return proc_col, [draw(addrs)] * k
    addr_col = draw(st.lists(addrs, min_size=k, max_size=k))
    if shape == "grouped":
        addr_col.sort(key=repr)
    return proc_col, addr_col


def _read_each_ops(**kw):
    return _each_columns(**kw).map(lambda cols: ReadEachOp(*cols))


def _write_each_ops(**kw):
    return st.builds(
        lambda cols, seed: WriteEachOp(
            cols[0], cols[1], [seed + i for i in range(len(cols[1]))]
        ),
        _each_columns(**kw),
        VALUES,
    )


def _write_ops():
    return st.one_of(
        st.builds(WriteOp, PROCS, ADDRS, VALUES),
        _write_each_ops(),
        st.builds(
            lambda proc, addrs, seed: WriteBlockOp(
                proc, addrs, [seed + i for i in range(len(addrs))]
            ),
            PROCS,
            _block_addrs(),
            VALUES,
        ),
        st.builds(LocalOp, PROCS, st.integers(0, 4)),
    )


def _read_ops():
    return st.one_of(
        st.builds(ReadOp, PROCS, ADDRS),
        _read_each_ops(),
        st.builds(ReadBlockOp, PROCS, _block_addrs()),
        st.builds(LocalOp, PROCS, st.integers(0, 4)),
    )


write_phases = st.lists(_write_ops(), min_size=0, max_size=8)
read_phases = st.lists(_read_ops(), min_size=0, max_size=8)

MACHINES = [
    pytest.param(
        lambda eng: QSM(seed=7, record_trace=True, record_costs=True, engine=eng),
        id="qsm",
    ),
    pytest.param(
        lambda eng: SQSM(seed=7, record_trace=True, record_costs=True, engine=eng),
        id="sqsm",
    ),
    pytest.param(
        lambda eng: QSMGD(seed=7, record_trace=True, record_costs=True, engine=eng),
        id="qsm-gd",
    ),
    pytest.param(
        lambda eng: GSM(seed=7, record_trace=True, record_costs=True, engine=eng),
        id="gsm",
    ),
    pytest.param(
        lambda eng: PEM(
            PEMParams(M=16, B=4), seed=7, record_trace=True,
            record_costs=True, engine=eng,
        ),
        id="pem",
    ),
]


def _sans_wall(records):
    # wall_time is real elapsed clock — the one field that legitimately
    # differs between engines.
    return [replace(r, wall_time=0.0) for r in records]


def _read_values(handles):
    out = []
    for h in handles:
        if hasattr(h, "values"):
            out.append(list(h.values))
        else:
            out.append(h.value)
    return out


def _assert_machines_equal(ref, vec):
    assert ref.history == vec.history
    assert vec.history == ref.history  # reflected CountQueue equality too
    assert ref.phase_costs == vec.phase_costs
    assert ref.time == vec.time
    assert ref._memory == vec._memory
    assert vec._memory == ref._memory
    assert ref.traces == vec.traces
    assert _sans_wall(ref.cost_records) == _sans_wall(vec.cost_records)


def _run_both(make, writes, reads):
    ref, vec = make("reference"), make("vector")
    results = []
    for machine in (ref, vec):
        vals = []
        try:
            vals.append(_read_values(run_phase(machine, writes)))
            vals.append(_read_values(run_phase(machine, reads)))
            results.append(("ok", vals))
        except MemoryConflictError as exc:
            results.append(("conflict", str(exc)))
    # Identical outcome: both conflict with the same message, or both
    # succeed with identical observables.
    assert results[0] == results[1]
    if results[0][0] == "ok":
        _assert_machines_equal(ref, vec)
    return results[0]


class TestSharedMemoryBitEquality:
    @pytest.mark.parametrize("make", MACHINES)
    @given(writes=write_phases, reads=read_phases)
    @settings(max_examples=60, deadline=None)
    def test_engines_identical_on_random_programs(self, make, writes, reads):
        _run_both(make, writes, reads)

    @pytest.mark.parametrize("make", MACHINES)
    @given(writes=write_phases, reads=read_phases)
    @settings(max_examples=25, deadline=None)
    def test_engines_identical_on_mixed_conflicting_phases(self, make, writes, reads):
        # Interleave reads and writes in one phase so conflict detection
        # (and its error messages) is exercised, not just clean programs.
        _run_both(make, writes + reads, reads + writes)

    @pytest.mark.parametrize(
        "policy",
        [FirstWriterWins(), LastWriterWins(), SeededWinners(99)],
        ids=["first", "last", "seeded"],
    )
    @given(writes=write_phases)
    @settings(max_examples=25, deadline=None)
    def test_winner_policies_replay_identically(self, policy, writes):
        make = lambda eng: QSM(seed=11, winner_policy=policy, engine=eng)
        ref, vec = make("reference"), make("vector")
        for machine in (ref, vec):
            policy.reset()
            run_phase(machine, writes)
        assert ref.history == vec.history
        assert ref._memory == vec._memory

    @pytest.mark.parametrize(
        "policy",
        [FirstWriterWins(), LastWriterWins(), SeededWinners(99)],
        ids=["first", "last", "seeded"],
    )
    @given(writes=write_phases)
    @settings(max_examples=15, deadline=None)
    def test_pem_winner_policies_replay_identically(self, policy, writes):
        # PEM routes collisions through the same _pick_winner choke point
        # as the QSM family; the draws must be engine-independent there too.
        make = lambda eng: PEM(
            PEMParams(M=16, B=4), seed=11, winner_policy=policy, engine=eng
        )
        ref, vec = make("reference"), make("vector")
        for machine in (ref, vec):
            policy.reset()
            run_phase(machine, writes)
        assert ref.history == vec.history
        assert ref._memory == vec._memory
        assert ref.phase_costs == vec.phase_costs

    @given(writes=write_phases, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_fault_plans_fire_identically(self, writes, seed):
        def run(eng):
            plan = random_fault_plan("shared", seed=seed, max_faults=2)
            machine = QSM(seed=5, fault_plan=plan, record_costs=True, engine=eng)
            for _ in range(3):
                run_phase(machine, writes)
            return machine

        ref, vec = run("reference"), run("vector")
        assert ref.history == vec.history
        assert ref.phase_costs == vec.phase_costs
        assert ref._memory == vec._memory
        assert [e.to_dict() for e in ref.fault_events] == [
            e.to_dict() for e in vec.fault_events
        ]
        assert _sans_wall(ref.cost_records) == _sans_wall(vec.cost_records)


def _scalar_loop(program):
    """``program`` with every many-processor op spelled as its scalar loop."""
    out = []
    for op in program:
        if type(op) is ReadEachOp:
            out.extend(ReadOp(p, a) for p, a in zip(op.procs, op.addrs))
        elif type(op) is WriteEachOp:
            out.extend(
                WriteOp(p, a, v) for p, a, v in zip(op.procs, op.addrs, op.values)
            )
        else:
            out.append(op)
    return out


def _flat_values(handles):
    out = []
    for h in handles:
        out.extend(h.values if hasattr(h, "values") else [h.value])
    return out


# Processor ids and addresses the scalar checks reject (on a machine with
# 4 processors and 16 cells): negative, out of range, bool, float.
BAD_PROCS = st.one_of(PROCS, st.sampled_from([-1, 4, True]))
BAD_ADDRS = st.one_of(ADDRS, st.sampled_from([-1, 16, False, 2.0]))

each_write_phases = st.lists(
    st.one_of(
        _write_each_ops(),
        _write_each_ops(procs=BAD_PROCS, addrs=BAD_ADDRS),
        st.builds(WriteOp, PROCS, ADDRS, VALUES),
    ),
    min_size=0,
    max_size=5,
)
each_read_phases = st.lists(
    st.one_of(
        _read_each_ops(),
        _read_each_ops(procs=BAD_PROCS, addrs=BAD_ADDRS),
        st.builds(ReadOp, PROCS, ADDRS),
    ),
    min_size=0,
    max_size=5,
)


class TestEachOpsMatchScalarLoops:
    """read_each / write_each == the scalar loops, on both engines."""

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    @pytest.mark.parametrize(
        "policy", [None, "first", "last", "seeded"],
        ids=["rng", "first", "last", "seeded"],
    )
    @given(writes=each_write_phases, reads=each_read_phases)
    @settings(max_examples=40, deadline=None)
    def test_bulk_equals_scalar_loop(self, engine, policy, writes, reads):
        # A write phase, a read phase, then both in one phase in either
        # order (read/write conflicts from both sides).
        phases = [writes, reads, writes + reads, reads + writes]

        def run(program):
            machine = QSM(
                num_processors=4, memory_size=16, seed=3, winner_policy=policy,
                record_trace=True, record_costs=True, engine=engine,
            )
            machine.load(list(range(16)))
            outcome = []
            for phase in program:
                try:
                    outcome.append(_flat_values(run_phase(machine, phase)))
                except (MemoryConflictError, TypeError, ValueError) as exc:
                    outcome.append((type(exc), str(exc)))
            return machine, outcome

        bulk, got = run(phases)
        loop, want = run([_scalar_loop(phase) for phase in phases])
        assert got == want
        _assert_machines_equal(bulk, loop)
        assert key_orders(bulk) == key_orders(loop)

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_mismatched_columns_rejected(self, engine):
        machine = QSM(engine=engine)
        with machine.phase() as ph:
            with pytest.raises(ValueError, match="equal length"):
                ph.read_each([0, 1], [3])
            with pytest.raises(ValueError, match="equal length"):
                ph.write_each([0], [3], [1, 2])


class TestPRAMBitEquality:
    @given(
        addrs=st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
        value=VALUES,
    )
    @settings(max_examples=25, deadline=None)
    def test_crcw_step_identical(self, addrs, value):
        def make(eng):
            return PRAM(
                PRAMParams(variant="CRCW", write_rule="arbitrary"),
                seed=3,
                engine=eng,
            )

        prog = [WriteOp(i, a, value + i) for i, a in enumerate(addrs)]
        ref, vec = make("reference"), make("vector")
        run_phase(ref, prog)
        run_phase(vec, prog)
        assert ref.history == vec.history
        assert ref._memory == vec._memory


class TestBSPBitEquality:
    send_programs = st.lists(
        st.one_of(
            st.builds(SendOp, st.integers(0, 3), st.integers(0, 3), VALUES),
            st.builds(
                lambda src, dsts, seed: SendBlockOp(
                    src, dsts, [seed + i for i in range(len(dsts))]
                ),
                st.integers(0, 3),
                st.lists(st.integers(0, 3), min_size=0, max_size=6),
                VALUES,
            ),
            st.builds(WorkOp, st.integers(0, 3), st.integers(0, 4)),
        ),
        min_size=0,
        max_size=8,
    )

    @given(program=send_programs)
    @settings(max_examples=60, deadline=None)
    def test_superstep_streams_identical(self, program):
        def make(eng):
            return BSP(4, BSPParams(g=2, L=2), record_costs=True, engine=eng)

        ref, vec = make("reference"), make("vector")
        for machine in (ref, vec):
            run_superstep(machine, program)
            run_superstep(machine, program[::-1])
        assert ref.history == vec.history
        assert ref.step_costs == vec.step_costs
        assert all(ref.inbox(i) == vec.inbox(i) for i in range(4))
        assert _sans_wall(ref.cost_records) == _sans_wall(vec.cost_records)

    @given(program=send_programs, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_fault_plans_route_identically(self, program, seed):
        def run(eng):
            plan = random_fault_plan("bsp", seed=seed, max_faults=2, procs=4)
            machine = BSP(4, BSPParams(g=2, L=2), fault_plan=plan, engine=eng)
            for _ in range(3):
                run_superstep(machine, program)
            return machine

        ref, vec = run("reference"), run("vector")
        assert ref.history == vec.history
        assert ref.step_costs == vec.step_costs
        assert all(ref.inbox(i) == vec.inbox(i) for i in range(4))
        assert [e.to_dict() for e in ref.fault_events] == [
            e.to_dict() for e in vec.fault_events
        ]


class TestMPCBitEquality:
    # MPC is a BSP subclass with a different round charge, so the same
    # randomized send programs exercise its commit path; records, round
    # costs and inboxes must match across engines bit-for-bit.
    send_programs = TestBSPBitEquality.send_programs

    @given(program=send_programs)
    @settings(max_examples=60, deadline=None)
    def test_round_streams_identical(self, program):
        def make(eng):
            return MPC(4, MPCParams(s=3), record_costs=True, engine=eng)

        ref, vec = make("reference"), make("vector")
        for machine in (ref, vec):
            run_superstep(machine, program)
            run_superstep(machine, program[::-1])
        assert ref.history == vec.history
        assert ref.step_costs == vec.step_costs
        assert ref.rounds == vec.rounds
        assert ref.max_message_volume == vec.max_message_volume
        assert all(ref.inbox(i) == vec.inbox(i) for i in range(4))
        assert _sans_wall(ref.cost_records) == _sans_wall(vec.cost_records)

    @given(program=send_programs, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_fault_plans_route_identically(self, program, seed):
        def run(eng):
            plan = random_fault_plan("bsp", seed=seed, max_faults=2, procs=4)
            machine = MPC(4, MPCParams(s=3), fault_plan=plan, engine=eng)
            for _ in range(3):
                run_superstep(machine, program)
            return machine

        ref, vec = run("reference"), run("vector")
        assert ref.history == vec.history
        assert ref.step_costs == vec.step_costs
        assert all(ref.inbox(i) == vec.inbox(i) for i in range(4))
        assert [e.to_dict() for e in ref.fault_events] == [
            e.to_dict() for e in vec.fault_events
        ]
