"""The bulk-op pattern-method parity against its scalar-loop oracle.

``parity_blocks`` (QSM) and ``parity_crcw`` (CRCW PRAM) share
:func:`repro.algorithms.parity.pattern_level`, which issues whole groups of
processors through ``Phase.read_each`` / ``Phase.write_each``.  The scalar
oracles in ``tests/algorithms/scalar_parity.py`` issue one request per
call; both must leave identical observables: answers, phase records,
costs, time, memory, traces, winner draws and fault outcomes.
"""

import pytest

from repro.algorithms.parity import parity_blocks
from repro.algorithms.pram_algos import parity_crcw
from repro.core import PRAM, QSM, PRAMParams, QSMParams
from repro.faults.plan import Fault, FaultPlan, random_fault_plan
from repro.problems import gen_bits, verify_parity
from tests.algorithms.scalar_parity import parity_blocks_scalar, parity_crcw_scalar
from tests.records import key_orders

MODELS = {
    "qsm": (lambda **kw: QSM(QSMParams(g=8), **kw), parity_blocks, parity_blocks_scalar),
    "qsm-cr": (
        lambda **kw: QSM(QSMParams(g=8, unit_time_concurrent_reads=True), **kw),
        parity_blocks,
        parity_blocks_scalar,
    ),
    "crcw": (
        lambda **kw: PRAM(PRAMParams("CRCW", "arbitrary"), **kw),
        parity_crcw,
        parity_crcw_scalar,
    ),
}


def _run(model, algo_index, bits, block_size, plan=None, **machine_kw):
    make = MODELS[model][0]
    algo = MODELS[model][algo_index]
    # Fault plans are spent as they fire: each machine gets a fresh one.
    machine = make(fault_plan=plan and plan(), **machine_kw)
    try:
        outcome = ("ok", algo(machine, bits, block_size=block_size).value)
    except Exception as exc:  # the oracle's error must be reproduced too
        outcome = ("raised", type(exc), str(exc))
    return machine, outcome


def _assert_same(model, bits, block_size, plan=None, **machine_kw):
    ported, got = _run(model, 1, bits, block_size, plan, **machine_kw)
    oracle, want = _run(model, 2, bits, block_size, plan, **machine_kw)
    assert got == want
    assert ported.history == oracle.history
    assert key_orders(ported) == key_orders(oracle)  # issue order too
    assert ported.phase_costs == oracle.phase_costs
    assert ported.time == oracle.time
    assert ported._memory == oracle._memory
    assert ported.traces == oracle.traces
    assert [e.to_dict() for e in ported.fault_events] == [
        e.to_dict() for e in oracle.fault_events
    ]
    return got


def _cases():
    for model in MODELS:
        for n in (2, 3, 255, 256, 1024):
            for block_size in (None, 2, 3, 5):
                # The default CRCW width at n=1024 is 10 bits: 5M scalar
                # oracle requests, too slow for tier-1.
                if not (model == "crcw" and n == 1024 and block_size is None):
                    yield model, n, block_size


class TestParityMatchesScalarOracle:
    @pytest.mark.parametrize("model,n,block_size", list(_cases()))
    def test_identical_observables(self, model, n, block_size):
        bits = gen_bits(n, seed=n)
        got = _assert_same(model, bits, block_size, seed=n)
        assert got[0] == "ok" and verify_parity(bits, got[1])

    @pytest.mark.parametrize("policy", ["first", "last", "seeded"])
    @pytest.mark.parametrize("model", list(MODELS))
    @pytest.mark.parametrize("n,block_size", [(3, None), (255, None), (256, 3)])
    def test_winner_policies(self, model, policy, n, block_size):
        bits = gen_bits(n, seed=n + 1)
        got = _assert_same(model, bits, block_size, seed=5, winner_policy=policy)
        assert got[0] == "ok" and verify_parity(bits, got[1])

    @pytest.mark.parametrize("model", list(MODELS))
    @pytest.mark.parametrize("n", [3, 64, 256])
    def test_traces(self, model, n):
        bits = gen_bits(n, seed=3)
        _assert_same(model, bits, None, seed=1, record_trace=True)

    @pytest.mark.parametrize("model", list(MODELS))
    @pytest.mark.parametrize("seed", range(12))
    def test_random_corruptions(self, model, seed):
        # Corrupted bit and flag cells change who flags and who writes the
        # block parity (sometimes several writers, sometimes none); the
        # port must make the same decisions, in the same order.
        bits = gen_bits(64, seed=seed)
        _assert_same(
            model, bits, 3, seed=seed,
            plan=lambda: random_fault_plan("shared", seed=seed, max_faults=3,
                                           horizon=4, addr_range=(0, 200)),
        )

    @pytest.mark.parametrize("model", list(MODELS))
    def test_non_bit_and_cleared_flag_cells(self, model):
        # Level 2 reads a first-level parity cell (17) that holds 2: it
        # mismatches every pattern, its block gets no parity, and level 3
        # raises on the empty cell.  Flag cells (from 22 on) cleared after
        # phase 1 make their patterns look clean beside the real one.
        bits = gen_bits(16, seed=2)
        for cells in ([(3, 17, 2)], [(1, 24, None)], [(1, 47, None), (1, 51, None)]):
            _assert_same(model, bits, 3, seed=4, plan=lambda: FaultPlan(
                Fault("corrupt", step, addr=addr, value=value)
                for step, addr, value in cells
            ))

    def test_vector_engine_matches_reference_oracle(self):
        pytest.importorskip("numpy")
        for model in MODELS:
            bits = gen_bits(255, seed=9)
            ported, got = _run(model, 1, bits, 4, seed=2, engine="vector",
                               record_costs=True)
            oracle, want = _run(model, 2, bits, 4, seed=2, record_costs=True)
            assert got == want
            assert ported.history == oracle.history
            assert ported.phase_costs == oracle.phase_costs
            assert ported._memory == oracle._memory
