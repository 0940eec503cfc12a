"""TraceRecord field and helper tests."""

from repro.isa import R, assemble
from repro.sim import run_program


def records_of(text, memory=None):
    return run_program(assemble(text), memory=memory, max_instructions=1000, collect_trace=True).trace


def test_sequence_numbers_monotonic():
    trace = records_of("li r1, #1\nadd r1, r1, #1\nhalt")
    assert [r.seq for r in trace] == [0, 1, 2]


def test_op_name_and_dst():
    trace = records_of("li r1, #1\nst r1, 0(r31)\nhalt")
    assert trace[0].op_name == "li" and trace[0].dst == R[1]
    assert trace[1].op_name == "st" and trace[1].dst is None


def test_branch_taken_fields():
    trace = records_of("li r1, #0\nbeq r1, done\nli r2, #5\ndone: halt")
    branch = trace[1]
    assert branch.taken is True and branch.next_pc == 3
    assert trace[0].taken is None


def test_register_value_reused_flag():
    trace = records_of("li r1, #4\nli r1, #4\nli r1, #5\nhalt")
    assert not trace[0].register_value_reused  # 0 -> 4
    assert trace[1].register_value_reused
    assert not trace[2].register_value_reused


def test_src_values_captured():
    trace = records_of("li r1, #3\nli r2, #4\nadd r3, r1, r2\nhalt")
    assert trace[2].src_values == (3, 4)


def test_records_are_immutable():
    import dataclasses
    import pytest

    trace = records_of("halt")
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace[0].pc = 99


def test_both_engines_build_equal_immutable_records():
    import dataclasses

    import pytest

    from repro.sim import FunctionalSimulator, Memory, TraceRecord

    text = "li r1, #16\nst r1, 8(r1)\nld r2, 8(r1)\nadd r3, r2, #1\nbne r3, done\nnop\ndone: halt"
    decoded = records_of(text, memory=Memory())
    reference = list(FunctionalSimulator(assemble(text), memory=Memory(), engine="reference").iter_run())
    assert decoded == reference and len(decoded) == 6
    for record in decoded + reference:
        assert type(record) is TraceRecord
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.result = 0
    assert reference[2]._replace(result=7) != decoded[2]
