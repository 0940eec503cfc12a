"""Stream preparation tests: the base stream's dependences, and prediction
correctness read through a predictor's overlay."""

from repro.isa import R, assemble
from repro.profiling import DeadHint, ProfileLists
from repro.sim import Memory, run_program
from repro.uarch import PredictionOverlay, prepare_stream
from repro.vp import DynamicRVP, LastValuePredictor, NoPredictor


def trace_of(text, memory=None):
    return run_program(assemble(text), memory=memory, max_instructions=5000, collect_trace=True).trace


def test_register_dependences_point_to_last_writer():
    trace = trace_of("li r1, #1\nli r2, #2\nadd r3, r1, r2\nli r1, #9\nadd r4, r1, #0\nhalt")
    stream = prepare_stream(trace)
    assert stream[2].src_deps == (0, 1)
    assert stream[4].src_deps == (3,)  # redefined r1
    assert stream[0].src_deps == ()


def test_store_load_dependence():
    trace = trace_of("li r1, #5\nst r1, 0x40(r31)\nld r2, 0x40(r31)\nld r3, 0x80(r31)\nhalt")
    stream = prepare_stream(trace)
    assert stream[2].store_dep == 1  # load after store to same address
    assert stream[3].store_dep is None


def test_dst_old_writer_tracked():
    trace = trace_of("li r1, #1\nli r1, #2\nhalt")
    stream = prepare_stream(trace)
    assert stream[0].dst_old_writer is None
    assert stream[1].dst_old_writer == 0


def test_same_register_prediction_correctness():
    memory = Memory()
    memory.store(0x100, 7)
    trace = trace_of(
        "li r2, #3\nloop: ld r1, 0x100(r31)\nsub r2, r2, #1\nbne r2, loop\nhalt",
        memory,
    )
    stream = prepare_stream(trace)
    overlay = PredictionOverlay(stream, DynamicRVP())
    loads = [e for e in stream if e.record.is_load]
    assert overlay.facts(loads[0])[1] is False  # r1 held 0 before
    assert all(overlay.facts(e)[1] for e in loads[1:])  # constant reloads
    assert overlay.facts(loads[1])[0] == loads[0].seq


def test_reg_hint_correctness_uses_other_register():
    lists = ProfileLists(threshold=0.8)
    memory = Memory()
    memory.store(0x100, 55)
    text = "li r4, #55\nld r3, 0x100(r31)\nhalt"
    trace = trace_of(text, memory)
    lists.dead[1] = DeadHint(reg=R[4], producer_pc=0)
    stream = prepare_stream(trace)
    overlay = PredictionOverlay(stream, DynamicRVP(lists=lists, use_dead=True))
    value_dep, correct = overlay.facts(stream[1])
    assert correct is True  # r4 already held 55
    assert value_dep == 0  # produced by the li


def test_stored_prediction_uses_previous_instance():
    memory = Memory()
    memory.store(0x100, 7)
    lists = ProfileLists(threshold=0.8)
    lists.last_value.add(1)
    text = "li r2, #3\nloop: ld r1, 0x100(r31)\nadd r1, r1, #1\nsub r2, r2, #1\nbne r2, loop\nhalt"
    trace = trace_of(text, memory)
    stream = prepare_stream(trace)
    overlay = PredictionOverlay(stream, DynamicRVP(lists=lists, use_lv=True))
    loads = [e for e in stream if e.record.is_load]
    assert overlay.facts(loads[0]) == (None, False)
    assert overlay.facts(loads[1]) == (loads[0].seq, True)


def test_fu_and_iq_classification():
    trace = trace_of("li r1, #1\nfli f1, #1\nfadd f2, f1, f1\nld r2, 0x40(r31)\nfld f3, 0x40(r31)\nst r1, 0(r31)\nhalt")
    stream = prepare_stream(trace)
    kinds = [(e.fu, e.iq) for e in stream]
    assert kinds[0] == ("int", "int")
    assert kinds[2] == ("fp", "fp")
    assert kinds[3] == ("ldst", "int")
    assert kinds[4] == ("ldst", "fp")
    assert kinds[5] == ("ldst", "int")


def test_no_candidates_for_no_predictor():
    trace = trace_of("li r1, #1\nhalt")
    overlay = PredictionOverlay(prepare_stream(trace), NoPredictor())
    assert overlay.kind == [None, None]
