"""The fuzz generator: verifier-clean, deterministic, parameterised, halting."""

from __future__ import annotations

import pytest

from repro.analysis.verifier import verify_program
from repro.sim.functional import run_program
from repro.testing import GeneratorConfig, generate_case

SEEDS = range(40)


def test_generated_programs_are_verifier_clean():
    """Every generated program passes the whole rule catalog with zero diagnostics."""
    for seed in SEEDS:
        case = generate_case(seed)
        diagnostics = verify_program(case.program)
        assert not diagnostics, f"seed {seed}: {[d.render() for d in diagnostics]}"


def test_generated_programs_halt_within_budget():
    for seed in SEEDS:
        case = generate_case(seed)
        result = run_program(case.program, memory=case.memory(), max_instructions=50_000)
        assert result.halted, f"seed {seed} did not halt"
        assert result.instructions >= len(case.program) // 2


def test_generation_is_deterministic():
    for seed in (0, 7, 123):
        a = generate_case(seed)
        b = generate_case(seed)
        assert a.program.render() == b.program.render()
        assert a.memory_words == b.memory_words
        assert a.memory() == b.memory()


def test_distinct_seeds_differ():
    renders = {generate_case(seed).program.render() for seed in range(10)}
    assert len(renders) > 1


def test_load_density_parameter_changes_load_mix():
    dense = GeneratorConfig(load_density=0.9, store_density=0.05)
    sparse = GeneratorConfig(load_density=0.0, store_density=0.05)

    def loads(config):
        return sum(
            sum(1 for inst in generate_case(seed, config).program if inst.is_load)
            for seed in range(5)
        )

    assert loads(dense) > loads(sparse)


def test_loop_depth_parameter_bounds_backward_branches():
    flat = GeneratorConfig(loop_depth=0, branch_mix=0.0)
    for seed in range(5):
        program = generate_case(seed, flat).program
        backward = [
            inst for inst in program
            if inst.target is not None and program.labels[inst.target] <= inst.pc
        ]
        assert not backward, f"seed {seed}: loop_depth=0 emitted a backward branch"


def test_register_pressure_bounds_working_set():
    tight = GeneratorConfig(register_pressure=3)
    for seed in range(5):
        program = generate_case(seed, tight).program
        int_regs = {
            reg.index
            for inst in program
            for reg in (inst.dst, inst.src1, inst.src2)
            if reg is not None and reg.is_int and not reg.is_zero
        }
        # working regs R1..R3 plus the reserved loop counters
        assert int_regs <= {1, 2, 3, 9, 10, 11}, f"seed {seed}: {int_regs}"


def test_config_validated_clamps_nonsense():
    config = GeneratorConfig(segments=-4, load_density=7.0, register_pressure=0).validated()
    assert config.segments >= 1
    assert 0.0 <= config.load_density <= 1.0
    assert config.register_pressure >= 1


def test_with_program_preserves_seed_and_memory():
    case = generate_case(3)
    clone = case.with_program(case.program)
    assert clone.seed == case.seed
    assert clone.memory_words == case.memory_words
