"""Register file specification tests."""

import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    ALLOCATABLE_INT,
    F,
    NUM_FP_REGS,
    NUM_INT_REGS,
    R,
    RETURN_ADDRESS,
    STACK_POINTER,
    ZERO,
    Reg,
    is_volatile,
    parse_reg,
)
from repro.isa.registers import ALLOCATABLE_FP, CALLEE_SAVED_INT, FZERO


def test_bank_sizes():
    assert len(R) == NUM_INT_REGS == 32
    assert len(F) == NUM_FP_REGS == 32


def test_value_semantics():
    assert R[4] == Reg("int", 4)
    assert R[4] is not Reg("int", 4)  # equality, not identity
    assert hash(R[4]) == hash(Reg("int", 4))
    assert R[4] != F[4]


def test_zero_registers():
    assert ZERO.is_zero and FZERO.is_zero
    assert not R[0].is_zero
    assert ZERO.name == "r31" and FZERO.name == "f31"


def test_kind_predicates():
    assert R[3].is_int and not R[3].is_fp
    assert F[3].is_fp and not F[3].is_int


def test_special_registers():
    assert RETURN_ADDRESS == R[26]
    assert STACK_POINTER == R[30]


def test_allocatable_excludes_specials():
    assert ZERO not in ALLOCATABLE_INT
    assert RETURN_ADDRESS not in ALLOCATABLE_INT
    assert STACK_POINTER not in ALLOCATABLE_INT
    assert FZERO not in ALLOCATABLE_FP
    assert len(ALLOCATABLE_INT) == 27
    assert len(ALLOCATABLE_FP) == 31


def test_volatility():
    assert is_volatile(R[1])
    assert not is_volatile(R[9])  # callee-saved
    assert not is_volatile(ZERO)
    assert all(not is_volatile(r) for r in CALLEE_SAVED_INT)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        Reg("int", 32)
    with pytest.raises(ValueError):
        Reg("int", -1)
    with pytest.raises(ValueError):
        Reg("vector", 0)


@given(st.integers(min_value=0, max_value=31), st.sampled_from(["r", "f"]))
def test_parse_reg_roundtrip(index, prefix):
    reg = parse_reg(f"{prefix}{index}")
    assert reg.index == index
    assert reg.name == f"{prefix}{index}"


@pytest.mark.parametrize("bad", ["x3", "r", "r32", "f99", "", "3r", "rf2"])
def test_parse_reg_rejects(bad):
    with pytest.raises(ValueError):
        parse_reg(bad)


def test_registers_are_validated_immutable_value_tuples():
    for kind, bank in (("int", R), ("fp", F)):
        for reg in bank:
            twin = Reg(kind, reg.index)
            assert type(twin) is Reg and twin == reg and hash(twin) == hash(reg)
            assert (twin.kind, twin.index) == (kind, reg.index)
    with pytest.raises(AttributeError):
        R[4].index = 5
    with pytest.raises(AttributeError):
        R[4].alias = "a0"
    assert R[4] != F[4] and hash(R[4]) != hash(F[4])
    for clone in (pickle.loads(pickle.dumps(F[7])), copy.deepcopy(F[7])):
        assert type(clone) is Reg and clone == F[7] and repr(clone) == "f7"


def test_sorting_orders_by_kind_then_index():
    regs = list(R) + list(F)
    shuffled = random.Random(0).sample(regs, len(regs))
    assert sorted(shuffled) == sorted(regs, key=lambda reg: (reg.kind, reg.index))
    assert sorted(shuffled) == list(F) + list(R)  # "fp" < "int"
