"""Interference-graph tests."""

from repro.isa import assemble
from repro.compiler import build_interference, build_webs, interferes


def analysis_of(text):
    program = assemble(text)
    proc = program.procedures[0]
    webs = build_webs(program, proc)
    return webs, build_interference(webs.webs)


def test_overlapping_webs_interfere():
    webs, adj = analysis_of(
        """
        li r1, #1
        li r2, #2
        add r3, r1, r2
        halt
        """
    )
    a = webs.web_of_def(0).index
    b = webs.web_of_def(1).index
    assert interferes(adj, a, b) and interferes(adj, b, a)


def test_sequential_webs_do_not_interfere():
    webs, adj = analysis_of(
        """
        li r1, #1
        add r2, r1, #1
        li r3, #2
        add r4, r3, #1
        halt
        """
    )
    # r1's web dies at pc1 before r3's web is born at pc2.
    a = webs.web_of_def(0).index
    b = webs.web_of_def(2).index
    assert not interferes(adj, a, b)


def test_int_and_fp_never_interfere():
    webs, adj = analysis_of(
        """
        li r1, #1
        fli f1, #2
        add r2, r1, #1
        fadd f2, f1, f1
        halt
        """
    )
    a = webs.web_of_def(0).index
    b = webs.web_of_def(1).index
    assert not interferes(adj, a, b)
