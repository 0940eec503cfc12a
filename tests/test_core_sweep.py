"""Parameter-sweep utility tests."""

from dataclasses import replace

from repro.core import render_sweep, speedup_series, sweep_machine
from repro.uarch import table1_config


def test_sweep_machine_iq_sizes():
    rows = sweep_machine(
        "iq",
        [16, 32],
        lambda iq: replace(table1_config(), iq_int=iq, iq_fp=iq),
        workloads=("go",),
        configs=("no_predict",),
        max_instructions=6_000,
    )
    assert (16, "go", "no_predict") in rows and (32, "go", "no_predict") in rows
    # A larger instruction queue never slows the baseline down.
    assert rows[(32, "go", "no_predict")] >= rows[(16, "go", "no_predict")] - 1e-9


def test_speedup_series():
    rows = {
        (1, "go", "no_predict"): 1.0,
        (1, "go", "drvp_all"): 1.1,
        (2, "go", "no_predict"): 1.0,
        (2, "go", "drvp_all"): 1.3,
    }
    series = speedup_series(rows, "go", "drvp_all")
    assert series == {1: 1.1, 2: 1.3}


def test_render_sweep():
    rows = {
        (16, "go", "no_predict"): 1.234,
        (32, "go", "no_predict"): 1.456,
    }
    text = render_sweep(rows, "IQ sweep")
    assert "IQ sweep" in text and "1.234" in text and "1.456" in text
    assert "go/no_predict" in text


def test_speedup_series_numeric_point_order():
    """Points must come back in numeric order, not string order (where
    '16' < '64' < '8' would scramble the series)."""
    rows = {}
    for point in (64, 8, 16):
        rows[(point, "go", "no_predict")] = 1.0
        rows[(point, "go", "drvp_all")] = 1.0 + point / 100.0
    series = speedup_series(rows, "go", "drvp_all")
    assert list(series) == [8, 16, 64]


def test_render_sweep_numeric_column_order():
    rows = {(p, "go", "no_predict"): float(p) for p in (64, 8, 16)}
    header = render_sweep(rows).splitlines()[0]
    assert header.index(" 8") < header.index("16") < header.index("64")


def test_render_sweep_mixed_points_fall_back_to_str_order():
    rows = {
        ("small", "go", "no_predict"): 1.0,
        (8, "go", "no_predict"): 2.0,
    }
    header = render_sweep(rows).splitlines()[0]
    assert "8" in header and "small" in header  # renders without a TypeError


def test_speedup_series_float_points():
    rows = {}
    for point in (0.9, 0.5, 0.75):
        rows[(point, "li", "no_predict")] = 1.0
        rows[(point, "li", "lvp_all")] = 1.0 + point
    assert list(speedup_series(rows, "li", "lvp_all")) == [0.5, 0.75, 0.9]
