"""``svgplot.line_chart`` against the per-point writer it replaced, byte for byte."""

import numpy as np
import pytest

from ncgflow import cli
from ncgflow.svgplot import line_chart
from oracles import line_chart_oracle


def _outcome(writer, path, series, kwargs):
    """The bytes written, or the exception raised, in which case no file may be left."""
    path.unlink(missing_ok=True)
    try:
        writer(path, series, **kwargs)
    except Exception as exc:
        assert not path.exists()
        return repr(exc)
    return path.read_bytes()


def _same_bytes(tmp_path, series, **kwargs):
    new = _outcome(line_chart, tmp_path / "new.svg", series, kwargs)
    assert new == _outcome(line_chart_oracle, tmp_path / "ref.svg", series, kwargs)
    return new


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_line_chart_matches_reference_on_the_scenario_defaults(tmp_path, scenario):
    cfg = cli.build_config(cli._SCENARIOS[scenario].default())
    plots = cli._SCENARIOS[scenario].run(cfg, tmp_path)[1]
    assert plots
    for name, kwargs in plots:
        _same_bytes(tmp_path, **kwargs)


def test_line_chart_matches_reference_on_many_short_series(tmp_path):
    rng = np.random.default_rng(4096)
    t = np.array([0.0, 1.0, 2.0])
    _same_bytes(tmp_path, [(f"site {i}", t, rng.normal(size=3)) for i in range(4096)], title="4096 sites")


def test_line_chart_matches_reference_on_non_finite_points(tmp_path):
    nan, inf = float("nan"), float("inf")
    series = [
        ("mixed", [0.0, 1.0, nan, 3.0, inf, 5.0], [1.0, -inf, 2.0, 0.5, 0.0, nan]),
        ("none finite", [nan, inf, 1.0], [0.0, 1.0, -inf]),
        ("empty", [], []),
        ("list", [0.5, 2.5], [-1.0, 4.0]),
        ("ragged", np.arange(5.0), np.arange(3.0)),  # cut to the shorter, as zip does
    ]
    _same_bytes(tmp_path, series, xlabel="x", ylabel="y")


@pytest.mark.parametrize("values", [[2.5, 2.5, 2.5], [0.0, -0.0, 5e-324], [-0.0, 0.0, -5e-324], [5e-324, 0.0]])
def test_line_chart_matches_reference_on_degenerate_ranges(tmp_path, values):
    assert isinstance(_same_bytes(tmp_path, [("a", values, values[::-1]), ("b", np.zeros(len(values)), values)]), bytes)
    _same_bytes(tmp_path, [("a", values, values)], equal_aspect=True)


def test_line_chart_matches_reference_with_equal_aspect(tmp_path):
    circle = np.linspace(0.0, 2.0 * np.pi, 257)
    path = np.column_stack([0.3 * np.cos(3 * circle[:40]), 0.1 * np.sin(circle[:40])])
    series = [("path", path[:, 0], path[:, 1]), ("circle", 0.5 * np.cos(circle), 0.5 * np.sin(circle))]
    _same_bytes(tmp_path, series, equal_aspect=True, width=500, height=300)


def test_line_chart_raises_before_writing(tmp_path):
    for series in ([], [("a", [float("nan")], [1.0])]):
        assert _same_bytes(tmp_path, series) == "ValueError('no finite data to plot')"
    # both ranges subnormal: the equal-aspect scale underflows to 0
    tiny = [("a", [0.0, 5e-324], [0.0, 5e-324])]
    assert _same_bytes(tmp_path, tiny, equal_aspect=True) == "ZeroDivisionError('float division by zero')"
