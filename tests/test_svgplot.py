"""``svgplot.line_chart`` against the per-point writer it replaced, byte for byte, and its layout as literal text."""

import re

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
    _same_bytes(tmp_path, series, equal_aspect=True)


def test_line_chart_raises_before_writing(tmp_path):
    for series in ([], [("a", [float("nan")], [1.0])]):
        assert _same_bytes(tmp_path, series) == "ValueError('no finite data to plot')"
    # both ranges subnormal: the equal-aspect scale underflows to 0
    tiny = [("a", [0.0, 5e-324], [0.0, 5e-324])]
    assert _same_bytes(tmp_path, tiny, equal_aspect=True) == "ZeroDivisionError('float division by zero')"


def test_the_chart_frame_and_axes_sit_at_literal_coordinates(tmp_path):
    """The 640 x 420 canvas, its plot frame (margins 64, 14, 30, 44) and the grid lines on the frame, as text.

    ``oracles.line_chart_oracle`` reads the margins from ``svgplot``, so only literals pin them.
    """
    line_chart(tmp_path / "a.svg", [("a", [0.0, 1.0], [0.0, 1.0])])
    lines = (tmp_path / "a.svg").read_text().splitlines()
    assert lines[:4] == [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420" viewBox="0 0 640 420">',
        '<rect x="0" y="0" width="640" height="420" fill="white"/>',
        '<rect x="64" y="30" width="562" height="346" fill="none" stroke="#444444" stroke-width="1"/>',
        '<line x1="64.00" y1="30" x2="64.00" y2="376" stroke="#dddddd" stroke-width="1"/>',  # the y axis
    ]
    assert '<line x1="64" y1="376.00" x2="626" y2="376.00" stroke="#dddddd" stroke-width="1"/>' in lines  # the x axis
    assert '<line x1="626.00" y1="30" x2="626.00" y2="376" stroke="#dddddd" stroke-width="1"/>' in lines
    assert '<line x1="64" y1="30.00" x2="626" y2="30.00" stroke="#dddddd" stroke-width="1"/>' in lines


@pytest.mark.parametrize("series, entries, note", [(27, 27, None), (28, 26, "+ 2 more series"),
                                                   (4096, 26, "+ 4070 more series")])
def test_the_legend_lists_the_series_that_fit_on_the_canvas_and_counts_the_rest(tmp_path, series, entries, note):
    t = np.array([0.0, 1.0])
    line_chart(tmp_path / "a.svg", [(f"site {i}", t, t * i) for i in range(series)])
    text = (tmp_path / "a.svg").read_text()
    assert text.count("<polyline ") == series
    labels = re.findall(r'<text x="498" y="(\d+)" font-size="11" fill="#222222">([^<]*)</text>', text)
    assert [label for _, label in labels] == [f"site {i}" for i in range(entries)] + ([note] if note else [])
    assert max(int(y) for y, _ in labels) <= 420 and len(re.findall('stroke-width="2"/>', text)) == entries
