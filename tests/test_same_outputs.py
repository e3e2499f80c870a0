"""The tree comparator of ``tools/same_outputs.py``, which tells whether two checkouts write the same outputs."""

import importlib.util
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("_same_outputs", TOOL)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path) -> Path:
    for rel, data in {"run/out/trajectory.csv": b"t,x\n0,1\n", "run/out/fig.svg": b"<svg/>\n",
                      "run/stdout": b"samples: 2\n", "run/exit": b"0\n", "sweep/a/state.csv": b"t\n0\n"}.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


def test_identical_trees_have_no_differences(tool, tmp_path):
    assert tool.compare_trees(_tree(tmp_path / "this"), _tree(tmp_path / "other")) == []


def test_a_changed_byte_and_a_missing_file_are_both_reported(tool, tmp_path):
    this, other = _tree(tmp_path / "this"), _tree(tmp_path / "other")
    (other / "run/out/trajectory.csv").write_bytes(b"t,x\n0,2\n")
    (other / "sweep/a/state.csv").unlink()
    shutil.copy(this / "run/exit", other / "run/extra")
    assert tool.compare_trees(this, other) == [
        "only in this: sweep/a/state.csv",
        "only in other: run/extra",
        "differs: run/out/trajectory.csv",
    ]


def test_validate_runs_cover_the_scenario_defaults_presets_and_benchmark_configs(tool, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts this checkout's src first
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    runs = tool.invocations(tmp_path)
    assert len({name for name, _ in runs}) == len(runs)
    checks = [argv[1:] for _, argv in runs if argv[0] == "validate"]
    assert sorted(name for flag, name in checks if flag == "--preset") == ["paper-fig1", "paper-fig2"]
    configs = {Path(path): json.loads(Path(path).read_text()) for flag, path in checks if flag == "--config"}
    defaults = sorted(raw["scenario"] for raw in configs.values() if len(raw) == 1)
    assert defaults == sorted(["zn", "m2", "m2row", "classical-geodesic", "classical-burgers"])
    configured = {Path(argv[2]) for _, argv in runs if argv[:2] == ["run", "--config"]}
    benchmark = {path for path in configured if tmp_path in path.parents and path.parent.name != "edges"}
    assert len(benchmark) == 14 and benchmark <= set(configs)  # zn4096, zn64 and the 12 sweep configs
    edges = {path.stem: json.loads(path.read_text()) for path in configured if path.parent == tmp_path / "edges"}
    # the scalar-form, array-form, stencil, CSV-text, signed-zero, chart-exit, floor, large-n and overflow edges
    assert len(edges) == 30
    burgers = {name: raw for name, raw in edges.items() if raw["scenario"] == "classical-burgers"}
    # both stencils and both methods
    assert sorted((raw.get("stencil", 4), raw.get("method", "rk4")) for raw in burgers.values()) == [
        (2, "rk4"), (2, "rk4"), (2, "rk45"), (4, "rk4"), (4, "rk4"), (4, "rk4"), (4, "rk4"), (4, "rk45")]
    assert (burgers["burgers-exit3"]["amplitude"], burgers["burgers-exit3"]["step"]) == (1.0, 0.1)  # past the limit
    grid16 = burgers["burgers-grid16-stride1"]  # the smallest grid: both pad pairs read the grid ends
    assert (len(grid16["values"]), grid16["stencil"], grid16["method"], grid16["stride"]) == (16, 4, "rk4", 1)
    grid16 = burgers["burgers-grid16-stencil2-stride1"]  # the one pad on each side reads the grid ends
    assert (len(grid16["values"]), grid16["stencil"], grid16["method"], grid16["stride"]) == (16, 2, "rk4", 1)
    assert sorted(raw.get("n") for raw in edges.values() if raw["scenario"] == "zn") == [2, 3, 17, 18, 18, 18, 18,
                                                                                       19, 2048, 2048, 2048, 2049,
                                                                                       4096]
    for name in ("zn18-huge-step-exit3", "burgers-huge-step-exit3"):  # array-form runs whose steps overflow a stage
        assert (edges[name]["step"], edges[name]["stride"], edges[name].get("method", "rk4")) == (1e20, 1, "rk4")
    tiny = edges["zn3-signed-zeros-subnormal-phi"]  # -0, exact zeros, 3-digit exponents and a subnormal phi
    assert tiny["k_plus"][1] == [0.0, 0.0] and math.copysign(1.0, tiny["k_plus"][1][0]) == -1.0
    assert max(abs(part) for entry in tiny["m"] for part in entry) < 1e-159
    for name, scenario, method in [("m2-signed-zeros-rk4", "m2", "rk4"), ("m2-signed-zeros-rk45", "m2", "rk45"),
                                   ("m2row-signed-zeros-rk4", "m2row", "rk4")]:  # real entries with parts -0.0 and 0.0
        raw = edges[name]
        parts = [part for key in ("k1", "k2", "m", "lam", "mu", "q0", "q1", "q2") if key in raw
                 for part in np.ravel(raw[key])]
        assert (raw["scenario"], raw.get("method", "rk4")) == (scenario, method)
        assert {math.copysign(1.0, part) for part in parts if part == 0.0} == {1.0, -1.0}
    pole = edges["geodesic-pole-stage-exit3"]  # theta = 0.5 - t at step 1/16: a stage lands on the pole exactly
    assert (pole["x"], pole["v"], pole["t_end"], pole["step"]) == ([0.5, 0.0], [-1.0, 0.0], 1.0, 0.0625)
    near = edges["geodesic-near-pole-exit3"]  # the default step; the velocity passes 1e9 near the pole
    assert (near["x"], near["v"], near["t_end"], "step" in near) == ([0.01, 0.0], [-1.0, 0.5], 1.0, False)
    assert pole["scenario"] == near["scenario"] == "classical-geodesic" and "manifold" not in pole | near
    assert {edges["zn18-rk4"]["method"], edges["zn18-rk45"]["method"]} == {"rk4", "rk45"}
    assert (edges["zn19-rk4-stride1"]["method"], edges["zn19-rk4-stride1"]["stride"]) == ("rk4", 1)
    exit3 = edges["zn18-exit3"]  # not admissible: it blows up before t_end
    assert exit3["k_minus"] == exit3["k_plus"] and exit3["t_end"] == 10.0 and exit3["method"] == "rk4"
    big = edges["zn2048-exit3"]  # 2,048 sites x 2,000 steps on arrays; blows up
    assert big["k_minus"] == big["k_plus"] and (big["t_end"], big["step"], big["method"]) == (10.0, 1e-3, "rk4")
    upper = edges["zn2048-exit3-upper-half"]  # K_- = K_+ on sites 1,024 to 2,047 alone; blows up there
    assert upper["k_minus"][1024:] == big["k_plus"][1024:] and upper["k_minus"][:1024] != big["k_plus"][:1024]
    assert upper == {**big, "k_minus": upper["k_minus"]}  # t_end 10, like the edge that blows up on every site
    zeros = edges["zn2048-signed-zeros-subnormal-m"]  # special values at sites 1,021 to 1,026
    assert (zeros["t_end"], zeros["step"], zeros["method"]) == (2.0, 1e-3, "rk4")
    parts = [part for key in ("k_plus", "k_minus", "m") for pair in zeros[key][1020:1028] for part in pair]
    assert {math.copysign(1.0, part) for part in parts if part == 0.0} == {1.0, -1.0}
    assert 5e-324 in [abs(part) for pair in zeros["m"][1021:1024] + zeros["m"][1024:1027] for part in pair]
    assert zeros["k_plus"][:1021] == big["k_plus"][:1021]  # the rest is the generated data, kept admissible
    assert zeros["k_minus"][:1020] == [[-re, im] for re, im in big["k_plus"][1:1021]]
    odd = edges["zn2049"]  # odd n
    assert (odd["n"], len(odd["m"]), odd["t_end"], odd["step"], odd["method"]) == (2049, 2049, 2.0, 1e-3, "rk4")
    limit = edges["zn4096-classical-limit"]  # the data of the large-n oracle: 3,072 steps of 0.1
    assert (limit["n"], limit["step"], round(limit["t_end"] / limit["step"]), limit.get("method", "rk4")) == (
        4096, 0.1, 3072, "rk4")
    assert max(abs(abs(complex(*pair)) - 1.0) for pair in limit["k_plus"]) < 1e-15
    below = edges["m2-rk45-below-floor"]  # every grid step is shorter than rk45's step floor of 1e-13
    assert (below["scenario"], below["method"], below["stride"]) == ("m2", "rk45", 1)
    assert below["t_end"] / round(below["t_end"] / below["step"]) < 1e-13
    assert len(checks) == 2 + 5 + 14
    assert {argv[0] for _, argv in runs} == {"run", "sweep", "validate"}
