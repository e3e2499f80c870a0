"""A seeded mutation fuzz of the five scenario defaults through ``validate`` and ``run``.

Each case starts from a scenario default at ``t_end`` 0.02 and changes one
to three of its fields: a field is replaced by one of ``_VALUES`` or
deleted, or one entry of a list field (at any depth) is replaced.  The
values are wrong types, 0, -1, an integer written as a float (4.0),
1e308, 5e-324, 2^63, empty and nested lists and None.  ``t_end`` is
never deleted, since its scenario default would make an accepted run
long; every other mutation leaves an accepted run at most a few dozen
steps.  Two fixed cases were found by an earlier, larger run of
this fuzz: a burgers config of about 10^14 float-steps and an m2row rk45
config whose trial steps fail error control for ever.  A third, a burgers
stencil of 4.0, passed the config checks and raised TypeError in the
kernel.  Each must end within a second.

Every case must exit 0, 2 or 3, print nothing on stderr but the
documented ``config error:``, ``warning:`` and ``numerical blowup:``
lines, raise no Python warning and print no traceback; ``validate`` and
``run`` refuse the same configs.
"""

import json
import random
import time
import warnings

from ncgflow import cli
from ncgflow.cli import main

SEED = 1811
CASES = 200
T_END = 0.02
_MISSING = object()
_VALUES = ("text", True, {"re": 1.0}, 0, -1.0, 4.0, 1e308, -1e308, 5e-324, 2**63, -(2**63), [], [[]], [[1.0, [2.0]]],
           None, _MISSING)
_COMMON = {"scenario", "t_end", "step", "stride", "method"}
_STDERR_PREFIXES = ("config error:", "warning:", "numerical blowup:")
_FIXED = (
    {"scenario": "classical-burgers", "n_grid": cli.MAX_GRID, "t_end": 1e5, "step": 1e-3, "stride": 10**8},
    {"scenario": "m2row", "q1": 2**63, "q2": -1.0, "method": "rk45", "t_end": 0.02, "stride": 1},
    {"scenario": "classical-burgers", "stencil": 4.0, "t_end": 0.02},
)


def _jsonable(value):
    """A default's value as JSON: complex numbers become ``[re, im]`` pairs."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _replace_entry(value: list, rng: random.Random, new) -> list:
    """A copy of the list ``value`` with one entry, at a random depth, replaced by ``new``."""
    out = list(value)
    i = rng.randrange(len(out))
    out[i] = _replace_entry(out[i], rng, new) if isinstance(out[i], list) and out[i] and rng.random() < 0.5 else new
    return out


def _mutate(raw: dict, rng: random.Random) -> dict:
    """Change one to three fields; three in four pick a field of the scenario's own, not of the stepping."""
    raw = dict(raw)
    for _ in range(rng.randint(1, 3)):
        own = sorted(set(raw) - _COMMON)
        key = rng.choice(own if own and rng.random() < 0.75 else sorted(raw))
        new = rng.choice([v for v in _VALUES if not (key == "t_end" and v is _MISSING)])
        if isinstance(raw.get(key), list) and raw[key] and new is not _MISSING and rng.random() < 0.5:
            raw[key] = _replace_entry(raw[key], rng, new)
        elif new is _MISSING:
            del raw[key]
        else:
            raw[key] = new
    return raw


def _cases() -> list:
    rng = random.Random(SEED)
    defaults = [{**{key: _jsonable(v) for key, v in spec.default().items()}, "t_end": T_END}
                for spec in cli._SCENARIOS.values()]
    return list(_FIXED) + [_mutate(rng.choice(defaults), rng) for _ in range(CASES - len(_FIXED))]


def _call(argv, capsys) -> tuple:
    """main(argv)'s exit code and stderr, and the faults seen: Python warnings and undocumented output."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    faults = [f"warning {w.category.__name__}: {w.message}" for w in caught]
    faults += [f"stderr line {line!r}" for line in err.splitlines() if not line.startswith(_STDERR_PREFIXES)]
    faults += ["traceback"] if "Traceback" in out + err else []
    faults += [f"exit {code}"] if code not in (0, 2, 3) else []
    return code, seconds, faults


def test_mutated_scenario_defaults_end_in_a_documented_exit(tmp_path, capsys):
    cases = _cases()
    assert len(cases) == CASES
    failures, codes = [], []
    for i, raw in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(raw))
        checked, _, faults = _call(["validate", "--config", str(path)], capsys)
        ran, seconds, run_faults = _call(["run", "--config", str(path), "--out", str(tmp_path / f"out{i}")], capsys)
        faults += run_faults
        if (checked == 2) != (ran == 2):
            faults.append(f"validate exit {checked} but run exit {ran}")
        if i < len(_FIXED) and seconds >= 1.0:
            faults.append(f"fixed case ran {seconds:.2f} s")
        if faults:
            failures.append((raw, faults))
        codes.append(ran)
    assert not failures, failures[:5]
    assert codes[: len(_FIXED)] == [2, 3, 2]  # the work bound, the rk45 attempt budget and the float stencil
    assert {0, 2, 3} <= set(codes)  # the mutations reach every documented exit
