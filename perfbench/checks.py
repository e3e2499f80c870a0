"""Output checks behind ``failed`` and ``failed_frac``.

An op passes when its exit code is 0 and every output directory holds the
three CSVs with the expected row count, finite values and invariant
columns within the tier-1 tolerances.  The first output of a case is
parsed in full; every later output of the same case (a rerun, traced or
not) must be byte-identical to it, which also carries the value checks
over.  Files are streamed line by line so the checker adds little to the
peak RSS of the benchmark process.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

CSV_FILES = ("trajectory.csv", "invariants.csv", "state.csv")

# Tier-1 tolerances on invariants.csv columns: (column regex, max |value|).
TOLERANCES = {
    "zn": ((r"reality_\d+", 1e-6), (r"braiding_\d+", 1e-6), (r"phi_one_dev", 1e-6)),
    "m2": ((r"reality_fro", 1e-6), (r"braiding_fro", 1e-6), (r"phi_one_dev", 1e-6)),
    "m2row": ((r"norm_dev", 1e-8),),
    "classical-geodesic": ((r"speed_sq_dev", 1e-6),),
    "classical-burgers": (),
}


def _scan(path: Path, tolerances) -> tuple[str, int, list]:
    """Digest, data-row count and problems of one CSV, read one line at a time."""
    digest = hashlib.sha256()
    problems = []
    rows = 0
    with open(path, "rb") as fh:
        header_line = fh.readline()
        digest.update(header_line)
        header = header_line.decode("ascii").rstrip("\n").split(",")
        watched = []
        for pattern, tol in tolerances:
            cols = [i for i, name in enumerate(header) if re.fullmatch(pattern, name)]
            if not cols:
                problems.append(f"{path.name}: no column matching {pattern}")
            watched += [(i, tol) for i in cols]
        worst = {}
        for line in fh:
            digest.update(line)
            rows += 1
            values = np.array(line.split(b","), dtype=np.float64)
            if values.shape[0] != len(header):
                problems.append(f"{path.name} row {rows}: {values.shape[0]} values, header has {len(header)}")
                break
            if not np.isfinite(values).all():
                problems.append(f"{path.name} row {rows}: non-finite value")
                break
            for i, tol in watched:
                worst[i] = max(worst.get(i, 0.0), abs(values[i]))
        for i, tol in watched:
            if worst.get(i, 0.0) > tol:
                problems.append(f"{path.name}: max |{header[i]}| = {worst[i]:.3e} exceeds {tol:g}")
    return digest.hexdigest(), rows, problems


def _digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Checker:
    """Checks op outputs; remembers the first digest of every (config, file).

    A sweep output is keyed by its config stem, the same key as the single
    run of that config, so the two must agree byte for byte as well.
    """

    def __init__(self):
        self.reference: dict = {}

    def check(self, case, code: int, outdir: Path, text: str) -> list:
        """Problems with one op of ``case`` that wrote into ``outdir``; empty when it passed."""
        if code != 0:
            return [f"{case.name}: exit {code}: {text.strip()[-500:]}"]
        problems = []
        if case.argv[0] == "sweep":
            reported = re.findall(r"^(.*): exit (\d+)$", text, flags=re.MULTILINE)
            if len(reported) != len(case.outputs) or any(c != "0" for _, c in reported):
                problems.append(f"{case.name}: sweep reported {reported}")
        for output in case.outputs:
            where = outdir / output.subdir
            for name in CSV_FILES:
                path = where / name
                label = f"{case.name}/{output.subdir or '.'}/{name}"
                if not path.is_file():
                    problems.append(f"{label}: missing")
                    continue
                key = (output.subdir or case.name, name)
                if key in self.reference:
                    if _digest(path) != self.reference[key]:
                        problems.append(f"{label}: rerun is not byte-identical")
                    continue
                tolerances = TOLERANCES[output.scenario] if name == "invariants.csv" else ()
                digest, rows, found = _scan(path, tolerances)
                if rows != output.rows:
                    found.append(f"{rows} data rows, expected {output.rows}")
                problems += [f"{label}: {p}" for p in found]
                if not found:
                    self.reference[key] = digest
        return problems
