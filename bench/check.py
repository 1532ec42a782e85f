"""Reference reports and the row comparison behind ``failed`` and ``ok_ops_frac``.

A row is (check, params, lhs, rhs, holds, paper_ref), read from the CSV or
JSON report a command wrote.  A command's rows match the reference when
check, parameter names, holds and paper_ref are equal, and every number
agrees within a relative tolerance:

* ``fd-eigenvalue`` rows (the eig2d report): 1e-10, as ROADMAP asks of any
  change to the FD solver;
* every other row: 1e-9, the 1e-10 on eigenvalues carried through the
  Richardson limit and band (3 |fine - mid|) and the sums built on them.

lhs and rhs are compared on the scale of the larger of the two reference
values, so a residual or a difference of two quadratures, whose value is
rounding noise below its threshold, is held to the threshold's scale.
Numeric parameters are compared on their own scale, other parameters as
text.  Reported-only rows keep their reference ``holds``: the odd-n
``defect-lower-bracket`` rows are false in the reference and must stay so.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path
from typing import Optional

REFS = Path(__file__).resolve().parent / "refs"
RTOL = 1e-9
RTOL_FD_EIGENVALUE = 1e-10
REF_DIGITS = 13  # stored precision: rounding of 5e-13, under 1% of the tightest tolerance


def read_rows(path: Path, fmt: str) -> list[list]:
    """Rows of a report file, params as sorted [name, value] pairs."""
    if fmt == "json":
        with open(path) as fh:
            reports = json.load(fh)["reports"]
        return [[r["check"], sorted([k, v] for k, v in r["params"].items()),
                 float(r["lhs"]), float(r["rhs"]), r["holds"], r["paper_ref"]]
                for r in reports]
    rows = []
    with open(path, newline="") as fh:
        lines = (line for line in fh if not line.startswith("#"))
        reader = csv.reader(lines)
        next(reader)  # header
        for check, p1, p2, lhs, rhs, _margin, holds, ref in reader:
            params = [item.split("=", 1) for item in [p1, *p2.split(";")] if item]
            rows.append([check, sorted(params), float(lhs), float(rhs), holds == "true", ref])
    return rows


def _ref_path(workload: str) -> Path:
    return REFS / f"{workload}.json.gz"


def save_refs(workload: str, commands: dict, meta: dict) -> Path:
    def rounded(x: float) -> float:
        return float(format(x, f".{REF_DIGITS}g"))

    payload = {"meta": meta, "commands": {
        ref: {"argv": argv, "rows": [[c, p, rounded(lhs), rounded(rhs), h, pr]
                                     for c, p, lhs, rhs, h, pr in rows]}
        for ref, (argv, rows) in commands.items()}}
    path = _ref_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=9) as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return path


def load_refs(workload: str) -> dict[str, list[list]]:
    with gzip.open(_ref_path(workload), "rt") as fh:
        return {ref: c["rows"] for ref, c in json.load(fh)["commands"].items()}


def expected_rows(command, refs: dict[str, list[list]]) -> list[list]:
    """Reference rows for one command of a workload (see workloads.Command)."""
    rows = refs[command.ref]
    if command.select is not None:
        name, values = command.select
        rows = [r for r in rows if dict(r[1])[name] in values]
    if command.hit_of is not None:
        rows = [[c, [[k, "True" if k == "cache_hit" else v] for k, v in p], *rest]
                for c, p, *rest in rows]
    return rows


def _close(a: float, b: float, scale: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * scale


def _as_float(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def compare(rows: list[list], expected: list[list]) -> Optional[str]:
    """None when ``rows`` match ``expected``, else the first difference."""
    if len(rows) != len(expected):
        return f"{len(rows)} rows, reference has {len(expected)}"
    for i, (row, ref) in enumerate(zip(rows, expected)):
        check, params, lhs, rhs, holds, paper_ref = row
        rtol = RTOL_FD_EIGENVALUE if ref[0] == "fd-eigenvalue" else RTOL
        where = f"row {i} ({ref[0]} {ref[1]})"
        if (check, holds, paper_ref) != (ref[0], ref[4], ref[5]):
            return f"{where}: got {check} holds={holds} {paper_ref}"
        if [k for k, _ in params] != [k for k, _ in ref[1]]:
            return f"{where}: params {params}"
        for (_, v), (_, w) in zip(params, ref[1]):
            x, y = _as_float(v), _as_float(w)
            if v != w and (x is None or y is None or not _close(x, y, abs(y), rtol)):
                return f"{where}: param {v} != {w}"
        finite = [abs(v) for v in (ref[2], ref[3]) if math.isfinite(v)]
        scale = max(finite, default=0.0)
        if not (_close(lhs, ref[2], scale, rtol) and _close(rhs, ref[3], scale, rtol)):
            return f"{where}: lhs/rhs {lhs!r}/{rhs!r} vs {ref[2]!r}/{ref[3]!r}"
    return None
