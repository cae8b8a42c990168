"""Correctness checks for benchmark operations.

Each operation leaves a record: its exit code and, for `run`, every
artifact it wrote (JSON leaves, `summary.txt` lines, and a fingerprint of
each CSV); for `verify`, the leaves of the printed report. A record is
compared with the golden record of the same input variant.

Tolerance. The ROADMAP's refactor oracle is 1e-12 relative. Numbers are
compared as |new - golden| <= RTOL * max(|golden|, 1): relative for
magnitudes above one, and absolute at 1e-12 for smaller ones, because
several report entries (excesses, residuals, margins) are exactly 0.0 or
sit at round-off level, where a purely relative test would reject any
change of summation order. Every problem here is posed in units of order
one (unit domain and horizon, amplitudes below 2), so the floor is the
same 1e-12 of the problem's scale.

Each CSV column is compared through its fingerprint: row count, extremes,
sum, sum of magnitudes, sum of squares, four pseudo-random projections
and an evenly strided sample of up to 32 values. Each statistic gets the
bound that follows from |new_i - golden_i| <= RTOL * max(max|golden|, 1)
for every value, so a trajectory inside the oracle always passes, and any
change of the extremes, the sampled values or the trajectory as a whole
beyond the oracle fails. A change confined to a few unsampled values can
pass if it is below RTOL times the row count.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-12
PROJECTIONS = 4
SAMPLES = 32


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def _leaves(obj, prefix: str = "") -> dict:
    """Flatten JSON to {path: scalar}."""
    if isinstance(obj, dict):
        out = {}
        for key, val in obj.items():
            out.update(_leaves(val, f"{prefix}/{key}"))
        return out
    if isinstance(obj, list):
        out = {}
        for i, val in enumerate(obj):
            out.update(_leaves(val, f"{prefix}/{i}"))
        return out
    return {prefix: obj}


def _summary(text: str) -> dict:
    """{gate name: [value, "pass" | "FAIL"]} from summary.txt."""
    out = {}
    for line in text.splitlines():
        name, value, flag = line.split()
        out[name] = [value, flag]
    return out


def _csv_array(text: str) -> tuple:
    lines = text.splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0], np.asarray(rows, dtype=float)


def _projection_weights(k: int, n: int) -> np.ndarray:
    return np.random.default_rng(k).standard_normal(n)


def fingerprint(x: np.ndarray) -> dict:
    stride = max(1, -(-x.size // SAMPLES))
    return {
        "shape": list(x.shape),
        "min": float(x.min()),
        "max": float(x.max()),
        "sum": float(x.sum()),
        "abs_sum": float(np.abs(x).sum()),
        "sq_sum": float(x @ x),
        "proj": [float(_projection_weights(k, x.size) @ x)
                 for k in range(PROJECTIONS)],
        "stride": stride,
        "sample": [float(v) for v in x[::stride]],
    }


def run_record(rc, out_dir: Path) -> dict:
    """Record of a `run` operation from the files it wrote."""
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            text = path.read_text()
            if path.suffix == ".json":
                files[path.name] = {"leaves": _leaves(json.loads(text))}
            elif path.suffix == ".csv":
                header, arr = _csv_array(text)
                files[path.name] = {
                    "header": header,
                    "columns": [fingerprint(col) for col in arr.T]}
            elif path.name == "summary.txt":
                files[path.name] = {"summary": _summary(text)}
            else:
                files[path.name] = {"text": text}
    return {"exit": rc, "files": files}


def verify_record(rc, stdout: str) -> dict:
    try:
        report = json.loads(stdout)
    except ValueError:
        report = {"unparsed_output": stdout}
    return {"exit": rc, "report": _leaves(report)}


def gate_problems(record: dict) -> list:
    """Why an operation failed by its own account: a nonzero exit, a
    summary gate marked FAIL, or a verify report that did not pass."""
    problems = []
    if record["exit"] != 0:
        problems.append(f"exit {record['exit']}")
    summary = record.get("files", {}).get("summary.txt", {}).get("summary")
    if "files" in record and summary is None:
        problems.append("no summary.txt")
    for name, (value, flag) in (summary or {}).items():
        if flag != "pass":
            problems.append(f"gate {name} = {value} {flag}")
    if "report" in record and record["report"].get("/passed") is not True:
        problems.append("suite did not pass")
    return problems


# ---------------------------------------------------------------------------
# Comparison with the golden record
# ---------------------------------------------------------------------------

def _as_float(v):
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            return None
    return None


def _close(new: float, gold: float, bound: float) -> bool:
    if math.isfinite(gold):
        return abs(new - gold) <= bound
    return new == gold or (math.isnan(new) and math.isnan(gold))


def _compare_scalar(path: str, new, gold, problems: list) -> None:
    """Integers, booleans and text compare exactly, other numbers (floats
    or their repr strings) within the tolerance."""
    fn, fg = _as_float(new), _as_float(gold)
    if fn is None or fg is None or isinstance(gold, int):
        ok = new == gold
    else:
        ok = _close(fn, fg, RTOL * max(abs(fg), 1.0))
    if not ok:
        problems.append(f"{path}: {new!r} != golden {gold!r}")


def _compare_leaves(where: str, new: dict, gold: dict, problems: list):
    if new.keys() != gold.keys():
        problems.append(f"{where}: entries differ: "
                        f"{sorted(set(new) ^ set(gold))[:5]}")
        return
    for key in gold:
        _compare_scalar(f"{where}{key}", new[key], gold[key], problems)


def _compare_fingerprint(where: str, new: dict, gold: dict, problems: list):
    if new["shape"] != gold["shape"]:
        problems.append(f"{where}: shape {new['shape']} != {gold['shape']}")
        return
    n = math.prod(gold["shape"])
    scale = max(abs(gold["min"]), abs(gold["max"]), 1.0)
    unit = RTOL * scale
    bounds = {"min": unit, "max": unit, "sum": unit * n,
              "abs_sum": unit * n,
              "sq_sum": unit * (2.0 * gold["abs_sum"] + unit * n)}
    for key, bound in bounds.items():
        if not _close(new[key], gold[key], bound):
            problems.append(f"{where}: {key} {new[key]!r} != "
                            f"golden {gold[key]!r}")
    for k, (a, b) in enumerate(zip(new["proj"], gold["proj"])):
        weight = float(np.abs(_projection_weights(k, n)).sum())
        if not _close(a, b, unit * weight):
            problems.append(f"{where}: projection {k} {a!r} != golden {b!r}")
    for i, (a, b) in enumerate(zip(new["sample"], gold["sample"])):
        if not _close(a, b, unit):
            problems.append(f"{where}: value {i * gold['stride']} {a!r} != "
                            f"golden {b!r}")
            break


def compare(new: dict, gold: dict) -> list:
    """Differences between an operation's record and its golden record."""
    problems = []
    if "report" in gold:
        _compare_leaves("report", new["report"], gold["report"], problems)
        return problems
    if new["files"].keys() != gold["files"].keys():
        return [f"artifacts {sorted(new['files'])} != golden "
                f"{sorted(gold['files'])}"]
    for name, g in gold["files"].items():
        f = new["files"][name]
        if "leaves" in g:
            _compare_leaves(name, f["leaves"], g["leaves"], problems)
        elif "summary" in g:
            if f["summary"].keys() != g["summary"].keys():
                problems.append(f"{name}: gates differ")
                continue
            for gate, (value, flag) in g["summary"].items():
                if f["summary"][gate][1] != flag:
                    problems.append(f"{name}: {gate} {f['summary'][gate][1]}"
                                    f" != golden {flag}")
                _compare_scalar(f"{name}:{gate}", f["summary"][gate][0],
                                value, problems)
        elif "columns" in g:
            if f["header"] != g["header"]:
                problems.append(f"{name}: header differs")
                continue
            for column, fn, fg in zip(g["header"].split(","), f["columns"],
                                      g["columns"]):
                _compare_fingerprint(f"{name}:{column}", fn, fg, problems)
        elif f != g:
            problems.append(f"{name}: content differs")
    return problems


def judge(record: dict, gold) -> tuple:
    """(failed, incorrect, notes) for one operation.

    An operation fails on a nonzero exit, an exception, a failed gate or a
    golden mismatch. It is incorrect when it exits as its golden record
    does but its outputs differ from that record, when it raised, or when
    its artifacts cannot be read (record exit None). An operation that now
    fails where the golden record passed is counted as failed, not
    incorrect: it reports its own failure. A recorded failure that now
    passes its gates has no golden output to compare with; it is counted
    as passed and noted.
    """
    if record["exit"] is None:
        return True, True, [record.get("unreadable", "raised an exception")]
    problems = gate_problems(record)
    if gold is None:
        return True, True, problems + ["no golden record"]
    if record["exit"] == gold["exit"]:
        mismatch = compare(record, gold)
        return bool(problems or mismatch), bool(mismatch), problems + mismatch
    if gold["exit"] != 0 and not problems:
        return False, False, [f"recorded failure (exit {gold['exit']}) now "
                              "passes; it has no golden outputs"]
    return True, False, problems + [f"golden exit {gold['exit']}"]


# ---------------------------------------------------------------------------
# Byte identity (the A12 contract)
# ---------------------------------------------------------------------------

def tree_bytes(folder: Path) -> dict:
    return {str(p.relative_to(folder)): p.read_bytes()
            for p in sorted(folder.rglob("*")) if p.is_file()}


def differing_files(a: dict, b: dict) -> list:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
