#!/usr/bin/env python3
"""Record the golden outputs that perfbench/run.py checks against.

    python3 perfbench/record_golden.py [--workload W ...]

Runs one untraced pass of each workload for every input variant and
writes perfbench/golden/<workload>.json. Record only at a commit whose
outputs are the reference: the benchmark counts any later output outside
the tolerance of checks.py as incorrect.
"""

import argparse
import json
import os
import shutil
import sys

import run  # first: pins BLAS/OpenMP threads before numpy is imported
import checks
import workloads


def record(workload: str, variant: int, run_dir, tmp_dir) -> dict:
    cli, ops = run.setup(workload, variant, run_dir / "inputs")
    out_dir = run_dir / "out"
    p = run.run_pass(cli, ops, out_dir, tmp_dir)
    records = {}
    for op in ops:
        rec = run.op_record(op, p, out_dir)
        problems = checks.gate_problems(rec)
        print(f"  variant {variant} {op.name:<24} exit {rec['exit']} "
              f"{p.times[op.name]:7.2f} s  {'; '.join(problems) or 'ok'}")
        records[op.name] = rec
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    run.import_program()
    work = run.WORK / f"golden-{os.getpid()}"
    tmp_dir = work / "tmp"
    tmp_dir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp_dir)
    try:
        for workload in args.workload or workloads.WORKLOADS:
            print(workload)
            variants = {str(v): record(workload, v, work / f"{workload}{v}",
                                       tmp_dir)
                        for v in range(workloads.VARIANTS)}
            run.GOLDEN.mkdir(exist_ok=True)
            (run.GOLDEN / f"{workload}.json").write_text(json.dumps({
                "commit": run.git_commit(),
                "source_sha256": run.source_digest(),
                "variants": variants}, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
