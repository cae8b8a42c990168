#!/usr/bin/env python3
"""wedflow benchmark: end-to-end and per-layer timings with correctness
checks.

    python3 perfbench/run.py --workload {scenarios,large_grid,verify,all}
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports wedflow from `src/` and
writes only under `.perfbench_work/`. It repeats passes over the
workload's operations for about S seconds in one single-threaded process,
checks every operation's outputs against the golden records in
`perfbench/golden/`, and prints the metrics with their units. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are pass_s, setup_s and peak_rss_mb;
with --trace 1 they are the per-layer metrics of tracer.LAYER_METRICS.
pass_s is scaled to a reference machine speed by the control in speed.py.
See perfbench/README.md.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# BLAS and OpenMP size their thread pools when numpy is first imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
GOLDEN = Path(__file__).resolve().parent / "golden"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MAX_NOTES = 4  # problems shown per operation


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_program():
    """wedflow.cli from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "wedflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no wedflow sources under {src}; run "
                         "from the root of a wedflow checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import wedflow.cli
    if Path(wedflow.cli.__file__).resolve().parent != \
            (src / "wedflow").resolve():
        raise SystemExit(f"perfbench: imported wedflow from "
                         f"{wedflow.cli.__file__}, not from {src}")
    return wedflow.cli


def setup(workload: str, seed: int, dest: Path):
    """What setup_s measures after interpreter start: importing the
    program and making the workload's inputs."""
    cli = import_program()
    return cli, workloads.make_ops(workload, seed, ROOT, dest)


def measure_setup(workload: str, seed: int, run_dir: Path) -> list:
    """Seconds from launching a fresh interpreter to the end of set-up,
    for SETUP_PROBES separate processes."""
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, __file__, "--workload", workload, "--seed",
               str(seed), "--setup-probe", str(run_dir / f"probe{i}")]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            try:
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            rc = proc.returncode
        if line.strip() != "ready" or rc != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {rc})")
    return samples


def golden_records(workload: str, seed: int) -> dict:
    path = GOLDEN / f"{workload}.json"
    if not path.is_file():
        return {}
    table = json.loads(path.read_text())["variants"]
    return table.get(str(workloads.variant_of(seed)), {})


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    times: dict = field(default_factory=dict)      # op name -> seconds
    speed: dict = field(default_factory=dict)      # op name -> REFERENCE_S/control
    wall: float = 0.0                              # whole pass, controls too
    outputs: dict = field(default_factory=dict)    # op name -> (exit, stdout)
    leaked: int = 0
    artifact_bytes: int = 0


def run_pass(cli, ops, control, out_dir: Path, tmp_dir: Path,
             tracer=None) -> Pass:
    """One pass over the operations; only the calls themselves are timed,
    each between two samples of the speed control."""
    os.environ["WEDFLOW_OUT"] = str(out_dir)
    p = Pass(traced=tracer is not None)
    gc.collect()
    t_pass = time.perf_counter()
    before = control.sample()
    for op in ops:
        buf = io.StringIO()
        rc = None
        span = tracer.span(f"op.{op.name}") if tracer \
            else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(buf):
                rc = cli.main(list(op.argv))
        except Exception:
            traceback.print_exc(file=sys.stderr)
        p.times[op.name] = time.perf_counter() - t0
        p.outputs[op.name] = (rc, buf.getvalue())
        after = control.sample()
        p.speed[op.name] = speed.REFERENCE_S / (0.5 * (before + after))
        before = after
    p.wall = time.perf_counter() - t_pass
    p.leaked = sum(1 for f in tmp_dir.iterdir()
                   if f.name.startswith("wedflow_"))
    shutil.rmtree(tmp_dir)
    tmp_dir.mkdir()
    return p


def pass_seconds(passes: list, at_reference: bool = True) -> float:
    """Typical time of one pass: the sum over operations of each
    operation's median time across the given passes, by default scaled to
    the control's reference speed (see speed.py)."""
    return sum(statistics.median(
        p.times[name] * (p.speed[name] if at_reference else 1.0)
        for p in passes) for name in passes[0].times)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    notes: list = field(default_factory=list)

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)


def op_record(op, p: Pass, out_dir: Path) -> dict:
    rc, stdout = p.outputs[op.name]
    if op.verb == "verify":
        return checks.verify_record(rc, stdout)
    return checks.run_record(rc, out_dir / op.name)


def evaluate(ops, p: Pass, out_dir: Path, golden: dict, tally: Tally):
    for op in ops:
        try:
            record = op_record(op, p, out_dir)
        except (ValueError, OSError) as exc:  # unreadable artifacts
            record = {"exit": None, "unreadable": repr(exc)}
        failed, incorrect, notes = checks.judge(record, golden.get(op.name))
        tally.attempted += 1
        tally.failed += failed
        tally.incorrect += incorrect
        if len(notes) > MAX_NOTES:
            notes = notes[:MAX_NOTES] + [f"... {len(notes) - MAX_NOTES} more"]
        for text in notes:
            tally.note(f"{op.name}: {text}")


def snapshot(ops, p: Pass, out_dir: Path) -> dict:
    """Everything a pass produced, as bytes; sets p.artifact_bytes."""
    files = checks.tree_bytes(out_dir) if out_dir.is_dir() else {}
    p.artifact_bytes = sum(map(len, files.values()))
    for op in ops:
        files[f"stdout:{op.name}"] = p.outputs[op.name][1].encode()
        files[f"exit:{op.name}"] = repr(p.outputs[op.name][0]).encode()
    return files


def measure(cli, ops, golden: dict, seconds: float, trace: bool,
            run_dir: Path, tmp_dir: Path, tracer) -> tuple:
    """Passes until the next one would end after `seconds`. With trace,
    untraced and traced passes alternate, at least one of each. Every
    pass's outputs must equal the first pass's byte for byte (A12); for a
    traced pass this also shows that the wrappers change nothing."""
    passes, tally = [], Tally()
    reference = None
    control = speed.Control()
    t_start = time.perf_counter()
    while True:
        k = len(passes)
        traced = trace and k % 2 == 1
        out_dir = run_dir / "out" / f"p{k}"
        if traced:
            with tracer.installed(), tracer.span("pass"):
                p = run_pass(cli, ops, control, out_dir, tmp_dir, tracer)
        else:
            p = run_pass(cli, ops, control, out_dir, tmp_dir)
        evaluate(ops, p, out_dir, golden, tally)
        snap = snapshot(ops, p, out_dir)
        if reference is None:
            reference = snap
        else:
            diff = checks.differing_files(reference, snap)
            if diff:
                tally.incorrect += 1
                tally.note(f"pass {k}{' (traced)' if traced else ''} "
                           f"differs from pass 0 in {diff[:5]}")
            shutil.rmtree(out_dir, ignore_errors=True)
        passes.append(p)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(q.wall for q in passes) * \
            (1.5 if trace else 1.0)
        if (not trace or k >= 1) and elapsed + typical > seconds:
            return passes, tally


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout's git repository, if it has one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, to identify the code measured
    where there is no git repository."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "wedflow"
    for path in sorted(pkg.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "variant": workloads.variant_of(args.seed), "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "commit": git_commit(), "source_sha256": source_digest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def report(args, passes, tally, setup_samples, tracer) -> dict:
    untraced = [p for p in passes if not p.traced]
    if args.trace:
        traced = [p for p in passes if p.traced]
        extras = {
            "runner.artifact_bytes": statistics.mean(
                p.artifact_bytes for p in traced),
            "cli.tempfiles_leaked": statistics.mean(
                p.leaked for p in traced),
        }
        overhead = pass_seconds(traced) / pass_seconds(untraced)
        metrics = tracing.layer_metrics(tracer, len(traced), extras,
                                        overhead)
    else:
        metrics = {
            "pass_s": {"value": pass_seconds(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples),
                        "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    return {"correct": tally.incorrect == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def print_report(args, result: dict, passes, tally, env: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"variant={env['variant']} trace={args.trace} "
          f"passes={len(passes)}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    untraced = [p for p in passes if not p.traced]
    factor = statistics.median(v for p in untraced for v in p.speed.values())
    print(f"  {'pass_wall_s (unscaled)':<36} "
          f"{pass_seconds(untraced, at_reference=False):>14.6g} s")
    print(f"  {'speed (REFERENCE_S / control)':<36} {factor:>14.6g} ratio")
    print(f"  {'ops_failed':<36} {result['failed']:>14d} count "
          f"(of {result['attempted']} attempted)")
    print(f"  {'correct':<36} {str(result['correct']):>14}")
    for text in tally.notes:
        print(f"  note: {text}")
    print("# env " + json.dumps(env, sort_keys=True))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    rows = []
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        rows.append((workload, json.loads(proc.stdout.splitlines()[-1])))
    print("workload      correct  failed/attempted  metrics")
    for workload, res in rows:
        shown = "  ".join(f"{k}={v['value']:.4g} {v['unit']}"
                          for k, v in res["metrics"].items()
                          if not args.trace)
        print(f"{workload:<13} {str(res['correct']):<8} "
              f"{res['failed']:>6}/{res['attempted']:<9} {shown}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in rows),
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {f"{w}.{k}": v for w, r in rows
                    for k, v in r["metrics"].items()}}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)

    import_program()  # fail early, before any probe, if there is no program
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-" \
                     f"{os.getpid()}"
    tmp_dir = run_dir / "tmp"
    try:
        tmp_dir.mkdir(parents=True)
        # cli._resolve leaves its temp files here; they are counted per pass
        os.environ["TMPDIR"] = str(tmp_dir)
        if tempfile.gettempdir() != str(tmp_dir):
            raise SystemExit("perfbench: temp directory already fixed to "
                             f"{tempfile.gettempdir()}")
        setup_samples = [] if args.trace else \
            measure_setup(args.workload, args.seed, run_dir)
        cli, ops = setup(args.workload, args.seed, run_dir / "inputs")
        golden = golden_records(args.workload, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        passes, tally = measure(cli, ops, golden, args.seconds,
                                bool(args.trace), run_dir, tmp_dir, tracer)
        result = report(args, passes, tally, setup_samples, tracer)
        env = environment(args)
        print_report(args, result, passes, tally, env)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps({
            "env": env, "result": result, "notes": tally.notes,
            "pass_times": [{"traced": p.traced, "times": p.times,
                            "speed": p.speed, "wall": p.wall}
                           for p in passes]}, indent=2) + "\n")
        if tracer is not None:
            tracer.save(results / f"{stem}_spans.npz")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
