"""Run one benchmark workload against the checkout's ``src/occutime``.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; outputs go to ``.bench_out/NAME`` at
its root. Set-up is timed first, in fresh interpreters. Then whole rounds
run until ``--seconds`` have passed: each round runs the workload's
operations once with ``--threads 1`` and once with ``--threads 2`` and
checks every output. With ``--trace 0`` the last line of standard output
is the JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the program's layers are wrapped with spans and the line
holds the per-layer metrics instead. ``--tiny`` shrinks every workload so
that a run takes seconds (see ``selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5          # fresh interpreters per run; setup_s is their median
MIN_ROUNDS = 3          # so the median drops the round that fills caches
PASSES = (1, 2)         # --threads of the two passes of a round


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def measure_setup(configs: list, runs: int) -> tuple[list, list]:
    """Seconds from starting a fresh interpreter to the end of importing
    occutime.cli and loading the configs, and the import share of it."""
    setup, imports = [], []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), *map(str, configs)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        reading = json.loads(proc.stdout.splitlines()[-1])
        setup.append(reading["clock"] - start)
        imports.append(reading["import_s"])
    return setup, imports


def run_op(op, threads: int) -> tuple[float, str | None, bool]:
    """Call one operation and check its output: (call seconds, error,
    whether the error is the known fault that the operation's value check
    recognises). A crash or any other failed check is not."""
    op.prepare(threads)
    start = time.perf_counter()
    try:
        result = op.call(threads)
    except (Exception, SystemExit) as exc:   # a crash is a failed operation
        return (time.perf_counter() - start,
                f"{type(exc).__name__}: {exc}", False)
    elapsed = time.perf_counter() - start
    try:
        op.check(threads, result)
    except checks.CheckFailed as exc:
        return elapsed, str(exc), isinstance(exc, checks.KnownFault)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return (elapsed,
                f"unreadable output: {type(exc).__name__}: {exc}", False)
    return elapsed, None, False


def run_rounds(ops: list, seconds: float, min_rounds: int,
               recorder: Recorder | None) -> dict:
    times = {t: [] for t in PASSES}
    attempted = failed = rounds = 0
    errors: dict = {}  # (operation, known fault or None) -> first error
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for threads in PASSES:
            if recorder is not None:
                recorder.phase = threads
            total = 0.0
            for op in ops:
                elapsed, error, known = run_op(op, threads)
                total += elapsed
                attempted += 1
                if error is not None:
                    failed += 1
                    errors.setdefault((op.name, op.fault if known else None),
                                      error)
            times[threads].append(total)
        rounds += 1
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"times": times, "attempted": attempted, "failed": failed,
            "rounds": rounds, "errors": errors, "rss_mib": rss_mib}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size so a run takes seconds")
    args = parser.parse_args(argv)

    if not (SRC / "occutime" / "cli.py").is_file():
        print(f"error: no program to measure at {SRC / 'occutime'}",
              file=sys.stderr)
        return 2
    declared = declared_metrics()

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "configs").mkdir(parents=True)
    configs = []
    for name, text in workloads.config_texts(args.workload, args.tiny).items():
        path = workdir / "configs" / name
        path.write_text(text)
        configs.append(path)
    setup, imports = measure_setup(configs, 1 if args.tiny else SETUP_RUNS)

    sys.path.insert(0, str(SRC))
    import occutime
    if not Path(occutime.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: occutime imported from {occutime.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    recorder = Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    ctx = workloads.Context(
        workdir=workdir, seed=args.seed,
        wrap_function=recorder.wrap_function if recorder else (lambda f: f))
    ops = workloads.operations(args.workload, args.tiny, ctx)
    outcome = run_rounds(ops, args.seconds, 1 if args.tiny else MIN_ROUNDS,
                         recorder)
    run_s = statistics.median(outcome["times"][1])

    extra = {"workload": args.workload, "seed": args.seed,
             "tiny": args.tiny, "rounds": outcome["rounds"],
             "pass_seconds": outcome["times"], "setup_runs_s": setup,
             "errors": [{"operation": name, "known_fault": fault,
                         "error": error}
                        for (name, fault), error in outcome["errors"].items()]}
    if recorder is not None:
        recorder.uninstall()
        values = recorder.layer_metrics(outcome["rounds"], PASSES[1])
        values["cli.import_s"] = statistics.median(imports)
        units = declared["per_layer"]
        recorder.write(workdir / "spans.jsonl")
        extra.update(traced_run_s=run_s, unwrapped=recorder.missing)
    else:
        values = {"setup_s": statistics.median(setup),
                  "run_s": run_s,
                  "run_2t_s": statistics.median(outcome["times"][2]),
                  "peak_rss_mb": outcome["rss_mib"]}
        units = declared["end_to_end"]
    if set(values) != set(units):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares "
              f"{sorted(units)}", file=sys.stderr)
        return 2

    unexpected = any(fault is None for _, fault in outcome["errors"])
    result = {"correct": not unexpected, "attempted": outcome["attempted"],
              "failed": outcome["failed"],
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    (workdir / "result.json").write_text(
        json.dumps({**result, **extra}, indent=2) + "\n")

    for (name, fault), error in outcome["errors"].items():
        label = f"known fault ({fault})" if fault else "FAILED"
        print(f"{args.workload}/{name}: {label}: {error}", file=sys.stderr)
    if recorder is not None and recorder.missing:
        print(f"not traced (name gone): {', '.join(recorder.missing)}",
              file=sys.stderr)
    for k in units:
        print(f"{args.workload} {k} = {values[k]:.6g} {units[k]}")
    print(f"{args.workload} operations: {result['attempted']} attempted, "
          f"{result['failed']} failed, {outcome['rounds']} rounds")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
