"""Steadiness check: two independent sets of runs of the same checkout.

    python3 benchmarks/steady.py [--trace]

Each set runs every workload of BENCHMARK.json ten times for its
``run_seconds``, and every run gets its own seed. For each workload and
end-to-end metric it prints each set's median and quartile spread
((Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives them), the
spread of all runs pooled, and whether the two set medians agree within the
metric's bound in BENCHMARK.json; each set's spread must also stay within
the bound. The share of failed operations must be identical in every run of
a workload. ``--trace`` adds three pairs of an
untraced and a traced run with the same seed per workload. It reports the
per-layer metrics and the tracing overhead: the median over pairs of traced
minus untraced ``run_s``. The bounds and run length in BENCHMARK.json come
from this output. Exit status 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10               # runs per set and workload
TRACE_PAIRS = 3         # untraced/traced run pairs per workload for overhead


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]

    results = {w: ([], []) for w in names}
    for s in (0, 1):
        for i in range(RUNS):
            for w in names:          # interleaved, so drift hits all alike
                r = run(w, 1000 * (s + 1) + i, seconds, 0)
                results[w][s].append(r)
                print(f"set {s + 1} run {i + 1} {w}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in r["metrics"].items())
                    + f"; {r['failed']}/{r['attempted']} failed", flush=True)

    ok = True
    report = {}
    print(f"\n{'workload':14} {'metric':12} {'bound':>6} "
          + " ".join(f"{'median' + str(s):>10} {'spread' + str(s):>8}"
                     for s in (1, 2))
          + f" {'pooled':>7} {'drift':>7}  verdict")
    for w in names:
        shares = {Fraction(r["failed"], r["attempted"])
                  for runs in results[w] for r in runs}
        share_ok = len(shares) == 1 and all(r["correct"] for runs in results[w]
                                            for r in runs)
        ok &= share_ok
        report[w] = {"failed_share": [str(x) for x in sorted(shares)],
                     "failed_share_ok": share_ok, "metrics": {}}
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs]
                    for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            pooled = spread(sets[0] + sets[1])
            drift = abs(medians[1] - medians[0]) / medians[0]
            good = drift <= bound and max(spreads) <= bound
            ok &= good
            report[w]["metrics"][name] = {
                "bound": bound, "medians": medians, "spreads": spreads,
                "pooled_spread": pooled, "drift": drift, "ok": good,
                "values": sets}
            print(f"{w:14} {name:12} {bound:6.2f} "
                  + " ".join(f"{a:10.4g} {b:8.3f}"
                             for a, b in zip(medians, spreads))
                  + f" {pooled:7.3f} {drift:7.3f}  "
                  + ("ok" if good else "NOT STEADY"))
        print(f"{w:14} failed share {', '.join(map(str, sorted(shares)))}"
              f"  {'ok' if share_ok else 'NOT CONSTANT OR INCORRECT'}")

    if args.trace:
        print()
        for w in names:
            pairs = []       # (untraced run_s, traced run_s), same seed
            for seed in range(1, TRACE_PAIRS + 1):
                plain = run(w, seed, seconds, 0)
                layers = run(w, seed, seconds, 1)
                traced = json.loads(
                    (ROOT / ".bench_out" / w / "result.json").read_text())
                pairs.append((plain["metrics"]["run_s"]["value"],
                              traced["traced_run_s"]))
            overhead = statistics.median(t - u for u, t in pairs)
            base = statistics.median(u for u, _ in pairs)
            report[w]["traced"] = {"pairs": pairs, "overhead_s": overhead,
                                   "per_layer": layers["metrics"]}
            print(f"{w}: run_s untraced/traced "
                  + ", ".join(f"{u:.3f}/{t:.3f}" for u, t in pairs)
                  + f"; tracing overhead {overhead:+.3f} s "
                  f"({overhead / base:+.1%}, median of {TRACE_PAIRS} pairs)")
            for k, v in layers["metrics"].items():
                print(f"  {k:32} {v['value']:.6g} {v['unit']}")

    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n{'steady' if ok else 'NOT STEADY'}; details in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
