"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--workload W ...] [--label L] [--against FILE]

For every workload this prints each end-to-end metric by name with its unit:
the median, the quartiles and the spread (interquartile distance over the
median, from ``statistics.quantiles(values, n=4)``) next to the bound in
``BENCHMARK.json``, and the failure count.  ``--trace`` adds one traced run
per workload with its layer shares.  ``--against`` compares the medians with
an earlier result file and flags any metric worse by more than its bound.
Results go to ``perfbench/out/spread-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--label", default="latest")
    parser.add_argument("--against", type=Path, help="an earlier spread result to compare with")
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    earlier = json.loads(args.against.read_text()) if args.against else {}
    result, worst = {}, 0
    for workload in workloads:
        runs = [run_once(workload, s, args.seconds, 0)
                for s in range(args.first_seed, args.first_seed + args.seeds)]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"== {workload}: {args.seeds} runs, failed_frac {failed / attempted:.4f} "
              f"({failed} of {attempted} invocations)", flush=True)
        result[workload] = {"failed": failed, "attempted": attempted, "metrics": {}}
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            s["values"] = values
            result[workload]["metrics"][name] = s
            flag = "ok" if s["spread"] < m["bound"] / 3 else ("within bound" if s["spread"] < m["bound"] else "TOO WIDE")
            if name == "setup_s" and flag == "TOO WIDE":
                flag = "wide (not gated)"
            line = (f"  {name:15s} {s['median']:12.4f} {m['unit']:5s} q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
                    f"spread {s['spread']:.3f} bound {m['bound']:.2f} {flag}")
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                change = s["median"] / before["median"] - 1
                worse = change if m["better"] == "lower" else -change
                line += f" | vs earlier {change:+.3f}" + (" WORSE THAN BOUND" if worse > m["bound"] else "")
                worst += worse > m["bound"]
            worst += flag == "TOO WIDE"
            print(line, flush=True)
        if args.trace:
            traced = run_once(workload, args.first_seed, args.seconds, 1)["metrics"]
            layers = {k: v["value"] for k, v in traced.items() if k.startswith("layer.")}
            total = sum(layers.values())
            shares = "  ".join(f"{k.split('.')[1] if k.count('.') == 2 else 'start+import'} "
                               f"{v / total:.1%}" for k, v in layers.items())
            print(f"  layer shares: {shares}")
            print(f"  tracing overhead {traced['trace.overhead_s']['value']:.3f} s on "
                  f"{traced['trace.wall_s']['value']:.3f} s traced")
            result[workload]["layer_shares"] = {k: v / total for k, v in layers.items()}
    out = HERE / "out" / f"spread-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"written {out.relative_to(ROOT)}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
