"""Run one workload on several seeds, one run at a time, and summarise the
spread of each end-to-end metric (quartile distance over median).

    python3 perfbench/collect.py --workload query --seeds 1-10 [--seconds S]
        [--traced] [--baseline perfbench/baseline/query.json]

With --traced, one traced run on the first seed follows.  With --baseline,
the run records (environment included) and the summary are written there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".perfbench_out", "results")


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: str, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    if seconds:
        argv += ["--seconds", seconds]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"collect: {workload} seed {seed} exited {proc.returncode}")
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(RESULTS, name), encoding="utf-8") as handle:
        return json.load(handle)


def summary(records: list[dict]) -> dict:
    out = {}
    for key in records[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in records]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[key] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                    "unit": records[0]["metrics"][key]["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="perfbench multi-seed summary")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--baseline")
    args = parser.parse_args()

    seeds = seed_list(args.seeds)
    records = []
    for seed in seeds:
        records.append(run_once(args.workload, seed, args.seconds, 0))
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(records[-1]["metrics"].items()))
        print(f"seed {seed}: {values}", flush=True)
    body = {"workload": args.workload, "seeds": seeds, "runs": records,
            "summary": summary(records) if len(records) > 1 else {}}
    for key, s in sorted(body["summary"].items()):
        print(f"{key}: median {s['median']:.5g} {s['unit']}, spread {100 * s['spread']:.1f}%")
    if args.traced:
        body["traced"] = run_once(args.workload, seeds[0], args.seconds, 1)
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(body, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
