"""Run every workload untraced and traced, and print both tables.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each run is a fresh ``perfbench/run.py`` process (peak RSS is per process).
The first table holds the end-to-end metrics and ``failed_runs`` (failed
out of attempted calls, untraced and traced runs together); the second holds
the per-layer metrics of the traced runs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = p.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    plain = {w: run(w, args.seed, args.seconds, 0) for w in names}
    traced = {w: run(w, args.seed, args.seconds, 1) for w in names}

    e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    print(f"{'workload':10s}" + "".join(f"{n + ' [' + u + ']':>18s}" for n, u in e2e)
          + f"{'failed_runs':>14s}")
    for w in names:
        cells = [plain[w]["metrics"].get(n, {}).get("value", float("nan"))
                 for n, _ in e2e]
        failed = plain[w]["failed"] + traced[w]["failed"]
        attempted = plain[w]["attempted"] + traced[w]["attempted"]
        print(f"{w:10s}" + "".join(f"{c:18.4f}" for c in cells)
              + f"{f'{failed}/{attempted}':>14s}")
    print()
    print(f"{'per-layer metric':40s}{'unit':>7s}" + "".join(f"{w:>14s}" for w in names))
    for m in SPEC["per_layer"]:
        cells = [traced[w]["metrics"].get(m["name"], {}).get("value", float("nan"))
                 for w in names]
        print(f"{m['name']:40s}{m['unit']:>7s}" + "".join(f"{c:14.6g}" for c in cells))
    ok = all(r["correct"] for r in [*plain.values(), *traced.values()])
    print(f"\nall outputs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
