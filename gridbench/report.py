"""Print every benchmark metric of every workload, by name and with units.

    python3 gridbench/report.py --seed 1

Each workload runs in its own process, once untraced for the end-to-end
metrics and once traced for the per-layer ones, for BENCHMARK.json's
run_seconds, so memory peaks do not mix and the end-to-end figures
carry no tracing cost.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=HERE.parent, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    notes = [line for line in lines
             if line.startswith(("# fail_ratio", "# req_tail_ms", "# setup_s",
                                 "# absent", "# unscaled", "# reference"))]
    return json.loads(lines[-1]), notes, proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    correct = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        print(f"== {workload} (seed {args.seed}, {SPEC['run_seconds']} s)")
        for trace in (0, 1):
            result, notes, errors = run(workload, args.seed, trace)
            correct &= result["correct"]
            kind = ("traced, per-layer values per traced pass" if trace
                    else "untraced")
            print(f"-- {kind}: {result['attempted']} requests, "
                  f"{result['failed']} failed")
            for name, metric in result["metrics"].items():
                print(f"{name:44s} {metric['value']:14.6g} {metric['unit']}")
            for note in notes:
                print(note)
            sys.stderr.write(errors)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
