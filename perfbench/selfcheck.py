"""Fast self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload with ``--size tiny``, untraced and traced.  Passes when
each run exits 0, emits exactly the end-to-end (untraced) or per-layer
(traced) metrics of BENCHMARK.json with their units, and no answer failed.
"""

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size", "tiny",
             "--seconds", "1", "--seed", "7", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            problems.append(f"trace={trace}: exit {proc.returncode}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in workloads.NAMES:
            got = {k.split(".", 1)[1]: v["unit"] for k, v in result["metrics"].items()
                   if k.startswith(name + ".")}
            if got != want:
                problems.append(f"{name} trace={trace}: missing or wrong unit "
                                f"{sorted(set(want.items()) - set(got.items()))}, "
                                f"extra {sorted(set(got.items()) - set(want.items()))}")
        if result["failed"] or not result["correct"]:
            problems.append(f"trace={trace}: {result['failed']} of {result['attempted']} "
                            f"answers failed, correct={result['correct']}")
    for p in problems:
        print("selfcheck:", p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
