"""Write ``reference.json``: the values this commit produces for the answers
that have no acceptance target in ``tests/test_acceptance.py``.

    python3 perfbench/make_reference.py

Threshold references keep the bisection width they were produced at, which
is the tolerance they are checked with.  zm verdicts are computed at both
ends of the seeded error jitter and must agree there, so that one verdict
holds for every seed.  Run it only when a change is meant to move these
values, and say so where the change is described.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bpbounds.cli as cli  # noqa: E402

import workloads  # noqa: E402


def produce(answers, files) -> dict:
    for path, text in files.items():
        path.write_text(text)
    out = {}
    for ans in answers:
        with redirect_stdout(io.StringIO()):
            rc = cli.main(list(ans["argv"]))
        if rc != 0:
            raise SystemExit(f"{ans['key']}: exit {rc}")
        out[ans["key"]] = workloads.read_output(ans)
    return out


def main() -> None:
    work = HERE.parent / ".perfbench_work" / "reference"
    (work / "out").mkdir(parents=True, exist_ok=True)
    ref = {}
    for size in ("full", "tiny"):
        for name in ("table-36", "region-hd"):
            for key, val in produce(*workloads.build(name, 0, work, size)).items():
                if "value" in val:
                    _, bound, fam = key.split("/")
                    if fam not in workloads.ACCEPTANCE.get(bound, {}):
                        ref[key] = {"value": val["value"], "tol": val["hi"] - val["lo"]}
                else:
                    ref[key] = {"overlays": val["overlays"],
                                "decodable": val["decodable"]}
        runs = [produce(*workloads.build("zm-sweep", 0, work, size, eps_shift=s))
                for s in (-workloads.ZM_JITTER, 0.0, workloads.ZM_JITTER)]
        for key in runs[0]:
            if key.startswith("zm-bound/"):
                verdicts = {r[key]["verdict"] for r in runs}
                if len(verdicts) != 1:
                    raise SystemExit(f"{key}: verdict changes inside the jitter: {verdicts}")
                ref[key] = {"verdict": verdicts.pop()}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
