"""The four benchmark workloads: their inputs, the CLI answers they ask for,
and the reference each answer is checked against.

An *answer* is one ``bpbounds.cli.main(argv)`` call.  ``prepare`` writes a
workload's inputs (ensemble JSON files and the argv of every answer) into a
work directory; the timed run only reads them back.  The seed sets the DE
``--seed`` and jitters the zm error ladder; every other input is fixed.

References come from two places: the acceptance targets and tolerances of
``tests/test_acceptance.py`` (copied below), and ``reference.json``, which
holds the values the seed commit produced where no acceptance target
exists (lb-cb, SB* on bec, region overlays and certified points, zm
verdicts), each with the bisection width it was produced at.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

NAMES = ("table-36", "region-hd", "de-oracle", "zm-sweep")

# answer sets; "tiny" is the harness self-check size
TABLE = {
    "full": [("ub-cb", ("bec", "rayleigh", "biawgn", "bilc", "bsc", "zchan"), "1e-4"),
             ("lb-cb", ("bec", "bsc", "biawgn", "bilc", "rayleigh"), "1e-4"),
             ("ub-sb", ("bsc", "rayleigh", "biawgn", "bilc", "bec"), "2e-4"),
             ("ub-cbsb", ("bec", "bsc", "rayleigh", "biawgn", "bilc"), "2e-4"),
             ("ub-sb-star", ("bsc", "biawgn", "bilc", "rayleigh"), "2e-4")],
    "tiny": [("ub-cb", ("bsc",), "1e-4"), ("lb-cb", ("bsc",), "1e-4"),
             ("ub-sb", ("bsc",), "2e-4"), ("ub-cbsb", ("bsc",), "2e-4"),
             ("ub-sb-star", ("bsc",), "2e-4")],
}
P_STAR = "0.0837"
# sized so a pass takes a few seconds and a run repeats every answer often
# enough for its best latency to be steady
REGION = {"full": [((4, 8), "12x12"), ((5, 10), "8x8"), ((6, 12), "6x6")],
          "tiny": [((4, 8), "4x3")]}
# DE work varies with the seed by 10-20% per answer, so each family runs at
# several seeds derived from the workload seed, at a population small enough
# for a run to repeat the answer set
DE = {"full": {"families": ("bsc", "biawgn"), "pop": "12500", "seeds": 4},
      "tiny": {"families": ("bsc",), "pop": "20000", "seeds": 1}}
# rungs sit clear of every verdict change at m = 2 ... 1024, so that one
# reference verdict holds across the seeded jitter (make_reference checks),
# and clear of every change in the iteration count at m >= 64 and of all but
# a few at m <= 8, so that the jitter varies the inputs, not the work
ZM_RUNGS = (1e-5, 1e-4, 3e-4, 1.4e-3, 6.4e-3, 1.27e-2)
ZM_JITTER = 0.02          # eps = rung * 10**U(-ZM_JITTER, ZM_JITTER)
ZM = {"full": {"ms": (2, 8, 64, 256, 1024), "rungs": (0, 1, 2, 3, 4, 5),
               "ensembles": ("reg36", "irr"),
               "stability": [("reg36", 8, 2), ("irr", 8, 2),
                             ("reg36", 256, 4), ("irr", 256, 4)]},
      "tiny": {"ms": (2, 8), "rungs": (0, 5), "ensembles": ("irr",),
               "stability": [("irr", 8, 2)]}}
ENSEMBLES = {"reg36": {"lambda": [[3, 1.0]], "rho": [[6, 1.0]]},
             # lambda = 0.3x + 0.7x^2, rho = x^5: lambda_2 rho'(1) = 1.5
             "irr": {"lambda": [[2, 0.3], [3, 0.7]], "rho": [[6, 1.0]]}}
SETUP_REPEATS = {"full": 5, "tiny": 1}

# tests/test_acceptance.py: (target, tolerance) per bound and family
ACCEPTANCE = {
    "ub-cb": {"bec": (0.4294, 5e-4), "rayleigh": (0.6134, 2e-3),
              "biawgn": (0.7690, 2e-3), "bilc": (0.5221, 2e-3),
              "bsc": (0.0484, 1e-3), "zchan": (0.1844, 1e-3)},
    "ub-sb": {"bsc": (0.0708, 1e-3), "rayleigh": (0.5191, 3e-3),
              "biawgn": (0.7460, 3e-3), "bilc": (0.5610, 3e-3)},
    "ub-cbsb": {"bec": (0.4294, 5e-4), "bsc": (0.0710, 1e-3),
                "rayleigh": (0.6148, 3e-3), "biawgn": (0.7826, 3e-3),
                "bilc": (0.5670, 3e-3)},
    "ub-sb-star": {"bsc": (0.0837, 0.005), "biawgn": (0.8001, 0.01),
                   "bilc": (0.6146, 0.01), "rayleigh": (0.5804, 0.01)},
    "de": {"bsc": (0.0837, 0.005), "biawgn": (0.8790, 0.01)},
}
REGION_OVERLAY_TOL = 2e-5     # measure_threshold's default bisection width


def msc_spec(m: int, eps: float) -> str:
    """m-ary symmetric channel with error eps spread evenly off zero."""
    p = [1.0 - eps] + [eps / (m - 1)] * (m - 1)
    return "msc:" + ",".join(repr(x) for x in p)


def msc_cb_off_zero(m: int, eps: float) -> float:
    """Closed form of CB(0 -> x), x != 0, for ``msc_spec(m, eps)``."""
    q = eps / (m - 1)
    return min(1.0, 2.0 * math.sqrt((1.0 - eps) * q) + (m - 2) * q)


def ensemble_coef(name: str) -> float:
    """lambda_2 rho'(1) of a named ensemble."""
    ens = ENSEMBLES[name]
    lam2 = sum(w for k, w in ens["lambda"] if k == 2)
    return lam2 * sum(w * (k - 1) for k, w in ens["rho"])


def _answer(key, kind, argv, out, group=None, **meta):
    """One CLI call.  Answers of one ``group`` differ only in their DE seed."""
    return {"key": key, "kind": kind, "argv": argv + ["--out", str(out)],
            "out": str(out), "group": group or key, "meta": meta}


def build(workload: str, seed: int, work: Path, size: str, eps_shift=None):
    """(answers, files): the answer list of a workload and the input files
    (path -> JSON text) it reads.

    ``eps_shift`` replaces the seeded zm jitter by a fixed exponent (used
    when building references at the jitter extremes).
    """
    out = work / "out"
    answers, files = [], {}
    if workload == "table-36":
        for bound, families, tol in TABLE[size]:
            for fam in families:
                argv = ["threshold", "--bound", bound, "--family", fam, "--tol", tol]
                if bound == "ub-sb-star":
                    argv += ["--p-star", P_STAR]
                answers.append(_answer(f"threshold/{bound}/{fam}", "threshold",
                                       argv, out / f"{bound}-{fam}.json",
                                       bound=bound, family=fam))
    elif workload == "region-hd":
        for (dv, dc), grid in REGION[size]:
            ens = work / f"ensemble-{dv}-{dc}.json"
            files[ens] = json.dumps({"lambda": [[dv, 1.0]], "rho": [[dc, 1.0]]})
            argv = ["region", "--ensemble", str(ens), "--grid", grid,
                    "--p-star", P_STAR]
            answers.append(_answer(f"region/{dv}-{dc}/{grid}", "region", argv,
                                   out / f"region-{dv}-{dc}.csv"))
    elif workload == "de-oracle":
        cfg = DE[size]
        for j in range(cfg["seeds"]):
            de_seed = cfg["seeds"] * seed + j
            for fam in cfg["families"]:
                argv = ["de", "--family", fam, "--de-pop", cfg["pop"],
                        "--seed", str(de_seed)]
                answers.append(_answer(f"de/{fam}/s{j}", "de", argv,
                                       out / f"de-{fam}-{j}.json", group=f"de/{fam}",
                                       family=fam))
    elif workload == "zm-sweep":
        cfg = ZM[size]
        rng = random.Random(seed)

        def zm_answer(action, ens, m, rung):
            shift = rng.uniform(-ZM_JITTER, ZM_JITTER) if eps_shift is None else eps_shift
            eps = ZM_RUNGS[rung] * 10.0 ** shift
            path = work / f"ensemble-{ens}.json"
            files[path] = json.dumps(ENSEMBLES[ens])
            argv = ["zm", "--channel", msc_spec(m, eps), "--action", action,
                    "--ensemble", str(path)]
            return _answer(f"zm-{action}/{ens}/m{m}/r{rung}", f"zm-{action}", argv,
                           out / f"zm-{action}-{ens}-{m}-{rung}.json",
                           m=m, eps=eps, ensemble=ens)

        for ens in cfg["ensembles"]:
            for m in cfg["ms"]:
                for rung in cfg["rungs"]:
                    answers.append(zm_answer("bound", ens, m, rung))
        for ens, m, rung in cfg["stability"]:
            answers.append(zm_answer("stability", ens, m, rung))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return answers, files


def prepare(workload: str, seed: int, work: Path, size: str) -> None:
    """Write the input files and ``inputs.json`` for one workload."""
    (work / "out").mkdir(parents=True, exist_ok=True)
    answers, files = build(workload, seed, work, size)
    for path, text in files.items():
        path.write_text(text)
    (work / "inputs.json").write_text(json.dumps(answers))


def load(work: Path) -> list:
    return json.loads((work / "inputs.json").read_text())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def read_output(ans: dict) -> dict:
    """Every value an answer produced, from the files the CLI wrote."""
    if ans["kind"] == "region":
        with open(ans["out"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(ans["out"] + ".overlays.json") as fh:
            overlays = json.load(fh)
        return {"overlays": {k: overlays[k] for k in ("ub_cb", "ub_sb", "ub_sb_star")},
                "points": len(rows),
                "cb": [float(r["cb"]) for r in rows],
                "sb": [float(r["sb"]) for r in rows],
                "decodable": "".join(str(int(r["decodable"])) for r in rows),
                "iterations": [int(r["iterations"]) for r in rows]}
    with open(ans["out"]) as fh:
        data = json.load(fh)
    data.pop("schema", None)
    return data


def _near(errors, what, got, want, tol):
    if not abs(got - want) <= tol:
        errors.append(f"{what}={got!r}, reference {want!r} +- {tol:g}")


def check(ans: dict, values: dict, reference: dict) -> list[str]:
    """Reference errors of one answer (empty when it is correct)."""
    errors: list[str] = []
    meta, kind, key = ans["meta"], ans["kind"], ans["key"]
    ref = reference.get(key)
    if kind in ("threshold", "de"):
        bound = meta.get("bound", "de")
        target = ACCEPTANCE.get(bound, {}).get(meta["family"])
        if target is None and ref is None:
            return [f"no reference for {key}"]
        want, tol = target if target is not None else (ref["value"], ref["tol"])
        _near(errors, "value", values["value"], want, tol)
    elif kind == "region":
        if ref is None:
            return [f"no reference for {key}"]
        for name, want in ref["overlays"].items():
            _near(errors, name, values["overlays"][name], want, REGION_OVERLAY_TOL)
        if values["decodable"] != ref["decodable"]:
            diff = sum(a != b for a, b in zip(values["decodable"], ref["decodable"]))
            errors.append(f"certified points differ from reference at {diff} of "
                          f"{values['points']} (reference has {len(ref['decodable'])})")
    elif kind == "zm-bound":
        if ref is None:
            return [f"no reference for {key}"]
        if values["verdict"] != ref["verdict"]:
            errors.append(f"verdict {values['verdict']!r}, reference {ref['verdict']!r}")
        v = values["initial_cb_vector"]
        want = msc_cb_off_zero(meta["m"], meta["eps"])
        if len(v) != meta["m"] or abs(v[0] - 1.0) > 1e-9 \
                or max(abs(x - want) for x in v[1:]) > 1e-9:
            errors.append("initial_cb_vector differs from the closed form")
    elif kind == "zm-stability":
        rate = ensemble_coef(meta["ensemble"]) * msc_cb_off_zero(meta["m"], meta["eps"])
        _near(errors, "convergence_rate", values["convergence_rate"], rate, 1e-9 * max(1.0, rate))
        if values["sufficient"] != (rate < 1.0):
            errors.append(f"sufficient={values['sufficient']}, closed form {rate < 1.0}")
        if values["necessary_violated"] != (rate > 1.0):
            errors.append(f"necessary_violated={values['necessary_violated']}, "
                          f"closed form {rate > 1.0}")
    return errors


def cross_check(results: dict) -> dict:
    """Ordering ub-cb, ub-sb <= ub-cbsb <= lb-cb per family, each side
    allowed the sum of the two bisection widths.  Errors go to ub-cbsb."""
    errors: dict = {}

    def get(bound, fam):
        vals = results.get(f"threshold/{bound}/{fam}")
        return None if vals is None else (vals["value"], vals["hi"] - vals["lo"])

    for key in results:
        if not key.startswith("threshold/ub-cbsb/"):
            continue
        fam = key.rsplit("/", 1)[1]
        for a, b in (("ub-cb", "ub-cbsb"), ("ub-sb", "ub-cbsb"), ("ub-cbsb", "lb-cb")):
            lo, hi = get(a, fam), get(b, fam)
            if lo is not None and hi is not None and lo[0] > hi[0] + lo[1] + hi[1]:
                errors.setdefault(key, []).append(
                    f"ordering {a} <= {b} violated for {fam}: {lo[0]} > {hi[0]}")
    return errors
