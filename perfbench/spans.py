"""In-memory span tracer installed around the public functions of bpbounds.

The tracer wraps each function listed in ``LAYERS`` at every module
attribute that refers to it (``bpbounds.search.iterate_bound`` as well as
``bpbounds.binary_bounds.iterate_bound``), so calls are seen whichever name
the caller looks them up by.  Wrappers are installed for one traced pass and
removed afterwards, so untraced passes run the program untouched.

Each span is kept as (name, parent, start, end, answer) in flat arrays and
written out as one ``.npz`` file at the end.  Self time (span time minus the
time covered by child spans), call counts and counts read from return values
(iterations, inconclusive verdicts, DE samples, search probes) are folded in
as spans close.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

# module -> public functions wrapped.  Cheap per-iteration helpers such as
# ub_cb_step are left out: they would add tracing cost to every iteration
# and their time is reported as self time of iterate_bound.
LAYERS = {
    "channels": ("cb_of", "sb_of", "cb_vector_of", "parse_channel_spec"),
    "extremal": ("variable_node_upper_family",),
    "binary_bounds": ("iterate_bound", "ub_sb_step", "two_dim_check_step",
                      "two_dim_var_step", "phi_variable_sb",
                      "sb_of_bsc_combination"),
    "search": ("channel_threshold", "measure_threshold", "region_sweep"),
    "de": ("de_threshold", "de_decodable", "de_step", "new_population",
           "population_pe"),
    "zm": ("zm_iterate", "zm_bound_step", "sufficient_stability",
           "necessary_stability_violated", "convergence_rate"),
    "cli": ("main",),
}

SEARCHES = {"search.channel_threshold", "search.measure_threshold"}
VERDICTS = {"binary_bounds.iterate_bound", "de.de_decodable"}

# sb_of families with a quadrature; closed forms are counted as "closed"
_SB_FAMILY = {"BiAwgn": "biawgn", "BiRayleigh": "rayleigh"}


def _span_name(name: str, args) -> str:
    """Per-family sb_of spans and per-alphabet zm_bound_step spans."""
    if name == "channels.sb_of" and args:
        return f"{name}.{_SB_FAMILY.get(type(args[0]).__name__, 'closed')}"
    if name == "zm.zm_bound_step" and args:
        m = getattr(args[0], "m", None)
        if m is not None:
            return f"{name}.m{m}"
    return name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_answer = array("i")
        self.answer = -1
        self._stack: list[list] = []      # [span index, name, child time]
        self._search: list[int] | None = None   # [verdicts, sb_of calls]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._installed: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import bpbounds  # noqa: F401  (loads every submodule)

        originals = {}
        for mod_name, funcs in LAYERS.items():
            mod = sys.modules.get(f"bpbounds.{mod_name}")
            for fname in funcs:
                fn = getattr(mod, fname, None) if mod is not None else None
                if callable(fn):
                    originals[id(fn)] = (fn, self._wrap(f"{mod_name}.{fname}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bpbounds"
                                   or mod_name.startswith("bpbounds.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(_span_name(name, args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._on_return(name, args, result)
            return result
        return traced

    def _open(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_answer.append(self.answer)
        self.span_end.append(0.0)
        frame = [idx, name, 0.0]
        self._stack.append(frame)
        if name in SEARCHES:
            if self._search is None:
                self._search = [0, 0]
                frame.append(True)           # outermost search owns the probes
        elif self._search is not None:
            if name in VERDICTS:
                self._search[0] += 1
            elif name.startswith("channels.sb_of."):
                self._search[1] += 1
        self.span_start.append(time.perf_counter())
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        idx, name, child = frame[0], frame[1], frame[2]
        dur = end - self.span_start[idx]
        self.span_end[idx] = end
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if len(frame) > 3:
            verdicts, sb_calls = self._search
            # ub-sb-star probes compare sb_of against SB* and run no recursion
            self.counts["search.probes"] += verdicts or sb_calls
            self._search = None

    def _on_return(self, name: str, args, result) -> None:
        if name == "binary_bounds.iterate_bound":
            self.counts["binary_bounds.iterate_bound.iterations"] += int(
                getattr(result, "iterations", 0))
            if getattr(result, "verdict", None) == "inconclusive":
                self.counts["binary_bounds.iterate_bound.inconclusive"] += 1
        elif name == "de.de_decodable":
            its = result[1] if isinstance(result, tuple) and len(result) > 1 \
                else getattr(result, "iterations", 0)
            self.counts["de.de_decodable.iterations"] += int(its)
        elif name == "zm.zm_iterate":
            traj = result[1] if isinstance(result, tuple) and len(result) > 1 else ()
            if traj:
                self.counts["zm.zm_iterate.iterations"] += int(
                    getattr(traj[-1], "iteration", len(traj) - 1))
        elif name == "de.de_step" and args:
            samples = getattr(args[0], "samples", None)
            if samples is not None:
                self.counts["de.de_step.samples"] += int(len(samples))

    # -- aggregates -------------------------------------------------------

    def _match(self, table, prefix: str):
        return sum(v for k, v in table.items()
                   if k == prefix or k.startswith(prefix + "."))

    def calls_of(self, prefix: str) -> int:
        return int(self._match(self.calls, prefix))

    def self_of(self, prefix: str) -> float:
        return float(self._match(self.self_s, prefix))

    def total_of(self, prefix: str) -> float:
        return float(self._match(self.total_s, prefix))

    def write(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 answer=np.frombuffer(self.span_answer, dtype=np.int32))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metric name -> (value, unit) from one traced answer set."""
    c, s = tr.calls_of, tr.self_of
    searches = c("search.channel_threshold") + c("search.measure_threshold")
    out = {
        "channels.sb_of.calls": (c("channels.sb_of"), "count"),
        "channels.sb_of.self_s": (s("channels.sb_of"), "s"),
        "channels.sb_of.rayleigh.self_s": (s("channels.sb_of.rayleigh"), "s"),
        "channels.sb_of.biawgn.self_s": (s("channels.sb_of.biawgn"), "s"),
        "channels.cb_vector_of.self_s": (s("channels.cb_vector_of"), "s"),
        "extremal.variable_node_upper_family.calls":
            (c("extremal.variable_node_upper_family"), "count"),
        "extremal.variable_node_upper_family.self_s":
            (s("extremal.variable_node_upper_family"), "s"),
        "binary_bounds.iterate_bound.calls": (c("binary_bounds.iterate_bound"), "count"),
        "binary_bounds.iterate_bound.self_s": (s("binary_bounds.iterate_bound"), "s"),
        "binary_bounds.iterate_bound.iterations":
            (tr.counts["binary_bounds.iterate_bound.iterations"], "count"),
        "binary_bounds.iterate_bound.inconclusive_frac":
            (_ratio(tr.counts["binary_bounds.iterate_bound.inconclusive"],
                    c("binary_bounds.iterate_bound")), "ratio"),
        "binary_bounds.two_dim_check_step.self_s":
            (s("binary_bounds.two_dim_check_step"), "s"),
        "binary_bounds.two_dim_var_step.calls": (c("binary_bounds.two_dim_var_step"), "count"),
        "binary_bounds.two_dim_var_step.self_s": (s("binary_bounds.two_dim_var_step"), "s"),
        "binary_bounds.phi_variable_sb.calls": (c("binary_bounds.phi_variable_sb"), "count"),
        "binary_bounds.phi_variable_sb.self_s": (s("binary_bounds.phi_variable_sb"), "s"),
        "binary_bounds.sb_of_bsc_combination.calls":
            (c("binary_bounds.sb_of_bsc_combination"), "count"),
        "binary_bounds.sb_of_bsc_combination.self_s":
            (s("binary_bounds.sb_of_bsc_combination"), "s"),
        "binary_bounds.ub_sb_step.self_s": (s("binary_bounds.ub_sb_step"), "s"),
        "search.channel_threshold.calls": (c("search.channel_threshold"), "count"),
        "search.channel_threshold.self_s": (s("search.channel_threshold"), "s"),
        "search.probes": (tr.counts["search.probes"], "count"),
        "search.probes_per_threshold":
            (_ratio(tr.counts["search.probes"], searches), "count"),
        "search.measure_threshold.self_s": (s("search.measure_threshold"), "s"),
        "search.region_sweep.self_s": (s("search.region_sweep"), "s"),
        "de.de_threshold.self_s": (s("de.de_threshold"), "s"),
        "de.de_decodable.calls": (c("de.de_decodable"), "count"),
        "de.de_decodable.self_s": (s("de.de_decodable"), "s"),
        "de.de_decodable.iterations": (tr.counts["de.de_decodable.iterations"], "count"),
        "de.de_step.calls": (c("de.de_step"), "count"),
        "de.de_step.self_s": (s("de.de_step"), "s"),
        "de.samples_per_s": (_ratio(tr.counts["de.de_step.samples"],
                                    tr.total_of("de.de_step")), "1/s"),
        "de.new_population.self_s": (s("de.new_population"), "s"),
        "de.population_pe.self_s": (s("de.population_pe"), "s"),
        "zm.zm_iterate.calls": (c("zm.zm_iterate"), "count"),
        "zm.zm_iterate.iterations": (tr.counts["zm.zm_iterate.iterations"], "count"),
        "zm.zm_bound_step.calls": (c("zm.zm_bound_step"), "count"),
        "zm.zm_bound_step.self_s": (s("zm.zm_bound_step"), "s"),
    }
    for m in (8, 64, 256, 1024):
        out[f"zm.zm_bound_step.m{m}.self_s"] = (s(f"zm.zm_bound_step.m{m}"), "s")
    out["cli.main.calls"] = (c("cli.main"), "count")
    out["cli.main.self_s"] = (s("cli.main"), "s")
    return out


def bypass_violations(workload: str, tr: Tracer) -> list[str]:
    """Layers a workload is meant to bypass must see no calls."""
    rules = [("de", "de-oracle", [f"de.{f}" for f in LAYERS["de"]]),
             ("zm", "zm-sweep", [f"zm.{f}" for f in LAYERS["zm"]])]
    out = []
    for layer, owner, names in rules:
        if workload != owner:
            n = sum(tr.calls_of(name) for name in names)
            if n:
                out.append(f"{n} {layer}.* calls outside {owner}")
    if workload == "de-oracle" and tr.calls_of("channels.sb_of"):
        out.append(f"{tr.calls_of('channels.sb_of')} channels.sb_of calls in de-oracle")
    return out
