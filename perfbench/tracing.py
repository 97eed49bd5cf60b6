"""Spans recorded around calls into the ltvadapt layers.

The benchmark wraps public functions of each module from the outside:
`hybrid`, `synthesis`, `maxdet`, `linalg`, `proximity` and `monitor` look
these names up through their module globals at call time, so replacing
the module attribute reroutes every internal call as well. Methods
(`DataWindow.push`, the plants' `eval`) are wrapped on their classes.
Spans stay in memory until the run ends; self time and the per-layer
metrics are derived from them afterwards.
"""

import functools
import json
import time

# spans that start a new operation id: one design attempt, one bundle
# check, one scenario run or one trajectory diagnosis
OP_ROOTS = frozenset({
    "hybrid.run", "synthesis.synthesize", "synthesis.verify_property",
    "monitor.default_rates", "monitor.thm_diagnostics",
})


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, end, parent, op, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.info = info

    def to_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "info": self.info}


class Tracer:
    """In-memory span recorder; `parent` and `op` are span indices
    (-1 at the top level)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if name in OP_ROOTS:
            op = idx
        else:
            op = self.spans[parent].op if parent >= 0 else -1
        self.spans.append(Span(name, self.clock(), None, parent, op))
        self._stack.append(idx)
        return idx

    def close(self, idx, info=None):
        span = self.spans[idx]
        span.end = self.clock()
        span.info = info
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span %s closed out of order" % span.name)

    def write_jsonl(self, fh):
        for s in self.spans:
            fh.write(json.dumps(s.to_dict()) + "\n")


def _wrap(tracer, name, fn, describe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx, {"error": type(exc).__name__})
            raise
        tracer.close(idx, describe(args, kwargs, result) if describe
                     else None)
        return result
    return wrapper


def _solution_info(args, kwargs, sol):
    return {"status": sol.status, "iterations": int(sol.iterations)}


def _sample_info(args, kwargs, result):
    return {"samples": len(result)}


def _run_info(args, kwargs, traj):
    return {"steps": int(traj.records[-1].k), "status": traj.status}


def targets():
    """(owner, attribute, span name, result describer) for every wrapped
    callable. Imported lazily so that this module loads without numpy."""
    from ltvadapt import (hybrid, linalg, maxdet, monitor, plants,
                          proximity, synthesis, window)
    out = [
        (hybrid, "run", "hybrid.run", _run_info),
        (synthesis, "synthesize", "synthesis.synthesize", None),
        (synthesis, "build_design_problem",
         "synthesis.build_design_problem", None),
        (synthesis, "extract_bundle", "synthesis.extract_bundle", None),
        (synthesis, "verify_property", "synthesis.verify_property", None),
        (maxdet, "solve_maxdet", "maxdet.solve_maxdet", _solution_info),
        (maxdet, "solve_feasibility", "maxdet.solve_feasibility",
         _solution_info),
        (maxdet, "check_point", "maxdet.check_point", None),
        (proximity, "sample_members", "proximity.sample_members",
         _sample_info),
        (proximity, "min_inflation", "proximity.min_inflation", None),
        (proximity, "ellipsoid_params", "proximity.ellipsoid_params", None),
        (monitor, "default_rates", "monitor.default_rates", None),
        (monitor, "thm_diagnostics", "monitor.thm_diagnostics", None),
        (monitor, "pi_product", "monitor.pi_product", None),
        (window.DataWindow, "push", "window.push", None),
    ]
    for fn in ("sym_eig", "gen_eig_max", "pinv", "spectral_norm",
               "pd_inverse"):
        out.append((linalg, fn, "linalg." + fn, None))
    # only classes that define eval themselves, so no call is counted twice
    stack = [plants.LtvPlant]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "eval" in vars(cls) and cls is not plants.LtvPlant:
            out.append((cls, "eval", "plants.eval", None))
    return out


class Patch:
    """Replace attributes for the duration of a `with` block."""

    def __init__(self, replacements):
        self._replacements = replacements  # (owner, attribute, new value)
        self._saved = []

    def __enter__(self):
        for owner, attr, new in self._replacements:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved = []
        return False


def instrument(tracer):
    """Patch that routes every target through `tracer`. A target the
    package no longer has is skipped; its counts read 0."""
    return Patch([(owner, attr, _wrap(tracer, name, getattr(owner, attr),
                                      describe))
                  for owner, attr, name, describe in targets()
                  if hasattr(owner, attr)])


# ---------------------------------------------------------------------------
# derived quantities


def self_times(spans):
    """Per-span duration minus the part of it covered by child spans."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, s.start)
            hi = min(spans[c].end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def layer_shares(spans, wall_s):
    """Self time of each layer (module) as a share of the pass wall time;
    the rest of the pass is benchmark code outside every span."""
    out = {}
    for s, st in zip(spans, self_times(spans)):
        layer = s.name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + st / wall_s
    return dict(sorted(out.items()))


PHASE1_OUTCOMES = ("feasible", "infeasible", "maxiter")


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(spans):
    """Per-layer counts and times of one traced pass.

    Values that have no base on this pass (a ratio or per-step cost of a
    layer that did not run) are None.
    """
    selfs = self_times(spans)
    calls, self_s, incl = {}, {}, {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        incl[s.name] = incl.get(s.name, 0.0) + (s.end - s.start)

    def info(name, key):
        """(span index, span, self time, info value) of finished spans."""
        return [(i, s, st, s.info[key])
                for i, (s, st) in enumerate(zip(spans, selfs))
                if s.name == name and s.info and key in s.info]

    m = {}
    # phase I split by outcome; phase II is the rest of each maxdet solve
    # whose phase I found a feasible point
    for o in PHASE1_OUTCOMES:
        m["maxdet.phase1.calls." + o] = 0
        m["maxdet.phase1.steps." + o] = 0
        m["maxdet.phase1.self_s." + o] = 0.0
    phase1 = {}
    for _, s, st, status in info("maxdet.solve_feasibility", "status"):
        o = status.lower()
        m["maxdet.phase1.calls." + o] += 1
        m["maxdet.phase1.steps." + o] += s.info["iterations"]
        m["maxdet.phase1.self_s." + o] += st
        phase1[s.parent] = (status, s.info["iterations"])
    p1_calls, p1_steps, p1_self = (
        sum(m["maxdet.phase1.%s.%s" % (kind, o)] for o in PHASE1_OUTCOMES)
        for kind in ("calls", "steps", "self_s"))
    m["maxdet.decided_ratio"] = _ratio(
        p1_calls - m["maxdet.phase1.calls.maxiter"], p1_calls)
    p2_steps = 0
    for i, _, _, iters in info("maxdet.solve_maxdet", "iterations"):
        status, p1_iters = phase1.get(i, (None, 0))
        if status == "Feasible":
            p2_steps += iters - p1_iters
    m["maxdet.phase2.steps"] = p2_steps
    m["maxdet.phase2.self_s"] = self_s.get("maxdet.solve_maxdet", 0.0)
    m["maxdet.phase1.ms_per_step"] = _ratio(1e3 * p1_self, p1_steps)
    m["maxdet.phase2.ms_per_step"] = _ratio(
        1e3 * m["maxdet.phase2.self_s"], p2_steps)

    def count(name):
        m[name + ".calls"] = calls.get(name, 0)

    def self_time(name):
        m[name + ".self_s"] = self_s.get(name, 0.0)

    for name in ("maxdet.check_point", "synthesis.synthesize",
                 "synthesis.verify_property", "linalg.sym_eig",
                 "linalg.gen_eig_max", "linalg.pinv", "linalg.spectral_norm",
                 "proximity.sample_members", "proximity.min_inflation",
                 "proximity.ellipsoid_params", "monitor.pi_product",
                 "hybrid.run", "window.push"):
        count(name)
        self_time(name)
    for name in ("synthesis.build_design_problem", "synthesis.extract_bundle",
                 "monitor.default_rates", "monitor.thm_diagnostics"):
        self_time(name)
    count("linalg.pd_inverse")
    count("plants.eval")
    m["linalg.self_s"] = sum(v for k, v in self_s.items()
                             if k.startswith("linalg."))
    samples = sum(n for _, s, _, n in info("proximity.sample_members",
                                           "samples")
                  if s.op >= 0
                  and spans[s.op].name == "synthesis.verify_property")
    m["synthesis.verify_property.us_per_sample"] = _ratio(
        1e6 * incl.get("synthesis.verify_property", 0.0), samples)
    m["hybrid.steps"] = sum(n for _, _, _, n in info("hybrid.run", "steps"))
    return dict(sorted(m.items()))
