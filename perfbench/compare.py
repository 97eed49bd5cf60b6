#!/usr/bin/env python3
"""Summarize one result set, or compare two, written by perfbench/run.py.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of run results (run.py --out DIR). With one
directory, each metric of each workload is listed with its median,
quartiles and quartile spread as a share of the median. With two, runs
are paired by workload, trace mode and seed, and each metric gets both
sides' median and quartiles, the pairs the change won, and a verdict
(improved, no worse, worse, unresolved) under the bounds of
BENCHMARK.json; `failed_frac` is shown as a change in points. A line
marked INPUTS DIFFER means a seed produced different inputs on the two
sides, so that workload's comparison is not like for like; OUTCOMES
DIFFER means the program decided differently on the same inputs.
"""

import json
import os
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))

# metrics where a larger value is better; everything else is lower-better
HIGHER_BETTER = {"maxdet.decided_ratio"}


def load_set(path):
    """{(workload, trace): {seed: result}}, the newest result per seed."""
    out = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(path, name)) as fh:
            r = json.load(fh)
        key = (r["workload"], r["trace"])
        prev = out.setdefault(key, {}).get(r["seed"])
        if prev is None or r.get("stamp", 0) >= prev.get("stamp", 0):
            out[key][r["seed"]] = r
    return out


def metric_values(result):
    vals = dict(result["metrics"])
    if result.get("layer"):
        vals.update(result["layer"])
    return {k: v for k, v in vals.items() if isinstance(v, (int, float))
            and not isinstance(v, bool)}


def load_bounds(root):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def _q(values):
    q1, med, q3 = stats.quartiles(values)
    return "%.6g [%.6g, %.6g]" % (med, q1, q3)


def summarize(rs):
    lines = []
    for (workload, trace), runs in sorted(rs.items()):
        seeds = sorted(runs)
        lines.append("%s trace=%d: %d runs, seeds %s"
                     % (workload, trace, len(seeds), seeds))
        per = {}
        for s in seeds:
            for k, v in metric_values(runs[s]).items():
                per.setdefault(k, []).append(v)
        for k, vals in sorted(per.items()):
            q1, med, q3 = stats.quartiles(vals)
            share = (q3 - q1) / abs(med) if med else float("nan")
            lines.append("  %-42s median %-12.6g q1 %-12.6g q3 %-12.6g "
                         "spread %.4f" % (k, med, q1, q3, share))
    return lines


def compare(parent, change, bounds):
    lines = []
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        a_runs, b_runs = parent.get(key, {}), change.get(key, {})
        seeds = sorted(set(a_runs) & set(b_runs))
        lines.append("%s trace=%d: %d seed-matched pairs"
                     % (workload, trace, len(seeds)))
        if not seeds:
            continue
        differ = [s for s in seeds if a_runs[s]["input_fingerprint"]
                  != b_runs[s]["input_fingerprint"]]
        if differ:
            lines.append("  INPUTS DIFFER on seeds %s" % differ)
        moved = [s for s in seeds if a_runs[s]["outcome"]["digest"]
                 != b_runs[s]["outcome"]["digest"]]
        if moved:
            lines.append("  OUTCOMES DIFFER on seeds %s" % moved)
        names = set.intersection(*(set(metric_values(r[s]))
                                   for r in (a_runs, b_runs) for s in seeds))
        for name in sorted(names):
            a = [metric_values(a_runs[s])[name] for s in seeds]
            b = [metric_values(b_runs[s])[name] for s in seeds]
            if name == "failed_frac":
                lines.append("  %-42s %s -> %s  change %+.4f"
                             % (name, _q(a), _q(b),
                                stats.quartiles(b)[1]
                                - stats.quartiles(a)[1]))
                continue
            better = "higher" if name in HIGHER_BETTER else "lower"
            v, won, lost = stats.verdict(a, b, better, bounds.get(name))
            lines.append("  %-42s %s -> %s  won %d/%d lost %d  %s"
                         % (name, _q(a), _q(b), won, len(seeds), lost, v))
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load_set(p) for p in argv]
    if len(sets) == 1:
        lines = summarize(sets[0])
    else:
        lines = compare(sets[0], sets[1],
                        load_bounds(os.path.dirname(HERE)))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
