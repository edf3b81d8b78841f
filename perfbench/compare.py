"""Compare two sets of benchmark runs, metric by metric and workload by
workload.

Usage::

    python3 perfbench/compare.py BASE NEW [--spec BENCHMARK.json]

``BASE`` and ``NEW`` are each a directory of result files written by
``run.py`` (``.perfbench/results/*.json``) or of saved standard outputs
of ``run.py`` (the report lines give the workload; the last line gives
the metrics).  Untraced runs are compared on the ``end_to_end`` metrics
of the spec, with each metric's bound.

Each (metric, workload) pair is labelled by this rule:

* ``improved`` -- NEW is better in at least 9/10 of the run pairs (runs
  paired in order of seed; ties count for neither side) and the medians
  differ by more than BASE's interquartile range; or, when a side's
  spread exceeds the bound, every NEW run is better than every BASE run;
* ``unresolved`` -- otherwise, when either side's interquartile range,
  as a share of its median, exceeds the bound;
* ``worse`` -- NEW's median is worse than BASE's by more than the bound;
* ``no worse`` -- everything else.

Exit status is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _from_stdout(text: str):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    head = re.match(r"workload (\S+) seed (-?\d+)", lines[0])
    try:
        last = json.loads(lines[-1])
    except ValueError:
        return None
    if head is None or "metrics" not in last:
        return None
    return {"workload": head.group(1), "seed": int(head.group(2)),
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def load_runs(directory: Path):
    """``{workload: [run, ...]}`` with runs sorted by seed."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file() or path.name.endswith("-spans.json"):
            continue
        text = path.read_text(encoding="utf-8")
        run = None
        try:
            doc = json.loads(text)
        except ValueError:
            run = _from_stdout(text)
        else:
            if isinstance(doc, dict) and doc.get("trace") == 0 and "end_to_end" in doc:
                run = {"workload": doc["workload"], "seed": doc["env"]["seed"],
                       "metrics": {k: v["value"] for k, v in doc["end_to_end"].items()}}
        if run is not None:
            runs.setdefault(run["workload"], []).append(run)
    for values in runs.values():
        values.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def classify(base, new, better: str, bound: float) -> dict:
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    pairs = min(len(base), len(new))
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    base_spread = (b3 - b1) / abs(bmed) if bmed else float("inf")
    new_spread = (n3 - n1) / abs(nmed) if nmed else float("inf")
    worse_by = -sign * (nmed - bmed) / abs(bmed) if bmed else float("inf")
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    noisy = base_spread > bound or new_spread > bound
    if noisy:
        label = "improved" if all_better else "unresolved"
    elif pairs and wins >= 0.9 * pairs and abs(nmed - bmed) > (b3 - b1) and worse_by < 0:
        label = "improved"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "no worse"
    return {"label": label, "base_median": bmed, "new_median": nmed,
            "base_iqr_frac": base_spread, "new_iqr_frac": new_spread,
            "wins": wins, "pairs": pairs, "change": -worse_by}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    base, new = load_runs(args.base), load_runs(args.new)
    rows = []
    for workload in sorted(set(base) | set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name] for r in base.get(workload, ()) if name in r["metrics"]]
            n = [r["metrics"][name] for r in new.get(workload, ()) if name in r["metrics"]]
            if not b or not n:
                rows.append({"workload": workload, "metric": name, "label": "missing"})
                continue
            row = classify(b, n, metric["better"], metric["bound"])
            rows.append(dict(row, workload=workload, metric=name))
    print(f"{'workload':<18} {'metric':<14} {'base':>12} {'new':>12} "
          f"{'change':>8} {'wins':>6}  label")
    for row in rows:
        if row["label"] == "missing":
            print(f"{row['workload']:<18} {row['metric']:<14} {'':>12} {'':>12} "
                  f"{'':>8} {'':>6}  missing")
            continue
        print(f"{row['workload']:<18} {row['metric']:<14} {row['base_median']:>12.4f} "
              f"{row['new_median']:>12.4f} {row['change']:>+8.1%} "
              f"{row['wins']:>3}/{row['pairs']:<2}  {row['label']}")
    return 1 if any(row["label"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
