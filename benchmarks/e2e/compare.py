"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the parent (or the first of two repeat runs), B the change.  For
every (workload, end-to-end metric) pair prints both medians, how much
worse B reads as a share of A, and the bound.  Verdicts:

* ``REGRESSION`` — B is worse than A by more than the bound;
* ``unresolved`` — not a regression, but the repetitions' quartile
  spread on either side exceeds the bound, so "unchanged" cannot be
  claimed (unless every B sample beats every A sample);
* ``ok`` otherwise.

Also flags changed selection digests, failed output checks, count-type
layer metrics that did not repeat exactly, and environment blocks that
differ (then the two files are not comparable).  Exits 1 on a
regression or on failed checks in B, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import PER_LAYER  # noqa: E402

COUNT_METRICS = [m.name for m in PER_LAYER if m.kind == "count"]


def spread(samples: list[float]) -> float | None:
    """Quartile distance over the median; needs four samples to mean much."""
    if len(samples) < 4:
        return None
    q = statistics.quantiles(samples, n=4)
    return (q[2] - q[0]) / statistics.median(samples)


def verdict(a: dict[str, Any], b: dict[str, Any]) -> tuple[str, float, float | None]:
    lower = a["better"] == "lower"
    worse_by = (b["value"] - a["value"]) / a["value"] * (1 if lower else -1)
    spreads = [s for s in (spread(a["samples"]), spread(b["samples"])) if s is not None]
    widest = max(spreads, default=None)
    if worse_by > a["bound"]:
        return "REGRESSION", worse_by, widest
    if widest is not None and widest > a["bound"]:
        if lower:
            b_wins = max(b["samples"]) < min(a["samples"])
        else:
            b_wins = min(b["samples"]) > max(a["samples"])
        if not b_wins:
            return "unresolved", worse_by, widest
    return "ok", worse_by, widest


def compare(a: dict[str, Any], b: dict[str, Any]) -> int:
    status = 0
    for key in ("env", "seed", "run_seconds", "smoke"):
        if a.get(key) != b.get(key):
            print(f"NOT COMPARABLE: {key} differs: {a.get(key)!r} vs {b.get(key)!r}")
    print(f"A {a['git_sha']}\nB {b['git_sha']}")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"\n{name}: missing from B")
            status = 1
            continue
        print(f"\n{name}")
        if wa["geometry"] != wb["geometry"]:
            print("  NOT COMPARABLE: geometry differs")
        for metric, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"][metric]
            word, worse_by, widest = verdict(ma, mb)
            shown = "n/a" if widest is None else f"{widest:.1%}"
            print(f"  {metric:14s} A {ma['value']:>12.6g}  B {mb['value']:>12.6g} {ma['unit']:5s}"
                  f" worse by {worse_by:+7.1%}  bound {ma['bound']:.0%}  spread {shown:>6s}  {word}")
            if word == "REGRESSION":
                status = 1
        if wb["failed"]:
            print(f"  FAILED CHECKS in B: {wb['failures']}")
            status = 1
        if wa["selection_digest"] != wb["selection_digest"]:
            print("  digest changed: outputs are not bitwise equal")
        for metric in COUNT_METRICS:
            va, vb = wa["per_layer"][metric]["value"], wb["per_layer"][metric]["value"]
            if va != vb:
                print(f"  count changed: {metric} {va:g} -> {vb:g}")
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    return compare(a, b)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
