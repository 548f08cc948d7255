"""``run.py --compare A B``: is B worse than A by more than a metric's bound?

``A`` and ``B`` are result files written with ``--out`` (or comma-separated
lists of them, one per run).  For every workload and end-to-end metric the
tool prints both medians with their quartiles, the change in the worse
direction as a share of A's median, the metric's bound, and a verdict:

* ``ok`` — B is not worse than A by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — the spread of either side (between runs when several
  were given, else between the quartiles of the one run) exceeds the
  bound, or the machine itself differed between the sides by more than
  the bound (ratio of their median probes), so the comparison cannot say.

Cells that only repeat a workload's headline are skipped.  Exits non-zero
when any verdict is ``worse``.
"""

from __future__ import annotations

import json
from typing import List, Tuple

from . import metrics
from .harness import quartiles


def _load(spec: str) -> List[dict]:
    runs = []
    for path in spec.split(","):
        with open(path) as handle:
            runs.append(json.load(handle))
    return runs


def _side(runs: List[dict], workload: str, metric: str) -> Tuple[float, float, float, float]:
    """(median, q1, q3, median probe) of one metric over one side's runs."""
    cells = [r["workloads"][workload] for r in runs if workload in r["workloads"]]
    cells = [c for c in cells if metric in c.get("end_to_end", {})]
    if not cells or cells[0]["end_to_end"][metric].get("mirror_of"):
        raise KeyError(metric)
    probe = quartiles([c["probe_s"] for c in cells])[1]
    if len(cells) == 1:
        value = cells[0]["end_to_end"][metric]
        return value["median"], value["q1"], value["q3"], probe
    q1, median, q3 = quartiles([c["end_to_end"][metric]["median"] for c in cells])
    return median, q1, q3, probe


def _cell(median: float, q1: float, q3: float) -> str:
    return f"{median:12.6g} [{q1:10.5g}, {q3:10.5g}]"


def compare_files(spec_a: str, spec_b: str) -> int:
    side_a, side_b = _load(spec_a), _load(spec_b)
    worse = 0
    for label, spec, side in (("A", spec_a, side_a), ("B", spec_b, side_b)):
        print(f"{label} = {len(side)} run(s): {spec if len(spec) < 100 else spec[:97] + '...'}")
    header = f"{'workload':20s} {'metric':24s} {'A median [q1, q3]':>36s} {'B median [q1, q3]':>36s} {'worse by':>9s} {'bound':>6s}  verdict"
    print(header)
    for workload, _ in metrics.WORKLOADS:
        for metric in metrics.END_TO_END:
            try:
                a, a1, a3, probe_a = _side(side_a, workload, metric.name)
                b, b1, b3, probe_b = _side(side_b, workload, metric.name)
            except KeyError:
                continue
            change = (b - a) / a if metric.better == "lower" else (a - b) / a
            spread = max((a3 - a1) / a, (b3 - b1) / b)
            timing = metric.unit in ("s", "1/s")
            drift = max(probe_a / probe_b, probe_b / probe_a) - 1.0 if timing else 0.0
            if spread > metric.bound or drift > metric.bound:
                verdict = "unresolved"
            elif change > metric.bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(
                f"{workload:20s} {metric.name:24s} {_cell(a, a1, a3):>36s} {_cell(b, b1, b3):>36s} "
                f"{change:+9.2%} {metric.bound:6.1%}  {verdict}"
            )
    print(f"{worse} worse")
    return 1 if worse else 0
