"""Read the benchmark's result records: attribution tables and comparisons.

Every run of ``run.py`` writes one JSON record to ``.perfbench_out/``.
Two commands read them back::

    # per-layer self-time table of each workload's traced runs; the rows,
    # "unattributed" included, sum to the traced wall-clock
    python3 perfbench/report.py table [DIR]

    # one result set: per workload x end-to-end metric, the median, the
    # quartiles and the spread (IQR / median) against the metric's bound;
    # two result sets: the same for both, the change of the median and a
    # verdict against the bound, plus the deterministic-count gate for
    # every seed the two sets share
    python3 perfbench/report.py compare DIR_A [DIR_B]

``compare`` exits 1 when a metric regressed beyond its bound or a
deterministic count differs between the sets, so it can gate a change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

from run import DETERMINISTIC  # noqa: E402
from spans import LAYERS  # noqa: E402


def load(directory: Path, trace: int) -> dict[str, list[dict]]:
    """Result records of ``directory`` by workload, oldest first."""
    records: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json"), key=lambda p: p.stat().st_mtime):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if record.get("trace") == trace and "workload" in record:
            records.setdefault(record["workload"], []).append(record)
    return records


def bounds() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def table(directory: Path) -> int:
    traced = load(directory, trace=1)
    if not traced:
        print(f"no traced records in {directory}", file=sys.stderr)
        return 2
    for workload, records in traced.items():
        iterations = [
            i for r in records for i in r["iterations"] if i["traced"] and "layers" in i
        ]
        if not iterations:
            continue
        wall = statistics.median(i["wall_s"] for i in iterations)
        rows = [
            (layer, statistics.median(i["layers"][layer] for i in iterations))
            for layer in LAYERS
        ]
        rows.append(
            (
                "unattributed",
                statistics.median(
                    i["wall_s"] - sum(i["layers"].values()) for i in iterations
                ),
            )
        )
        print(
            f"{workload}: median self time over {len(iterations)} traced iterations "
            f"of {len(records)} runs (traced wall {wall:.3f} s)"
        )
        print(f"  {'layer':<20}{'self s':>10}{'share':>9}")
        for layer, seconds in rows:
            print(f"  {layer:<20}{seconds:>10.4f}{seconds / wall:>8.1%}")
        print(f"  {'total':<20}{sum(s for _, s in rows):>10.4f}{'':>9}")
        overhead = [
            r["metrics"]["obs.trace_overhead_frac"]["value"]
            for r in records
            if "obs.trace_overhead_frac" in r["metrics"]
        ]
        if overhead:
            print(f"  trace overhead (median of runs): {statistics.median(overhead):+.1%}")
        print()
    return 0


def _values(records: list[dict], metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in records
        if r["correct"] and metric in r["metrics"]
    ]


def compare(first: Path, second: Path | None) -> int:
    specs = bounds()
    a_sets = load(first, trace=0)
    b_sets = load(second, trace=0) if second is not None else {}
    status = 0
    for workload in sorted(set(a_sets) | set(b_sets)):
        a_records, b_records = a_sets.get(workload, []), b_sets.get(workload, [])
        print(f"{workload}: {len(a_records)} runs" + (
            f" vs {len(b_records)} runs" if second is not None else ""))
        for name, spec in specs.items():
            a = _values(a_records, name)
            if not a:
                continue
            q1, med, q3 = quartiles(a)
            spread = (q3 - q1) / med if med else float("inf")
            line = (
                f"  {name:<22}{med:>14.6g} [{q1:.6g}, {q3:.6g}] "
                f"spread {spread:6.1%} (bound {spec['bound']:.0%})"
            )
            b = _values(b_records, name)
            if b:
                b1, bmed, b3 = quartiles(b)
                change = (bmed - med) / med
                worse = change if spec["better"] == "lower" else -change
                if name != "setup_s" and spread > spec["bound"]:
                    better_all = (
                        max(b) < min(a) if spec["better"] == "lower" else min(b) > max(a)
                    )
                    verdict = "improved" if better_all else "unresolved"
                elif worse > spec["bound"]:
                    verdict = "REGRESSED"
                    status = 1
                elif -worse > spread:
                    verdict = "improved"
                elif worse > spread:
                    verdict = "worse, within bound"
                else:
                    verdict = "same"
                line += f" -> {bmed:.6g} [{b1:.6g}, {b3:.6g}] {change:+.1%} {verdict}"
            print(line)
        if second is not None:
            a_work = {r["seed"]: r["work"] for r in a_records if r.get("work")}
            b_work = {r["seed"]: r["work"] for r in b_records if r.get("work")}
            shared = sorted(set(a_work) & set(b_work))
            differ = [
                (seed, key)
                for seed in shared
                for key in DETERMINISTIC
                if a_work[seed][key] != b_work[seed][key]
            ]
            if differ:
                status = 1
            print(
                f"  deterministic counts over {len(shared)} shared seeds: "
                + ("identical" if not differ else f"DIFFER at {differ[:5]}")
            )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    show = sub.add_parser("table", help="per-layer self-time tables of traced runs")
    show.add_argument("directory", nargs="?", type=Path, default=DEFAULT_DIR)
    diff = sub.add_parser("compare", help="spread of one result set, or two compared")
    diff.add_argument("first", type=Path)
    diff.add_argument("second", type=Path, nargs="?")
    args = parser.parse_args(argv)
    if args.command == "table":
        return table(args.directory)
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
