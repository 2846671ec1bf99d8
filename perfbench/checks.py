"""Output checks that recompute every expected value from the planted
truth with the benchmark's own code; nothing here imports spanagree.

Each check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import Span, Workload

TOL = 1e-9


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def digest(directory: Path) -> dict[str, str]:
    """sha256 of every file in an output directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def check_campaign(path: Path, workload: Workload) -> list[str]:
    """Every span sits at its planted surface with its planted category;
    planted bad items (unmatched surfaces, out-of-range categories) are gone."""
    problems = []
    rows = {row["example_id"]: row for row in _read_jsonl(path)}
    if set(rows) != {ex.id for ex in workload.examples}:
        problems.append(f"{path.name}: example ids differ from the corpus")
    for ex in workload.examples:
        row = rows.get(ex.id)
        if row is None:
            continue
        if row.get("failed"):
            problems.append(f"{ex.id}: marked failed")
        want = [(s.start, s.end, s.category, s.surface, s.reason or None)
                for s in sorted(ex.llm, key=lambda s: (s.start, s.end, s.category))]
        got = [(a["start"], a["end"], a["type"], a.get("text"), a.get("reason"))
               for a in row["annotations"]]
        if got != want:
            problems.append(f"{ex.id}: spans {got[:3]}... differ from planted {want[:3]}...")
        for s in ex.llm:
            if ex.text.find(s.surface) != s.start or ex.text.find(s.surface, s.start + 1) != -1:
                problems.append(f"{ex.id}: planted surface {s.surface!r} is not unique")
    return problems


def check_traces(path: Path, workload: Workload) -> list[str]:
    """One retry exactly where the first reply was truncated."""
    problems = []
    rows = {row["example_id"]: row for row in _read_jsonl(path)}
    for ex in workload.examples:
        row = rows.get(ex.id)
        if row is None:
            problems.append(f"{ex.id}: no trace")
            continue
        want = 1 if ex.truncated_first else 0
        if row["retries"] != want or row["failed"]:
            problems.append(f"{ex.id}: retries={row['retries']} failed={row['failed']}, "
                            f"want retries={want}")
    return problems


def _overlap_credit(cand: list[Span], ref: list[Span], hard: bool) -> float:
    """Mean per-span overlap credit of cand against ref, clamped at 1."""
    total = 0.0
    for a in cand:
        credit = 0.0
        for g in ref:
            if hard and a.category != g.category:
                continue
            credit += max(0, min(a.end, g.end) - max(a.start, g.start)) / (a.end - a.start)
        total += min(1.0, credit)
    return total / len(cand)


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)


def expected_scores(workload: Workload) -> tuple[list[dict], dict]:
    """Per-example rows and aggregates, recomputed from the planted truth."""
    rows = []
    for ex in sorted(workload.examples, key=lambda e: e.id):
        gold = sorted(ex.gold, key=lambda s: (s.start, s.end, s.category))
        llm = sorted(ex.llm, key=lambda s: (s.start, s.end, s.category))
        row = {"example_id": ex.id, "n_reference": len(gold), "n_candidate": len(llm),
               "identical": ex.identical}
        if gold and llm:
            row["status"] = "scored"
            for mode, hard in (("hard", True), ("soft", False)):
                p = _overlap_credit(llm, gold, hard)
                r = _overlap_credit(gold, llm, hard)
                row[f"precision_{mode}"] = p
                row[f"recall_{mode}"] = r
                row[f"f1_{mode}"] = _f1(p, r)
        else:
            row["status"] = "s_empty"
            n = len(gold) or len(llm)
            row["s_empty"] = 1.0 / (1.0 + n) if n else 1.0
        rows.append(row)
    scored = [r for r in rows if r["status"] == "scored"]
    empties = [r for r in rows if r["status"] == "s_empty"]
    agg = {"examples": len(rows), "scored": len(scored), "empty_scored": len(empties)}
    for key in ("precision_hard", "recall_hard", "f1_hard",
                "precision_soft", "recall_soft", "f1_soft"):
        agg[key] = sum(r[key] for r in scored) / len(scored)
    agg["s_empty"] = sum(r["s_empty"] for r in empties) / len(empties)
    agg["pearson"] = float(np.corrcoef([r["n_reference"] for r in rows],
                                       [r["n_candidate"] for r in rows])[0, 1])
    return rows, agg


def _close(a, b, tol=TOL) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


def check_report(out_dir: Path, workload: Workload) -> list[str]:
    """Route counts, s_empty, hard/soft P/R/F1, Pearson and gamma
    properties in report.json, plus the 3-decimal summary table."""
    problems = []
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    rows, agg = expected_scores(workload)
    counts = report["counts"]
    for key in ("examples", "scored", "empty_scored"):
        if counts[key] != agg[key]:
            problems.append(f"count {key}={counts[key]}, want {agg[key]}")
    if counts["failed"] != 0 or counts["gamma_skipped"] != 0:
        problems.append(f"failed={counts['failed']} gamma_skipped={counts['gamma_skipped']}")
    metrics = report["metrics"]
    for key in ("precision_hard", "recall_hard", "f1_hard", "precision_soft",
                "recall_soft", "f1_soft", "s_empty", "pearson"):
        if not _close(metrics[key], agg[key]):
            problems.append(f"{key}={metrics[key]}, want {agg[key]}")
    got_rows = report["examples"]
    if [r["example_id"] for r in got_rows] != [r["example_id"] for r in rows]:
        return problems + ["per-example rows are not the corpus ids in order"]
    gammas = []
    for got, want in zip(got_rows, rows):
        eid = want["example_id"]
        if got["status"] != want["status"]:
            problems.append(f"{eid}: status {got['status']}, want {want['status']}")
            continue
        for key, value in want.items():
            if key in ("example_id", "status", "identical"):
                continue
            if isinstance(value, float) and not _close(got[key], value):
                problems.append(f"{eid}: {key}={got[key]}, want {value}")
            elif isinstance(value, int) and got[key] != value:
                problems.append(f"{eid}: {key}={got[key]}, want {value}")
        gamma = got["gamma"]
        if want["status"] == "s_empty":
            if gamma is not None:
                problems.append(f"{eid}: gamma {gamma} on an empty side")
            continue
        if gamma is None or gamma > 1.0:
            problems.append(f"{eid}: gamma {gamma} is missing or above 1")
            continue
        if want["identical"] and gamma != 1.0:
            problems.append(f"{eid}: identical sets score gamma {gamma!r}, want exactly 1.0")
        gammas.append(gamma)
    if gammas and not _close(metrics["gamma"], sum(gammas) / len(gammas), 1e-12):
        problems.append(f"gamma={metrics['gamma']} is not the mean of per-example values")
    with open(out_dir / "summary.csv", encoding="utf-8", newline="") as handle:
        summary = list(csv.DictReader(handle))
    for key in ("pearson", "f1_hard", "f1_soft", "s_empty"):
        if not _close(float(summary[0][key]), agg[key], 5e-4 + 1e-12):
            problems.append(f"summary.csv {key}={summary[0][key]}, want {agg[key]:.3f}")
    return problems
