"""Scenario report document: schema, validation, rendering.

The report is the scenario matrix's single artifact — one JSON document,
written with sorted keys and no wall-clock fields, so two runs with the
same seed are **byte-identical** (CI diffs them with ``cmp``).  The
validator checks structure and value domains only, never measured
numbers, so schema validation cannot flake.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from .cells import KIND_ATTACK, KIND_DRIFT, KIND_FAULT

#: Schema ``/2`` added the per-cell ``backend`` field and the per-backend
#: ``baselines`` aggregate table (cell ids are unique per backend, not
#: globally, since every backend covers the full cell matrix).
SCENARIO_SCHEMA = "dice-scenario-report/2"


def _rate(numerator: int, denominator: int) -> float:
    return round(numerator / denominator, 4) if denominator else 0.0


def baselines_table(results: Sequence[dict]) -> List[dict]:
    """Per-backend aggregates over the cell rows: the baselines table.

    One entry per backend (in first-appearance order), pooling detection
    and identification counts across every cell the backend ran — the
    precision/recall/detection-time comparison the ISSUE's baselines
    table calls for.
    """
    order: List[str] = []
    pooled: Dict[str, dict] = {}
    for row in results:
        backend = row.get("backend", "dice")
        agg = pooled.get(backend)
        if agg is None:
            order.append(backend)
            agg = pooled[backend] = {
                "cells": 0,
                "tp": 0,
                "fn": 0,
                "fp": 0,
                "tn": 0,
                "correct": 0,
                "named": 0,
                "actual": 0,
                "minutes": [],
            }
        agg["cells"] += 1
        det = row["detection"]
        for key in ("tp", "fn", "fp", "tn"):
            agg[key] += int(det[key])
        ident = row["identification"]
        for key in ("correct", "named", "actual"):
            agg[key] += int(ident[key])
        agg["minutes"].extend(row["detection_minutes"]["samples"])
    table = []
    for backend in order:
        agg = pooled[backend]
        minutes = agg.pop("minutes")
        cells = agg.pop("cells")
        table.append(
            {
                "backend": backend,
                "cells": cells,
                "detection": {
                    "tp": agg["tp"],
                    "fn": agg["fn"],
                    "fp": agg["fp"],
                    "tn": agg["tn"],
                    "precision": _rate(agg["tp"], agg["tp"] + agg["fp"]),
                    "recall": _rate(agg["tp"], agg["tp"] + agg["fn"]),
                },
                "identification": {
                    "correct": agg["correct"],
                    "named": agg["named"],
                    "actual": agg["actual"],
                    "precision": _rate(agg["correct"], agg["named"]),
                    "recall": _rate(agg["correct"], agg["actual"]),
                },
                "mean_detection_minutes": (
                    round(sum(minutes) / len(minutes), 4) if minutes else None
                ),
            }
        )
    return table


def build_report(
    results: Sequence[dict], *, seed: int, settings: "object"
) -> Dict:
    """Assemble the report document around per-cell rows."""
    return {
        "schema": SCENARIO_SCHEMA,
        "seed": int(seed),
        "settings": settings.as_dict(),  # type: ignore[attr-defined]
        "baselines": baselines_table(results),
        "cells": list(results),
    }


def write_report(doc: Dict, path: str) -> None:
    """Validate, then write deterministically (sorted keys, LF, newline)."""
    validate_report(doc)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(payload)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"scenario report schema violation: {message}")


def _check_rate(row: dict, section: str, key: str) -> None:
    value = row[section][key]
    label = row.get("id") or row.get("backend")
    _require(
        isinstance(value, (int, float)) and 0.0 <= float(value) <= 1.0,
        f"cell {label!r}: {section}.{key} must be a rate in [0, 1]",
    )


def validate_report(doc: Dict) -> Dict:
    """Structurally validate a scenario report document.

    Raises :class:`ValueError` on any shape mismatch; returns *doc* so the
    call can be chained.
    """
    _require(isinstance(doc, dict), "top level must be an object")
    _require(
        doc.get("schema") == SCENARIO_SCHEMA, f"schema must be {SCENARIO_SCHEMA!r}"
    )
    _require(isinstance(doc.get("seed"), int), "seed must be an integer")
    _require(isinstance(doc.get("settings"), dict), "settings must be an object")
    cells = doc.get("cells")
    _require(isinstance(cells, list) and cells, "cells must be a non-empty list")
    seen = set()
    cell_backends = []
    for row in cells:
        _require(isinstance(row, dict), "each cell must be an object")
        cell_id = row.get("id")
        _require(isinstance(cell_id, str) and bool(cell_id), "cell id must be a string")
        backend = row.get("backend")
        _require(
            isinstance(backend, str) and bool(backend),
            f"cell {cell_id!r}: backend must be a non-empty string",
        )
        _require(
            (backend, cell_id) not in seen,
            f"duplicate cell id {cell_id!r} for backend {backend!r}",
        )
        seen.add((backend, cell_id))
        if backend not in cell_backends:
            cell_backends.append(backend)
        _require(
            row.get("kind") in (KIND_FAULT, KIND_ATTACK, KIND_DRIFT),
            f"cell {cell_id!r}: unknown kind {row.get('kind')!r}",
        )
        trials = row.get("trials")
        _require(
            isinstance(trials, int) and trials >= 1,
            f"cell {cell_id!r}: trials must be a positive integer",
        )
        for section, keys in (
            ("detection", ("tp", "fn", "fp", "tn")),
            ("identification", ("correct", "named", "actual")),
        ):
            block = row.get(section)
            _require(
                isinstance(block, dict),
                f"cell {cell_id!r}: {section} must be an object",
            )
            for key in keys:
                value = block.get(key)
                _require(
                    isinstance(value, int) and value >= 0,
                    f"cell {cell_id!r}: {section}.{key} must be a count",
                )
            _check_rate(row, section, "precision")
            _check_rate(row, section, "recall")
        counts = row["detection"]
        _require(
            counts["tp"] + counts["fn"] == trials,
            f"cell {cell_id!r}: tp + fn must equal trials",
        )
        _require(
            counts["fp"] + counts["tn"] == trials,
            f"cell {cell_id!r}: fp + tn must equal trials",
        )
        minutes = row.get("detection_minutes")
        _require(
            isinstance(minutes, dict) and isinstance(minutes.get("samples"), list),
            f"cell {cell_id!r}: detection_minutes.samples must be a list",
        )
        _require(
            len(minutes["samples"]) == counts["tp"],
            f"cell {cell_id!r}: one detection-time sample per true positive",
        )
        for sample in minutes["samples"]:
            _require(
                isinstance(sample, (int, float)) and float(sample) >= 0.0,
                f"cell {cell_id!r}: detection minutes must be non-negative",
            )
        if row.get("kind") == KIND_DRIFT:
            _require(
                isinstance(row.get("refresh"), dict),
                f"cell {cell_id!r}: drift cells must carry refresh stats",
            )
        else:
            _require(
                row.get("refresh") is None,
                f"cell {cell_id!r}: only drift cells carry refresh stats",
            )
    baselines = doc.get("baselines")
    _require(
        isinstance(baselines, list) and baselines,
        "baselines must be a non-empty list",
    )
    _require(
        [entry.get("backend") for entry in baselines] == cell_backends,
        "baselines must cover exactly the backends the cells ran, in order",
    )
    for entry in baselines:
        backend = entry.get("backend")
        for section in ("detection", "identification"):
            _require(
                isinstance(entry.get(section), dict),
                f"baseline {backend!r}: {section} must be an object",
            )
            _check_rate(entry, section, "precision")
            _check_rate(entry, section, "recall")
        _require(
            isinstance(entry.get("cells"), int) and entry["cells"] >= 1,
            f"baseline {backend!r}: cells must be a positive count",
        )
    return doc


def render_table(doc: Dict) -> str:
    """Human-readable per-cell summary for the CLI."""
    header = (
        f"{'cell':<52} {'backend':<9} "
        f"{'prec':>5} {'rec':>5} {'det-min':>8} {'sust/h':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in doc["cells"]:
        det = row["detection"]
        mean = row["detection_minutes"]["mean"]
        sustained = row.get("sustained_alerts_per_hour")
        lines.append(
            f"{row['id']:<52} "
            f"{row.get('backend', 'dice'):<9} "
            f"{det['precision']:>5.2f} {det['recall']:>5.2f} "
            f"{mean if mean is not None else '-':>8} "
            f"{sustained if sustained is not None else '-':>7}"
        )
    return "\n".join(lines)


def render_baselines(doc: Dict) -> str:
    """Human-readable per-backend baselines table for the CLI."""
    entries = doc.get("baselines", [])
    # At least the historical 10 columns, wider for longer names.
    width = max([10] + [len(entry["backend"]) for entry in entries])
    header = (
        f"{'backend':<{width}} {'cells':>5} "
        f"{'det-prec':>8} {'det-rec':>7} "
        f"{'id-prec':>7} {'id-rec':>6} {'det-min':>8}"
    )
    lines = [header, "-" * len(header)]
    for entry in entries:
        det = entry["detection"]
        ident = entry["identification"]
        mean = entry["mean_detection_minutes"]
        lines.append(
            f"{entry['backend']:<{width}} {entry['cells']:>5} "
            f"{det['precision']:>8.2f} {det['recall']:>7.2f} "
            f"{ident['precision']:>7.2f} {ident['recall']:>6.2f} "
            f"{mean if mean is not None else '-':>8}"
        )
    return "\n".join(lines)


def refresh_pairs(doc: Dict) -> List[dict]:
    """Match each refresh-enabled drift cell with its plain twin.

    Returns ``[{"variant", "plain", "refresh"}, ...]`` where the last two
    are the sustained alert rates — the graceful-degradation comparison
    the tests assert on.
    """
    drift: Dict[str, Dict[str, Optional[float]]] = {}
    for row in doc["cells"]:
        if row["kind"] != KIND_DRIFT:
            continue
        # Online refresh folds windows back into a DICE context; only the
        # dice rows make a meaningful A/B pair.
        if row.get("backend", "dice") != "dice":
            continue
        stance = "refresh" if row["refresh_enabled"] else "plain"
        drift.setdefault(row["variant"], {})[stance] = row[
            "sustained_alerts_per_hour"
        ]
    return [
        {"variant": variant, **stances}
        for variant, stances in sorted(drift.items())
        if "plain" in stances and "refresh" in stances
    ]
