"""paper-eval: the Fig. 5.1 protocol at full Table 4.1 scale.

One pass is ``repro experiment accuracy --scale 1.0 --pairs 100``: ten
datasets, 100 faulty/faultless segment pairs each, one worker — the same
``load_dataset`` + ``ProtocolSettings.runner().evaluate`` calls.  Each
dataset's ``aggregate_fingerprint()`` must equal the committed reference
in ``fingerprints.json``; a mismatch fails all of that dataset's pairs.

The reference holds protocol seeds ``0 .. REFERENCE_SEEDS-1``; the
workload seed picks one of them (``seed % REFERENCE_SEEDS``).  Rebuild it
after a change that is meant to alter results with::

    python3 perfbench/evalbench.py --write-reference
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Dict, List

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "fingerprints.json")
REFERENCE_SEEDS = 16
SCALE = 1.0
PAIRS = 100
#: A run makes ``round(seconds / PASS_SECONDS)`` passes (at least one);
#: one pass takes 7-11 s on the reference machine.
PASS_SECONDS = 15.0


def protocol_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def one_pass(pseed: int) -> dict:
    """Run the protocol once."""
    from repro.datasets import ALL_NAMES, load_dataset
    from repro.eval.experiments import ProtocolSettings

    settings = ProtocolSettings(hours_scale=SCALE, pairs=PAIRS, seed=pseed)
    setup = 0.0
    fingerprints: Dict[str, List] = {}
    t0 = time.perf_counter()
    for name in ALL_NAMES:
        t = time.perf_counter()
        data = load_dataset(name, seed=pseed, hours=settings.scaled_hours(name))
        generated = time.perf_counter() - t
        result = settings.runner().evaluate(name, data.trace)
        setup += generated + result.fit_seconds
        fingerprints[name] = [result.aggregate_fingerprint(), len(result.outcomes)]
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "setup_s": setup,
        "pairs": sum(n for _fp, n in fingerprints.values()),
        "fingerprints": fingerprints,
    }


def _judge(passes: List[dict], reference: Dict[str, List]) -> dict:
    attempted = failed = 0
    mismatched = []
    for result in passes:
        for name, (fingerprint, pairs) in result["fingerprints"].items():
            attempted += pairs
            if reference.get(name, [None])[0] != fingerprint:
                failed += pairs
                mismatched.append(name)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "mismatched": sorted(set(mismatched)),
    }


def _pairs_per_s(result: dict) -> float:
    return result["pairs"] / (result["wall_s"] - result["setup_s"])


def run(seed: int, seconds: float, trace: bool) -> dict:
    """One paper-eval run (in this process: no wire, journal or outbox)."""
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        references = json.load(handle)
    pseed = protocol_seed(seed)
    reference = references["seeds"][str(pseed)]
    passes = [one_pass(pseed) for _ in range(max(1, round(seconds / PASS_SECONDS)))]
    out = {
        "protocol_seed": pseed,
        "passes": len(passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "pairs_per_s": statistics.median(_pairs_per_s(p) for p in passes),
    }
    if trace:
        # Overhead is judged against the last untraced pass: by then the
        # process is as warm as it is for the traced pass.
        untraced_rate = _pairs_per_s(passes[-1])
        rec = tracing.Recorder()
        checkers: Dict[int, object] = {}
        tracing.install_eval_layers(rec, checkers)
        traced = one_pass(pseed)
        passes.append(traced)
        out["ledger"] = _eval_ledger(rec, checkers, traced, untraced_rate)
    out["accounting"] = _judge(passes, reference)
    out["peak_rss_mb"] = tracing.peak_rss_kb() / 1024.0
    return out


def _eval_ledger(rec, checkers, traced: dict, untraced_rate: float) -> dict:
    """Batch-path ledger of the traced pass.  Spans nested in
    ``DiceDetector.fit`` (its training encode) count toward ``eval.fit_s``
    only; the per-window rows cover the segment pairs."""
    import ledger

    rows = rec.spans
    fields = tracing.FIELDS
    n = len(rows) // fields
    names = [rec.names[rows[i * fields]] for i in range(n)]
    spans = [
        (rows[i * fields + 1], rows[i * fields + 2], rows[i * fields + 3])
        for i in range(n)
    ]
    selfs = ledger.self_times(spans)
    fit_ns = 0.0
    own: Dict[str, float] = {}
    for i in range(n):
        root = i
        while spans[root][2] >= 0:
            root = spans[root][2]
        if names[i] == "eval.fit":
            fit_ns += spans[i][1] - spans[i][0]
        elif names[root] != "eval.fit":
            own[names[i]] = own.get(names[i], 0.0) + selfs[i]
    hits = misses = 0
    kernels: Dict[str, int] = {}
    registries = {}
    for checker in checkers.values():
        info = checker.cache_info()
        hits += info["hits"]
        misses += info["misses"]
        registries[id(checker.groups)] = checker.groups
    for groups in registries.values():
        for kernel, count in groups.kernel_call_counts().items():
            kernels[kernel] = kernels.get(kernel, 0) + count
    encoded = rec.counters.get("eval.encoded_windows", 0)
    checked = rec.counters.get("eval.checked_windows", 0)
    evaluating_ns = (traced["wall_s"] - traced["setup_s"]) * 1e9
    layers = ("eval.encode", "eval.check_many", "eval.identify")

    def per(ns, count):
        return ns * 1e-3 / count if count else 0.0

    traced_rate = _pairs_per_s(traced)
    events = rec.counters.get("eval.events", 0)
    metrics = {
        "eval.fit_s": fit_ns * 1e-9,
        "eval.encode_us_per_window": per(own.get("eval.encode", 0.0), encoded),
        "eval.check_many_us_per_window": per(own.get("eval.check_many", 0.0), checked),
        "eval.identify_us_per_window": per(own.get("eval.identify", 0.0), checked),
        "eval.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "eval.kernel_calls.gemm": kernels.get("gemm", 0),
        "eval.kernel_calls.xor": kernels.get("xor", 0),
        "residual.us_per_event": per(
            evaluating_ns - sum(own.get(k, 0.0) for k in layers), events
        ),
        "trace.overhead_ratio": untraced_rate / traced_rate if traced_rate else 0.0,
    }
    identity = {
        "busy_us_per_event": per(evaluating_ns, events),
        "layers_us_per_event": {k: per(own.get(k, 0.0), events) for k in layers},
        "residual_us_per_event": metrics["residual.us_per_event"],
        "events": events,
    }
    return {"metrics": metrics, "identity": identity, "sample_counts": {}}


def write_reference() -> None:
    seeds = {}
    for pseed in range(REFERENCE_SEEDS):
        result = one_pass(pseed)
        seeds[str(pseed)] = result["fingerprints"]
        print(f"seed {pseed}: {result['wall_s']:.1f} s", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(
            {"scale": SCALE, "pairs": PAIRS, "seeds": seeds},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 perfbench/evalbench.py --write-reference")
    write_reference()
