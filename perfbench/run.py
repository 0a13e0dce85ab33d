"""Benchmark of record for the DICE gateway.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload serve-durable --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer ledger.
``--workload all`` runs every workload in turn.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _machine(seed: int) -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _cpu_jiffies() -> tuple:
    """(steal, total) jiffies of all CPUs, from ``/proc/stat``."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return (0, 0)
    return (fields[7] if len(fields) > 7 else 0, sum(fields[:8]))


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, "r", encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result record (see ``main``)."""
    import workloads

    record = {"workload": workload, "seconds": seconds, "trace": trace,
              "machine": _machine(seed)}
    steal0, total0 = _cpu_jiffies()
    if workload == workloads.PAPER_EVAL:
        import evalbench

        out = evalbench.run(seed, seconds, trace)
        record["protocol_seed"] = out["protocol_seed"]
        record["passes"] = out["passes"]
        record["offered_rates"] = {}
        accounting = out["accounting"]
        end_to_end = {
            "setup_s": out["setup_s"],
            "peak_rss_mb": out["peak_rss_mb"],
            "eval_pairs_per_s": out["pairs_per_s"],
        }
        valid = True
        ledger_out = out.get("ledger")
    else:
        import serve
        from loadgen import GeneratorError

        base = os.path.join(ROOT, ".bench_runs", f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        try:
            prepared = serve.Prepared(workload, seed, seconds, os.path.join(base, "oracle"))
            try:
                runs = [serve.run(prepared, _fresh(base, "plain"), False)]
                if trace:
                    runs.append(serve.run(prepared, _fresh(base, "traced"), True))
            except (serve.ServeError, GeneratorError, OSError) as exc:
                # The program failed under load: the run still ends in a
                # result line, with every operation it could not verify failed.
                accounting = serve.aborted_accounting(prepared)
                record.update(
                    error=f"{type(exc).__name__}: {exc}", valid=False,
                    accounting=accounting,
                    end_to_end={"failed_ratio": accounting["failed_ratio"]},
                )
                return record
        finally:
            shutil.rmtree(base, ignore_errors=True)
        plain = runs[0]
        accounting = _sum_accounting([r["accounting"] for r in runs])
        latency = plain["latency"]
        record["offered_rates"] = {"open": plain["generator"]["offered_rate"]}
        record["generator"] = plain["generator"]
        record["latency_extra"] = {
            "concluded_by_end": latency["concluded_by_end"],
            "unattributed": latency["unattributed"],
        }
        record["setups_s"] = plain["setups_s"]
        record["client_errors"] = plain["client_errors"]
        record["saturate_rates"] = plain["saturate_rates"]
        end_to_end = {
            "setup_s": statistics.median(plain["setups_s"]),
            "peak_rss_mb": plain["peak_rss_mb"],
            "max_events_per_s": statistics.median(plain["saturate_rates"]),
        }
        for name in ("alert", "detect"):
            summary = latency[name + "_ms"]
            end_to_end[f"{name}_latency_p50_ms"] = summary["p50"]
            end_to_end[f"{name}_latency_p99_ms"] = summary["p99"]
            record[f"{name}_latency_samples"] = summary["n"]
        if plain["recovery_s"] is not None:
            end_to_end["recovery_s"] = plain["recovery_s"]
        valid = all(r["valid"] for r in runs)
        ledger_out = None
        if trace:
            traced = runs[1]
            ledger_out = traced["ledger"]
            traced_rate = statistics.median(traced["saturate_rates"])
            ledger_out["metrics"]["trace.overhead_ratio"] = (
                end_to_end["max_events_per_s"] / traced_rate
            )
    end_to_end["failed_ratio"] = accounting["failed_ratio"]
    steal1, total1 = _cpu_jiffies()
    # Share of CPU time the host took from this VM during the run: the
    # first thing to read when a run's timings look off.
    record["machine"]["steal_share"] = (
        (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    )
    record["end_to_end"] = end_to_end
    record["accounting"] = accounting
    record["valid"] = valid
    if ledger_out is not None:
        record["ledger"] = ledger_out
    return record


def _fresh(base: str, name: str) -> str:
    path = os.path.join(base, name)
    os.makedirs(path)
    return path


def _sum_accounting(parts):
    total = {}
    for part in parts:
        for key, value in part.items():
            if key != "failed_ratio":
                total[key] = total.get(key, 0) + value
    total["failed_ratio"] = (
        total["failed"] / total["attempted"] if total.get("attempted") else 0.0
    )
    return total


#: Units of the end-to-end figures printed beside the gated ones
#: (``BENCHMARK.json`` lists the gated ones and their units).
UNITS = {
    "max_events_per_s": "events/s",
    "alert_latency_p50_ms": "ms",
    "alert_latency_p99_ms": "ms",
    "detect_latency_p50_ms": "ms",
    "detect_latency_p99_ms": "ms",
    "recovery_s": "s",
    "eval_pairs_per_s": "pairs/s",
    "failed_ratio": "fraction",
}


def _print_record(record: dict, spec: dict) -> None:
    print(f"== {record['workload']}  seed={record['machine']['seed']}  "
          f"seconds={record['seconds']:g}  trace={int(record['trace'])}")
    print("record " + json.dumps(
        {k: v for k, v in record.items() if k not in ("end_to_end", "ledger")},
        sort_keys=True))
    print(f"{'end-to-end metric':32} {'value':>14}  unit")
    for name, value in record["end_to_end"].items():
        samples = ""
        if name.startswith(("alert_latency", "detect_latency")):
            samples = f"  (n={record[name.rsplit('_', 2)[0] + '_samples']})"
        unit = spec["end_to_end"][name]["unit"] if name in spec["end_to_end"] else UNITS[name]
        print(f"{name:32} {_fmt(value):>14}  {unit}{samples}")
    acc = record["accounting"]
    print("correctness: " + "  ".join(f"{k}={_fmt(v)}" for k, v in acc.items()))
    if "error" in record:
        print("FAILED: the run stopped early: " + record["error"])
    elif not record["valid"]:
        print("INVALID latency figures: the generator fell behind its schedule "
              "beyond the stated bound")
    ledger_out = record.get("ledger")
    if ledger_out is not None:
        print(f"{'per-layer metric':40} {'value':>14}  unit")
        for name, metric in spec["per_layer"].items():
            value = ledger_out["metrics"].get(name, 0)
            print(f"{name:40} {_fmt(value):>14}  {metric['unit']}")
        identity = ledger_out["identity"]
        layers = identity["layers_us_per_event"]
        print("identity (us/event): busy {:.3f} = layers {:.3f} + residual {:.3f}".format(
            identity["busy_us_per_event"], sum(layers.values()),
            identity["residual_us_per_event"]))
        for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:28} {value:10.3f}")
        for name, n in ledger_out.get("sample_counts", {}).items():
            print(f"samples {name}: n={n}")


def _result(record: dict, spec: dict, trace: bool) -> dict:
    acc = record["accounting"]
    if "error" in record:
        metrics = {}  # a run that stopped early measured nothing
    elif trace:
        metrics = {
            name: {"value": float(record["ledger"]["metrics"].get(name) or 0.0),
                   "unit": metric["unit"]}
            for name, metric in spec["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": float(record["end_to_end"][name]), "unit": metric["unit"]}
            for name, metric in spec["end_to_end"].items()
        }
    return {
        "correct": acc["failed"] == 0,
        "attempted": int(acc["attempted"]),
        "failed": int(acc["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from repro.telemetry.log import configure

    # The benchmark's own in-process oracle runs quietly; the served
    # program keeps its default logging (into its log file).
    configure(level="error")

    # paper-eval first: its peak RSS is this process's high-water mark, which
    # the served workloads' inputs and oracles would otherwise raise.
    names = (
        (workloads.PAPER_EVAL, workloads.SERVE_DURABLE, workloads.SERVE_FAULTS)
        if args.workload == "all"
        else (args.workload,)
    )
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    spec = {
        kind: {m["name"]: m for m in bench[kind]} for kind in ("end_to_end", "per_layer")
    }
    results = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_record(record, spec)
        results.append((name, _result(record, spec, bool(args.trace))))
        sys.stdout.flush()
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
