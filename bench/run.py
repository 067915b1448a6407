"""slicekit benchmark: one workload per run.

Usage (from the repository root):

    python3 bench/run.py --workload analyze-scaled --seed 1 --seconds 30 --trace 0

A run prepares the workload's inputs from the seed, times each op in a
closed loop with one client (the next op starts when the previous one has
returned), samples the machine's speed with the yardstick
(``yardstick.py``) to rescale the wall times to a machine of fixed speed,
checks every output after the timed phase, writes a run record to
``bench/runs/`` and prints one JSON line last.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` repeats the timed phase under the
per-layer tracer and reports the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import BENCH, ROOT, RUNS, SRC, WORKLOADS
from yardstick import StartYardstick

SETUP_PROBES = 7
STARTUP_PROBES = 5
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mib": "MiB"}
# Printed and recorded, but not in the final JSON line: the wall-time
# figures and yardstick scale the reported times come from, and figures
# that one workload only reports or that are 0 on a healthy run.
EXTRA_UNITS = {
    "wall_setup_s": "s",
    "wall_ops_per_s": "1/s",
    "wall_op_p50_ms": "ms",
    "speed_scale": "ratio",
    "op_p90_ms": "ms",
    "undecided_frac": "ratio",
    "failed_frac": "ratio",
    "unverified_witnesses": "count",
    "verdicts": "count",
}


def _timed_phase(workload, ops, tracer=None, per_op_calls=None):
    """Runs ``ops`` in order under the workload's yardstick.  Returns the
    results, each op's wall latency and each op's yardstick scale."""
    results, spans = [], []
    with workload.yardstick() as yard:
        for op in ops:
            before = tracer.snapshot() if per_op_calls is not None else None
            t0 = time.perf_counter()
            try:
                result = workload.run(op, tracer)
            except Exception as exc:  # an op that raises counts as failed
                result = exc
            spans.append((t0, time.perf_counter()))
            results.append(result)
            if per_op_calls is not None:
                after = tracer.snapshot()
                per_op_calls.append(
                    {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}
                )
            yard.between_ops()
    return results, [end - start for start, end in spans], yard.scales(spans)


def _failed_ops(workload, ops, results) -> tuple[int, list[str]]:
    failed, messages = 0, []
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            problems = [f"raised {type(result).__name__}: {result}"]
        else:
            problems = workload.check(op, result)
        if problems:
            failed += 1
            messages.extend(f"{op.label}: {p}" for p in problems)
    return failed, messages


def _measure(workload, ops) -> dict:
    """One pass: the timed phase over ``ops``, then the output checks."""
    results, latencies, scales = _timed_phase(workload, ops)
    failed, messages = _failed_ops(workload, ops, results)
    return {
        "labels": [op.label for op in ops],
        "latencies": latencies,
        "scales": scales,
        "failed": failed,
        "messages": messages,
        "summaries": [
            None if isinstance(result, Exception) else workload.summary(op, result)
            for op, result in zip(ops, results)
        ],
    }


def _bench_argv(workload: str, args, *extra: str) -> list[str]:
    return [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), *extra,
    ]


def _measure_in_worker(args, index: int) -> dict:
    proc = subprocess.run(
        _bench_argv(args.workload, args, "--pass-index", str(index)),
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _spawn_seconds(argv: list[str]) -> tuple[float, str]:
    """Wall time from starting a process to its first output line (or to
    its exit, if it prints nothing), and that line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return elapsed, line.strip()


def _startup_ms() -> tuple[float, float]:
    """Median bare-interpreter start and median ``import slicekit.cli`` on
    top of it, in ms."""
    bare = [_spawn_seconds([sys.executable, "-c", "pass"])[0] for _ in range(STARTUP_PROBES)]
    cli = [
        _spawn_seconds([sys.executable, "-c", "import slicekit.cli"])[0]
        for _ in range(STARTUP_PROBES)
    ]
    interpreter = statistics.median(bare) * 1e3
    return interpreter, statistics.median(cli) * 1e3 - interpreter


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def _setup_probes(args) -> list[tuple[float, float]]:
    """(wall seconds, yardstick scale) of ``SETUP_PROBES`` fresh processes
    that only set up."""
    argv = _bench_argv(args.workload, args, "--setup-probe")
    spans = []
    with StartYardstick() as yard:
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            seconds, line = _spawn_seconds(argv)
            if line != "ready":
                raise RuntimeError(f"setup probe printed {line!r}")
            spans.append((t0, t0 + seconds))
            yard.between_ops()
    return [(end - start, scale) for (start, end), scale in zip(spans, yard.scales(spans))]


def _rescaled(latencies: list[float], scales: list[float]) -> list[float]:
    return [t * scale for t, scale in zip(latencies, scales)]


def _summarise(passes: list[dict], probes: list[tuple[float, float]], rescale=True) -> dict:
    """The time metrics, from the passes and the setup probes.  With
    ``rescale`` false the yardstick scales are ignored and the figures are
    wall times."""
    by_op: dict[str, list[float]] = {}
    everything = []
    for m in passes:
        times = _rescaled(m["latencies"], m["scales"]) if rescale else m["latencies"]
        everything += times
        for label, t in zip(m["labels"], times):
            by_op.setdefault(label, []).append(t)
    return {
        "setup_s": statistics.median(t * scale if rescale else t for t, scale in probes),
        "ops_per_s": len(everything) / sum(everything),
        "op_p50_ms": statistics.median(statistics.median(v) for v in by_op.values()) * 1e3,
    }


def _end_to_end(args, workload, inputs, record) -> tuple[dict, dict, int, int]:
    if inputs.passes == 1:
        passes = [_measure(workload, inputs.ops)]
    else:
        passes = [_measure_in_worker(args, k) for k in range(inputs.passes)]
    # ops ran in child processes (passes, or CLI calls) or in this one
    in_children = inputs.passes > 1 or args.workload == "cli-bundled"
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF)
    probes = _setup_probes(args)
    metrics = _summarise(passes, probes)
    metrics["peak_rss_mib"] = usage.ru_maxrss / 1024
    wall = _summarise(passes, probes, rescale=False)
    extras = {f"wall_{name}": value for name, value in wall.items()}
    extras["speed_scale"] = statistics.median(
        [s for m in passes for s in m["scales"]] + [s for _, s in probes]
    )
    latencies = [t for m in passes for t in _rescaled(m["latencies"], m["scales"])]
    attempted = len(latencies)
    failed = sum(measured["failed"] for measured in passes)
    extras.update(
        workload.extras([pair for m in passes for pair in zip(m["labels"], m["summaries"])])
    )
    if attempted >= 100:  # at least ten samples above the 90th percentile
        extras["op_p90_ms"] = statistics.quantiles(latencies, n=10)[8] * 1e3
    extras["failed_frac"] = failed / attempted
    record.update(
        passes=passes,
        setup_probes=probes,
        failures=[m for measured in passes for m in measured["messages"]],
    )
    return metrics, extras, attempted, failed


def _per_layer(args, workload, inputs, record) -> tuple[dict, dict, int, int]:
    import layers
    from tracer import Tracer, installed_wrappers

    ops = inputs.pass_ops(0)
    untraced = _measure(workload, ops)
    tracer = Tracer(layers.OBSERVERS)
    per_op_calls: list[dict] = []
    with tracer:
        traced = workload.prepare(args.seed, args.seconds)
        traced_results, traced_latencies, traced_scales = _timed_phase(
            workload, traced.pass_ops(0), tracer, per_op_calls
        )
        timed_stats = tracer.dump()
        tracer.reset()
        _failed_ops(workload, traced.pass_ops(0), traced_results)
        check_stats = tracer.dump()
    leftover = installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracer left wrappers on {leftover}")
    traced_elapsed = sum(traced_latencies)
    overhead = 1 - sum(_rescaled(untraced["latencies"], untraced["scales"])) / sum(
        _rescaled(traced_latencies, traced_scales)
    )
    metrics = layers.per_layer_metrics(
        timed_stats, check_stats, len(ops), traced_elapsed, overhead, _startup_ms()
    )
    shown_ops = set()
    for op, calls in zip(ops, per_op_calls):
        shown = {k: calls[k] for k in layers.PER_OP_KEYS if calls.get(k)}
        if shown and op.label not in shown_ops:
            shown_ops.add(op.label)
            print(f"trace {op.label}: " + " ".join(f"{k}={v}" for k, v in shown.items()))
    record.update(
        passes=[untraced],
        failures=untraced["messages"],
        per_op_calls=[{"op": op.label, "calls": c} for op, c in zip(ops, per_op_calls)],
    )
    extras = workload.extras(list(zip(untraced["labels"], untraced["summaries"])))
    return metrics, extras, len(ops), untraced["failed"]


def _run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    codes = [
        subprocess.run(_bench_argv(name, args, "--trace", str(args.trace)), cwd=ROOT).returncode
        for name in WORKLOADS
    ]
    return max(codes)


def _set_up(args):
    """Import slicekit from ``src/`` and build the workload's inputs: the
    work ``setup_s`` times.  Returns (workload, inputs), or None when
    slicekit cannot be imported from there."""
    if not (SRC / "slicekit" / "__init__.py").is_file():
        print(f"bench: no slicekit sources at {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import slicekit

    if Path(slicekit.__file__).resolve().parent != SRC / "slicekit":
        print(f"bench: imported slicekit from {slicekit.__file__}", file=sys.stderr)
        return None
    workload = WORKLOADS[args.workload]
    return workload, workload.prepare(args.seed, args.seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a setup-time probe, and one pass of a multi-pass workload
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return _run_all(args)
    prepared = _set_up(args)
    if prepared is None:
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    workload, inputs = prepared
    RUNS.mkdir(exist_ok=True)
    if args.pass_index is not None:
        print(json.dumps(_measure(workload, inputs.pass_ops(args.pass_index))))
        return 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "instance_sha256": {
            label: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for label, text in sorted(inputs.documents.items())
        },
    }
    if args.trace:
        import layers

        units = layers.UNITS
        metrics, extras, attempted, failed = _per_layer(args, workload, inputs, record)
    else:
        units = END_TO_END_UNITS
        metrics, extras, attempted, failed = _end_to_end(args, workload, inputs, record)
    record.update(metrics=metrics, extras=extras)
    record_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for message in record["failures"]:
        print(f"FAILED {message}")
    record_name = record_path.relative_to(ROOT)
    print(f"{args.workload}: {attempted} ops, seed {args.seed}, record {record_name}")
    for name, value in metrics.items():
        samples = f" (n={attempted})" if name == "op_p50_ms" else ""
        print(f"  {name} = {value:.6g} {units[name]}{samples}")
    for name, value in extras.items():
        print(f"  {name} = {value} {EXTRA_UNITS[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
