"""Benchmark entry point: one workload per process, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lucid-venus --seed 7 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` runs the workload twice on identical inputs,
first untraced and then with every layer boundary of :mod:`layers`
wrapped, checks that both runs made the same decisions, and reports the
per-layer metrics, the unattributed remainder and the tracing overhead.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics and their units, printed for every workload.
END_TO_END = (("setup_s", "s"), ("p50_ms", "ms"), ("tail_ms", "ms"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))

WORKLOADS = ("lucid-venus", "serve-fifo")
DEFAULT_SEED = 7
DEFAULT_SECONDS = 45.0


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def run_workload(name: str, seed: int, seconds: float, recorder: Any = None,
                 fixed: bool = False, state_root: str = ROOT) -> Any:
    """Run one workload; ``fixed`` runs the traced run's fixed amount of
    work (one set-up and one replay, or one load window)."""
    import workloads

    if name == "lucid-venus":
        return workloads.run_venus(seed, seconds, recorder,
                                   replays=1 if fixed else None)
    if name == "serve-fifo":
        return workloads.run_serve(seed, seconds, state_root, recorder,
                                   setups_wanted=1 if fixed else None)
    raise ValueError(f"unknown workload {name!r}")


def wrappers_removed() -> bool:
    """True when no layer target still holds a wrapper."""
    import layers
    from tracing import Patch

    for layer in layers.LAYERS:
        for target in layer.targets:
            owner, attr = Patch.resolve(target)
            if hasattr(vars(owner)[attr], "__perfbench_original__"):
                return False
    return True


def trace_workload(name: str, seed: int, seconds: float,
                   state_root: str = ROOT
                   ) -> Tuple[Any, Dict[str, float], List[str], str]:
    """Untraced reference run, then the traced run on the same inputs.

    Returns the traced outcome, the per-layer metrics, extra errors and
    the printed layer table.
    """
    import layers
    from tracing import Patch, SpanRecorder

    reference = run_workload(name, seed, seconds, fixed=True,
                             state_root=state_root)
    recorder = SpanRecorder()
    patch = Patch()
    try:
        layers.install(patch, recorder)
        traced = run_workload(name, seed, seconds, recorder, fixed=True,
                              state_root=state_root)
    finally:
        patch.restore()
    errors: List[str] = []
    if not wrappers_removed():
        errors.append("a layer wrapper was left installed")
    if name == "serve-fifo":
        # Tick boundaries follow the wall clock, so the decision streams
        # of two open-loop runs differ; each run is checked against an
        # untraced replay of its own WAL instead.
        if traced.fingerprint["admitted"] != reference.fingerprint["admitted"]:
            errors.append("traced and untraced runs admitted different "
                          "counts")
    elif traced.fingerprint != reference.fingerprint:
        errors.append("the traced run's fingerprint differs from the "
                      "untraced run's")
    errors.extend(reference.errors + traced.errors)

    metrics = layers.layer_metrics(recorder)
    overhead = traced.busy_s - reference.busy_s
    # Generator-side figures come from the untraced run.
    metrics.update({
        "serve.inbox_wait.p50_ms":
            reference.extra.get("inbox_wait_p50_ms", 0.0),
        "bench.other_s": traced.busy_s - recorder.root_seconds,
        "bench.traced_wall_s": traced.busy_s,
        "bench.trace_overhead_s": overhead,
        "bench.trace_overhead_frac": overhead / reference.busy_s,
        "bench.send_lag_p50_ms": reference.extra.get("send_lag_p50_ms", 0.0),
        "bench.send_lag_max_ms": reference.extra.get("send_lag_max_ms", 0.0),
        "bench.read_p50_ms": reference.extra.get("read_p50_ms", 0.0),
    })
    table = layers.layer_table(recorder, traced.busy_s)
    table += (f"\ntracing overhead: {overhead:.3f} s "
              f"({100.0 * overhead / reference.busy_s:.1f}% of the "
              f"untraced {reference.busy_s:.3f} s)")
    return traced, metrics, errors, table


def _format(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    import layers

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    # Durable serve state stays inside the checkout and goes at exit.
    state_root = tempfile.mkdtemp(prefix=".perfbench_state-", dir=ROOT)
    try:
        if args.trace:
            outcome, values, errors, table = trace_workload(
                args.workload, args.seed, args.seconds, state_root)
            units = dict(layers.metric_names())
            print(table)
        else:
            outcome = run_workload(args.workload, args.seed, args.seconds,
                                   state_root=state_root)
            values, errors = outcome.metrics, list(outcome.errors)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(state_root, ignore_errors=True)

    for key, value in outcome.fingerprint.items():
        print(f"check {key}: {_format(value)}")
    for key, value in outcome.extra.items():
        print(f"info {key}: {_format(value)}")
    print(f"failed/attempted: {outcome.failed}/{outcome.attempted}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    for key, unit in units.items():
        print(f"metric {key}: {_format(values[key])} {unit}")
    result = {
        "correct": not errors,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
