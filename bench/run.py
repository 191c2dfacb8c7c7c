"""Benchmark of ``epigraph solve``: end-to-end timings, a layer trace, and checks.

One workload per process::

    python3 bench/run.py --workload steering --seed 0 --seconds 25 --trace 0

attempts whole rounds of the workload's operations (one ``run()`` call each)
for at least ``--seconds`` and at least two rounds, checks the outputs, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.

``--workload all`` runs every workload, each in its own process, and
``--repeat N`` runs each one N times on consecutive seeds and prints the
median and quartiles of every metric (the steadiness mode).  See
``bench/README.md`` for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = pathlib.Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("steering", "jump-variance", "steering-2d", "jump-hedge")
BLAS_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 25
MIN_ROUNDS = 2

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "sweep_node_updates_per_s": "1/s",
                    "peak_rss_mb": "MB", "max_abs_err": "cost"}

# A fresh interpreter's set-up: import, parse the workload, resolve its grid
# (which runs the CFL probe).  Timed inside the child, from before the import.
_SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import epigraph.cli as cli
cli.resolve_grid(cli.parse_config(sys.argv[2]))
print(repr(time.perf_counter() - start))
"""


def _git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment_stamp() -> dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREADS},
    }


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def setup_probe(config_text: str) -> float:
    """Set-up time of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(ROOT / "src"), config_text],
        cwd=ROOT, env={**os.environ, **BLAS_THREADS}, capture_output=True, text=True,
        timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Operations:
    """Attempts of one workload's operations, with their timings and failures."""

    def __init__(self, workload: Any, seed: int, work: pathlib.Path) -> None:
        import epigraph.cli

        self.cli = epigraph.cli
        self.ops = workload.operations(seed)
        self.work = work
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.manifests: dict[str, dict] = {}
        self.problems: list[str] = []
        self.solve_s: dict[str, list[float]] = {op.name: [] for op in self.ops}
        self.sweep_s: dict[str, list[float]] = {op.name: [] for op in self.ops}

    def attempt(self, op: Any, timer_on_sweep: bool) -> float | None:
        """One ``run()`` call; its wall time, or None when it failed."""
        from epigraph.errors import EpigraphError

        out = self.work / op.name
        text = json.dumps(op.config)
        original = self.cli.solve_shortfall
        sweep = []

        def timed_sweep(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                sweep.append(time.perf_counter() - start)

        self.attempted += 1
        if timer_on_sweep:
            self.cli.solve_shortfall = timed_sweep
        try:
            start = time.perf_counter()
            manifest = self.cli.run(self.cli.parse_config(text), str(out))
            elapsed = time.perf_counter() - start
        except EpigraphError as exc:
            key = f"{op.name}: {type(exc).__name__}: {exc}"
            self.failures[key] = self.failures.get(key, 0) + 1
            return None
        finally:
            self.cli.solve_shortfall = original
        self._check_manifest(op.name, out, manifest)
        if timer_on_sweep:
            self.solve_s[op.name].append(elapsed)
            self.sweep_s[op.name].extend(sweep)
        return elapsed

    def _check_manifest(self, name: str, out: pathlib.Path, manifest: dict) -> None:
        for artifact, digest in manifest["artifacts"].items():
            path = out / artifact
            if not path.is_file():
                self.problems.append(f"{name}: artifact {artifact} is missing")
            elif _sha256(path) != digest:
                self.problems.append(f"{name}: artifact {artifact} does not match its hash")
        first = self.manifests.setdefault(name, manifest)
        if first != manifest:
            self.problems.append(f"{name}: a rerun of the same config changed the manifest")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _node_updates(op: Any, manifest: dict) -> float:
    """(levels - 1) x state nodes x margin nodes of one sweep."""
    nodes = 1
    for axis in op.config["grid"]["state"]:
        nodes *= axis[2]
    return float((manifest["grid"]["n_levels"] - 1) * nodes * op.config["grid"]["margin"][2])


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import oracles
    from layertrace import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    work = WORK / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runs = Operations(workload, seed, work)
        measured = next(op for op in runs.ops if op.measured)
        setup_text = json.dumps(measured.config)
        setup_s: list[float] = []

        tracer = Tracer()
        traced_solve: list[float] = []
        layer_runs: list[dict[str, float]] = []
        # the set-up probes are spread over the run, so that their median
        # spans the host's fast and slow phases; their time is not measured.
        # A measured operation that has not completed yet gets none.
        start, probing, rounds = time.perf_counter(), 0.0, 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start - probing < seconds:
            for op in runs.ops:
                runs.attempt(op, timer_on_sweep=True)
            if trace:
                for op in runs.ops:
                    run_id = f"{op.name}#{rounds}"
                    with tracer.installed(run_id):
                        elapsed = runs.attempt(op, timer_on_sweep=False)
                    if elapsed is not None and op.measured:
                        traced_solve.append(elapsed)
                        layer_runs.append(tracer.summary(run_id))
            rounds += 1
            if not trace and measured.name in runs.manifests:
                probe_start = time.perf_counter()
                share = min(1.0, (probe_start - start - probing) / seconds)
                while len(setup_s) < SETUP_PROBES * share:
                    setup_s.append(setup_probe(setup_text))
                probing += time.perf_counter() - probe_start
        while not trace and measured.name in runs.manifests and len(setup_s) < SETUP_PROBES:
            setup_s.append(setup_probe(setup_text))
        # read before the checks, whose arrays are no part of the workload
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        lines = [f"rounds: {rounds} in {time.perf_counter() - start - probing:.1f} s"
                 + (f", {len(setup_s)} set-up probes in {probing:.1f} s" if setup_s else "")]
        for op in runs.ops:
            times = runs.solve_s[op.name]
            lines.append(f"operation {op.name}: {len(times)} completed untraced"
                         + (f", run() median {_median(times):.4f} s" if times else ""))
        lines += [f"failed {count}x {key}" for key, count in runs.failures.items()]

        problems = [f"oracle self-check: {p}" for p in oracles.self_check()]
        problems += runs.problems + sorted(tracer.problems)
        metrics: dict[str, tuple[float, str]] = {}
        outs = {op.name: work / op.name for op in runs.ops if op.name in runs.manifests}
        if outs:
            check = workload.check(outs)
            lines += [f"check: {line}" for line in check.lines]
            problems += check.problems
        if measured.name not in outs:
            # its failures are counted; metrics come only from completed attempts
            lines.append(f"the measured operation {measured.name} completed no attempt: "
                         "no metrics")
        elif trace and not layer_runs:
            problems.append("no traced run of the measured operation completed")
        elif trace:
            metrics = layer_metrics(layer_runs, traced_solve,
                                    runs.solve_s[measured.name], problems)
            WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
            tracer.write(str(WORK / "traces" / f"{workload_name}-seed{seed}.jsonl"))
        else:
            updates = _node_updates(measured, runs.manifests[measured.name])
            values = {
                "solve_s": _median(runs.solve_s[measured.name]),
                "setup_s": _median(setup_s),
                "sweep_node_updates_per_s": _median(
                    [updates / s for s in runs.sweep_s[measured.name]]),
                "peak_rss_mb": peak_rss_mb,
                "max_abs_err": check.max_abs_err,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()
                       if v is not None}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines += [f"problem: {p}" for p in problems]
    return {
        "lines": lines,
        "result": {
            "correct": not problems,
            "attempted": runs.attempted,
            "failed": runs.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


_LAYER_UNITS = {"_s": "s", "_calls": "count", "_updates": "count", "_bytes": "bytes",
                "_frac": "ratio"}


def layer_metrics(layer_runs: list[dict[str, float]], traced: list[float],
                  untraced: list[float], problems: list[str]) -> dict[str, tuple[float, str]]:
    """Medians over the traced runs; counts must repeat exactly between runs."""
    out = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        unit = next(u for suffix, u in _LAYER_UNITS.items() if name.endswith(suffix))
        if unit in ("count", "bytes", "ratio") and len(set(values)) != 1:
            problems.append(f"trace count {name} differs between runs: {sorted(set(values))}")
        out[name] = (_median(values), unit)
    for run in layer_runs:
        if abs(run["trace.unaccounted_s"]) > 1e-9 * max(1.0, run["trace.solve_s"]):
            problems.append(f"self times miss {run['trace.unaccounted_s']:.3e} s of the run")
    del out["trace.unaccounted_s"]
    out["trace.overhead_s"] = (_median(traced) - _median(untraced), "s")
    return out


# ---------------------------------------------------------------------------
# all workloads, and the steadiness mode
# ---------------------------------------------------------------------------

def _bounds() -> dict[str, float]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def drive(names: list[str], seed: int, repeat: int, seconds: float, trace: int) -> int:
    """Run each workload ``repeat`` times in its own process; print a summary."""
    bounds, ok = _bounds(), True
    for name in names:
        results = []
        for k in range(repeat):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed + k), "--seconds", str(seconds), "--trace", str(trace)]
            try:
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=900)
            except subprocess.TimeoutExpired:
                print(f"== {name} seed {seed + k}: no result within 900 s")
                ok = False
                continue
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"== {name} seed {seed + k}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            results.append(result)
            ok = ok and result["correct"]
            if repeat == 1:
                print(f"== {name} seed {seed}")
                print("\n".join(lines[:-1]))
        if not results:
            continue
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        print(f"== {name}: {len(results)} runs, correct {all(r['correct'] for r in results)},"
              f" attempted/failed per run {[(a, f) for f, a in shares]}")
        if len({f / a for f, a in shares}) > 1:
            print("   failed share differs between runs")
            ok = False
        for metric, entry in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]
            unit = entry["unit"]
            if len(values) < 4:
                print(f"   {metric:32s} {values[0]:.6g} {unit}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            note = "" if bound is None else f"  bound {bound} ({spread / bound:.2f} of it)"
            print(f"   {metric:32s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}{note}")
            print(f"   {'':32s} in run order: {' '.join(f'{v:.4g}' for v in values)}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload on consecutive seeds (steadiness mode)")
    args = parser.parse_args(argv)

    if args.workload == "all" or args.repeat > 1:
        names = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
        return drive(names, args.seed, args.repeat, args.seconds, args.trace)

    os.environ.update(BLAS_THREADS)  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import epigraph.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import epigraph from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    print("env", json.dumps(environment_stamp(), sort_keys=True), flush=True)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report["lines"]:
        print(line)
    for name, entry in report["result"]["metrics"].items():
        print(f"metric {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
