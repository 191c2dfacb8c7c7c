"""Config-driven command line front end.

A run is described by one JSON document with four sections plus a seed::

    {
      "problem": {"builtin": "deterministic-steering"},
      "grid":    {"state": [[-2.1, 2.1, 281]], "margin": [0.0, 0.6, 241],
                  "time_step": null},
      "scheme":  {"epsilon": null},
      "outputs": {"directory": "out", "formats": ["csv"],
                  "checkpoint_every": 25},
      "seed": 0
    }

``problem`` either names a built-in (``{"builtin": name}``) or is an inline
problem document, as described in :mod:`epigraph.problems`.

``grid`` axes are ``[low, high, count]`` triplets; ``time_step`` caps the
step (``null``: the default bound of :func:`epigraph.solver.stable_grid`);
every sweep step checks its own level's stable bound.  ``outputs.formats``
must list ``"csv"`` (every run writes its CSV artifacts); ``"gnuplot"`` adds
a plot script and needs a problem with one state axis.  ``scheme.epsilon``
overrides the level-set threshold with a positive, finite number; ``null``
defers to the default.  A missing ``scheme``/``outputs`` section gets defaults.
``outputs.checkpoint_every`` sets which levels ``solve`` keeps as
``slice_<L>`` snapshots; they are also its resume state.

Subcommands: ``solve`` (full pipeline + manifest), ``extract`` (profile CSV
only), ``simulate`` (Monte Carlo spot checks), ``verify`` (diagnostic
battery, exit 3 on failure), ``report`` (summarize a run directory).  The
flags ``--out``, ``--seed`` and ``--epsilon`` set ``outputs.directory``,
``seed`` and ``scheme.epsilon`` in the document, which is then checked as a
file would be; ``extract`` reads no seed and takes no ``--seed``.  Exit
codes: 0 success, 1 usage or configuration error, 2 numerical failure or a
``solve`` stopped by SIGINT or SIGTERM, 3 verification failure; the base of
an error's class in :mod:`epigraph.errors` picks 1 or 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import signal
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    EpigraphError,
    ParseError,
    SchemaViolation,
    fail,
    require_integer,
    require_number,
    require_object,
)
from .fields import (
    Field,
    Grid,
    load_snapshot,
    save_snapshot,
    terminal_slice,
    write_csv,
    write_json,
)
from .levelset import required_margin_profile
from .model import Problem
from .problems import builtin_grid, parse_problem
from .solver import solve_shortfall, stable_grid

if TYPE_CHECKING:
    from .verify import DiagnosticReport

Array = np.ndarray

_TOP_KEYS = ("problem", "grid", "scheme", "outputs", "seed")
_GRID_KEYS = ("state", "margin", "time_step")
_SCHEME_KEYS = ("epsilon",)
_OUTPUT_KEYS = ("directory", "formats", "checkpoint_every")
_FORMATS = ("csv", "gnuplot")


# ---------------------------------------------------------------------------
# validated configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description.

    ``document`` is the normalized config document, every default filled
    in; :func:`serialize_config`, the manifest, the resume digest and the
    commands read it, and none of them mutates it.  ``problem`` is the live
    problem built from its ``problem`` section.
    """

    document: dict[str, Any]
    problem: Problem


def _axis_triplet(value: Any, path: str) -> list[Any]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        fail(path, "must be a [low, high, count] triplet")
    lo = require_number(value[0], f"{path}[0]")
    hi = require_number(value[1], f"{path}[1]")
    count = require_integer(value[2], f"{path}[2]", minimum=3)
    if not hi > lo:
        fail(path, f"needs low < high, got [{lo}, {hi}]")
    return [lo, hi, count]


def _grid_section(section: Any) -> dict[str, Any]:
    require_object(section, "grid", _GRID_KEYS, ("state", "margin"))
    state = section["state"]
    if not isinstance(state, (list, tuple)) or not state:
        fail("grid.state", "must be a non-empty list of [low, high, count] axes")
    axes = [_axis_triplet(axis, f"grid.state[{i}]") for i, axis in enumerate(state)]
    margin = _axis_triplet(section["margin"], "grid.margin")
    step = section.get("time_step")
    if step is not None:
        step = require_number(step, "grid.time_step", positive=True)
    return {"state": axes, "margin": margin, "time_step": step}


def _scheme_section(section: Any) -> dict[str, Any]:
    section = require_object({} if section is None else section, "scheme", _SCHEME_KEYS)
    epsilon = section.get("epsilon")
    if epsilon is not None:
        epsilon = require_number(epsilon, "scheme.epsilon", positive=True)
    return {"epsilon": epsilon}


def _outputs_section(section: Any, dim_state: int) -> dict[str, Any]:
    section = require_object({} if section is None else section, "outputs", _OUTPUT_KEYS)
    directory = section.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        fail("outputs.directory", "must be a non-empty string")
    formats = section.get("formats", ["csv"])
    if not isinstance(formats, (list, tuple)):
        fail("outputs.formats", f"must be a list drawn from {_FORMATS}")
    for i, entry in enumerate(formats):
        if entry not in _FORMATS:
            fail(f"outputs.formats[{i}]", f"must be one of {_FORMATS}, got {entry!r}")
    if "csv" not in formats:
        fail("outputs.formats", "must list 'csv': every run writes its CSV artifacts")
    every = require_integer(section.get("checkpoint_every", 25), "outputs.checkpoint_every",
                     minimum=1)
    if "gnuplot" in formats and dim_state != 1:
        fail("outputs.formats", f"lists 'gnuplot', which plots a 1-D state only; "
                                f"this problem has {dim_state} state axes")
    return {"directory": directory, "formats": list(formats), "checkpoint_every": every}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Raises :class:`ParseError` for malformed JSON (with position),
    :class:`UnknownKey` for unrecognized keys (with a spelling suggestion),
    and :class:`SchemaViolation` for missing or out-of-range values (naming
    the offending path).
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"configuration is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})"
        ) from None
    require_object(document, "", _TOP_KEYS, ("problem",))
    problem, problem_spec = parse_problem(document["problem"])
    if "grid" in document:
        grid_spec = _grid_section(document["grid"])
    elif "builtin" in problem_spec:
        # built-in problems carry a stock grid so a bare name is runnable
        grid_spec = _grid_section(builtin_grid(problem_spec["builtin"]))
    else:
        fail("grid", "is required")
    scheme_spec = _scheme_section(document.get("scheme"))
    outputs = _outputs_section(document.get("outputs"), problem.dim_state)
    seed = require_integer(document.get("seed", 0), "seed", minimum=0)
    normalized = {"problem": problem_spec, "grid": grid_spec, "scheme": scheme_spec,
                  "outputs": outputs, "seed": seed}
    return RunConfig(document=normalized, problem=problem)


def serialize_config(config: RunConfig) -> str:
    """Inverse of :func:`parse_config`: the normalized document as JSON text."""
    return json.dumps(config.document, indent=1, sort_keys=True) + "\n"


def builtin_config(name: str, directory: str = "out") -> dict[str, Any]:
    """A complete config document for a built-in problem and its default
    grid; an unknown name raises KeyError with the catalog."""
    return {
        "problem": {"builtin": name},
        "grid": builtin_grid(name),
        "outputs": {"directory": directory},
    }


def _threshold(config: RunConfig, field: Field) -> float:
    """The level-set threshold of a run: the config's override, else the field's default."""
    epsilon = config.document["scheme"]["epsilon"]
    return field.epsilon if epsilon is None else epsilon


def _out_dir(config: RunConfig, out_dir: str | None = None) -> pathlib.Path:
    """Make and return ``out_dir``, else the config's ``outputs.directory``."""
    out = pathlib.Path(config.document["outputs"]["directory"] if out_dir is None else out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def resolve_grid(config: RunConfig) -> Grid:
    """Build the solve grid, choosing a stable time step when none is pinned."""
    spec = config.document["grid"]
    return stable_grid(config.problem, spec["state"], spec["margin"], spec["time_step"])


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def export_slice_csv(field_obj: Field, level: int, path: str) -> str:
    """Write one shortfall time level in long form: state columns, margin, value."""
    data = field_obj.slice_at(level)
    grid = field_obj.grid
    header = [f"state_{i + 1}" for i in range(grid.dim_state)] + ["margin", "shortfall"]
    write_csv(path, data, (*grid.state_axes, grid.margin_axis), header)
    return path


def export_profile_csv(field_obj: Field, level: int, path: str,
                       epsilon: float | None = None) -> str:
    """Write the required-margin profile at one level, read with the
    threshold ``epsilon`` (None: the field's own), to CSV."""
    profile = required_margin_profile(field_obj, level, epsilon)
    axes = field_obj.grid.state_axes
    header = [f"state_{i + 1}" for i in range(len(axes))] + ["required_margin"]
    write_csv(path, profile, axes, header)
    return path


_PLOT_TEMPLATE = """\
# rendered views of one solve: shortfall slices and the extracted profile.
# The dumb terminal renders anywhere gnuplot does; swap it for pngcairo
# (and .png output names) to get bitmaps.
set datafile separator comma
set key off
set terminal dumb size 120,35
set yrange [-1:*]
set xlabel 'state_1'
set output 'profile.txt'
set title 'required margin at the initial time'
plot '{profile}' every ::1 using 1:2 with lines
set output 'shortfall_slices.txt'
set title 'shortfall vs state at fixed margin levels'
plot {slices}
"""


def write_plot_script(path: str, slice_csv: str, profile_csv: str,
                      margin_levels: Sequence[float]) -> str:
    """Write a gnuplot script rendering the level-0 exports (1-D state only)."""
    slices = ", \\\n     ".join(
        f"'{slice_csv}' every ::1 using 1:($2 == {level:.17g} ? $3 : 1/0) with lines"
        for level in margin_levels
    )
    text = _PLOT_TEMPLATE.format(profile=profile_csv, slices=slices)
    with open(path, "w") as handle:
        handle.write(text)
    return path


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

def _sha256(path: pathlib.Path) -> str:
    """The file's SHA-256, read a MiB at a time: ``w_t0.csv`` of a 2-D grid
    can outweigh the sweep's two slices."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run(config: RunConfig, out_dir: str | None = None, *, resume: bool = False) -> dict[str, Any]:
    """Execute the full pipeline and write every artifact plus a manifest.

    Sweeps the shortfall field from the terminal slice, snapshots the
    levels ``every, 2·every, …`` as the sweep passes them and the terminal
    slice once it is done (so a refused sweep leaves no file), extracts the
    required-margin profile, and writes the CSV/plot exports.
    Snapshots are ``.json`` plus ``.npy`` pairs stamped with the digest of
    the sweep's inputs; level 0 goes out only as ``w_t0.csv``.  It
    allocates no (level, state, margin) array: the sweep holds two (state,
    margin) slices and keeps a copy of level 0 alone, and each snapshot is
    written from the sweep's slice as the sweep passes its level.
    The manifest maps every artifact to its SHA-256 content hash and embeds
    the normalized config; nothing in it depends on wall-clock time, so
    rerunning the same document reproduces it bit for bit.

    A ``KeyboardInterrupt`` stops the sweep where it lands, and each slice
    on disk stays whole.  The snapshots are the resume state: with
    ``resume=True`` the sweep restarts from the lowest slice of the unbroken
    chain below the last, so an interrupted run redoes at most ``every − 1``
    levels; a slice in that chain written for other inputs raises
    :class:`IncompatibleGrids`, and with no such slice the run is a fresh sweep.
    """
    out = _out_dir(config, out_dir)
    problem, document = config.problem, config.document
    grid = resolve_grid(config)
    inputs = hashlib.sha256(json.dumps(
        {"problem": document["problem"], "grid": document["grid"]},
        sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    every = int(document["outputs"]["checkpoint_every"])
    last = grid.n_levels - 1
    levels = sorted(set(range(every, grid.n_levels, every)) | {last})

    def prefix(level: int) -> str:
        return str(out / f"slice_{level:05d}")

    terminal = terminal_slice(problem, grid)
    # the sweep writes slices top down and rewrites only those below its
    # restart, so it restarts under an unbroken chain of slices
    start = (last, terminal)
    if resume:
        for level in reversed(levels[:-1]):
            stored = load_snapshot(prefix(level), grid, inputs)
            if stored is None:
                break
            start = stored

    def on_level(level: int, values: Array) -> None:
        if level in levels:
            save_snapshot(grid, level, values, prefix(level), inputs)

    field = solve_shortfall(problem, grid, on_level=on_level, resume=start)
    # the terminal slice never reaches on_level and the resume chain never
    # reads it; written from the terminal data, it has the same bytes on every run
    save_snapshot(grid, last, terminal, prefix(last), inputs)

    written: dict[str, str] = {}

    def record(*paths: str) -> None:
        for p in paths:
            q = pathlib.Path(p)
            if not q.exists():
                raise EpigraphError(
                    f"expected artifact {q.name} is missing; a resumed run must "
                    f"reuse the original output directory"
                )
            written[q.name] = _sha256(q)

    for level in levels:
        record(prefix(level) + ".json", prefix(level) + ".npy")

    epsilon = _threshold(config, field)
    record(export_profile_csv(field, 0, str(out / "profile.csv"), epsilon))
    record(export_slice_csv(field, 0, str(out / "w_t0.csv")))
    if "gnuplot" in document["outputs"]["formats"]:
        margin = grid.margin_axis
        jz = grid.margin_zero_index
        picks = sorted({jz, (jz + margin.size - 1) // 2, margin.size - 1})
        record(write_plot_script(str(out / "plot.gp"), "w_t0.csv", "profile.csv",
                                 [float(margin[j]) for j in picks]))

    manifest = {
        "artifacts": written,
        "config": document,
        "epsilon": float(epsilon),
        "grid": {"dt": float(grid.dt), "n_levels": int(grid.n_levels)},
        "snapshot_levels": [int(level) for level in levels],
    }
    write_json(out / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# verification battery and simulation spot checks
# ---------------------------------------------------------------------------

def run_verification(config: RunConfig, checks: str = "all") -> tuple[list[DiagnosticReport], bool]:
    """Run the diagnostic battery on the config's problem and grid and write
    ``reports.json``.

    ``checks`` is "all" or a comma-separated subset of the battery's checks;
    :func:`epigraph.verify.run_battery` says which ones "all" skips and which
    grids refuse a named one before the sweep.
    """
    from .verify import run_battery, write_reports

    reports = run_battery(config.problem, resolve_grid(config), checks,
                          config.document["seed"])
    write_reports(str(_out_dir(config) / "reports.json"), reports)
    return reports, all(report.passed for report in reports)


def run_simulation(config: RunConfig, n_paths: int = 20000) -> dict[str, Any]:
    """Monte Carlo spot check: cost and shortfall estimates plus one logged path.

    Plays the first control constantly from the center of the state box with
    the starting margin clamped to zero from below; writes ``simulate.json``
    and ``path.csv``.
    """
    from .simulate import (constant_policy, estimate_cost, estimate_shortfall, path_to_csv,
                           simulate_pair_path)

    out = _out_dir(config)
    problem, seed = config.problem, config.document["seed"]
    grid = resolve_grid(config)
    center = np.array([0.5 * (axis[0] + axis[-1]) for axis in grid.state_axes])
    start_margin = float(max(grid.margin_axis[0], 0.0))
    policy = constant_policy(problem.controls[0])
    cost = estimate_cost(problem, 0.0, center, policy, n_paths, grid.dt, seed)
    shortfall = estimate_shortfall(problem, 0.0, center, start_margin, policy,
                                   n_paths, grid.dt, seed + 1)
    sample = simulate_pair_path(problem, 0.0, center, start_margin, policy,
                                grid.dt, np.random.default_rng(seed))
    path_to_csv(sample, str(out / "path.csv"))
    results = {
        "control": np.atleast_1d(problem.controls[0]).tolist(),
        "state": center.tolist(),
        "margin": start_margin,
        "dt": float(grid.dt),
        "n_paths": int(n_paths),
        "cost": {"mean": cost.mean, "half_width": cost.half_width},
        "shortfall": {"mean": shortfall.mean, "half_width": shortfall.half_width},
    }
    write_json(out / "simulate.json", results)
    return results


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _read_config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` document with each given flag set as its key, parsed as a file is."""
    with open(args.config) as handle:
        document = json.loads(serialize_config(parse_config(handle.read())))
    if args.out is not None:
        document["outputs"]["directory"] = args.out
    if getattr(args, "seed", None) is not None:
        document["seed"] = args.seed
    if getattr(args, "epsilon", None) is not None:
        document["scheme"]["epsilon"] = args.epsilon
    return parse_config(json.dumps(document))


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _read_config(args)
    # SIGTERM stops the sweep as SIGINT does: both raise KeyboardInterrupt
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        manifest = run(config, resume=args.resume)
    except KeyboardInterrupt:
        print(f"error: interrupted; rerun with --resume to continue from the "
              f"lowest slice_<L> under {config.document['outputs']['directory']}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"wrote {len(manifest['artifacts'])} artifacts under "
          f"{config.document['outputs']['directory']} (see manifest.json)")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    config = _read_config(args)
    out = _out_dir(config)
    grid = resolve_grid(config)
    if not 0 <= args.level < grid.n_levels:
        raise SchemaViolation(
            f"--level must be in [0, {grid.n_levels - 1}], got {args.level}")
    field = solve_shortfall(config.problem, grid, keep=(args.level,))
    epsilon = _threshold(config, field)
    path = out / f"profile_{args.level:05d}.csv"
    export_profile_csv(field, args.level, str(path), epsilon)
    print(f"wrote {path} (epsilon {epsilon:.6g})")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _read_config(args)
    results = run_simulation(config, n_paths=args.paths)
    print(f"cost {results['cost']['mean']:.6g} +- {results['cost']['half_width']:.2g}, "
          f"shortfall {results['shortfall']['mean']:.6g} "
          f"+- {results['shortfall']['half_width']:.2g} "
          f"({args.paths} paths, see simulate.json)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _read_config(args)
    reports, all_pass = run_verification(config, checks=args.checks)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {report.name:20s} max residual {report.max_residual:.4g} "
              f"vs tolerance {report.tolerance:.4g}")
    return 0 if all_pass else 3


def _cmd_report(args: argparse.Namespace) -> int:
    out = pathlib.Path(args.out)
    path = out / "manifest.json"
    if not path.exists():
        print(f"error: no manifest.json under {out}", file=sys.stderr)
        return 1
    try:
        with open(path) as handle:
            manifest = json.load(handle)
        problem_spec = manifest["config"]["problem"]
        label = problem_spec.get("builtin") or problem_spec.get("name") or "inline"
        print(f"run directory: {out}")
        print(f"problem: {label}")
        print(f"grid: {manifest['grid']['n_levels']} levels, dt {manifest['grid']['dt']:.6g}")
        print(f"epsilon: {manifest['epsilon']:.6g}")
        print(f"artifacts ({len(manifest['artifacts'])}):")
        for name in sorted(manifest["artifacts"]):
            print(f"  {name}  {manifest['artifacts'][name][:12]}")
        path = out / "reports.json"
        if path.exists():
            with open(path) as handle:
                payload = json.load(handle)
            for entry in payload["reports"]:
                status = "PASS" if entry["pass"] else "FAIL"
                print(f"verification: {status} {entry['name']}")
    except KeyError as exc:
        print(f"error: {path} has no key {exc}", file=sys.stderr)
        return 1
    except (AttributeError, TypeError, ValueError) as exc:
        print(f"error: {path} is malformed: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epigraph",
        description="Shortfall-field solver with required-margin extraction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser, seed: bool = True) -> None:
        sub.add_argument("--config", required=True, metavar="PATH",
                         help="JSON run configuration")
        sub.add_argument("--out", metavar="DIR", help="set outputs.directory")
        if seed:  # extract reads no seed
            sub.add_argument("--seed", type=int, metavar="N", help="set seed")

    sub = commands.add_parser("solve", help="run the full pipeline and write artifacts")
    common(sub)
    sub.add_argument("--resume", action="store_true",
                     help="continue from the lowest slice_<L> written for the same inputs")
    sub.set_defaults(func=_cmd_solve)

    sub = commands.add_parser("extract", help="solve and write one required-margin profile")
    common(sub, seed=False)
    sub.add_argument("--epsilon", type=float, metavar="X", help="set scheme.epsilon")
    sub.add_argument("--level", type=int, default=0, metavar="K",
                     help="time level to extract (default 0)")
    sub.set_defaults(func=_cmd_extract)

    sub = commands.add_parser("simulate", help="Monte Carlo spot checks for the problem")
    common(sub)
    sub.add_argument("--paths", type=int, default=20000, metavar="N",
                     help="number of sample paths (default 20000)")
    sub.set_defaults(func=_cmd_simulate)

    sub = commands.add_parser("verify", help="run the diagnostic battery")
    common(sub)
    sub.add_argument("--checks", default="all", metavar="LIST",
                     help="comma list of battery checks (default all)")
    sub.set_defaults(func=_cmd_verify)

    sub = commands.add_parser("report", help="summarize a completed run directory")
    sub.add_argument("--out", required=True, metavar="DIR", help="run directory")
    sub.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return 0 if (exc.code or 0) == 0 else 1
    try:
        return args.func(args)
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EpigraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
