"""Config ingestion, the run pipeline, exports, and the command line surface."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import epigraph
from epigraph import cli, fields, solver
from epigraph.cli import (
    builtin_config,
    export_profile_csv,
    export_slice_csv,
    main,
    parse_config,
    resolve_grid,
    run,
    run_simulation,
    run_verification,
    serialize_config,
)
from epigraph.errors import (
    EpigraphError,
    IncompatibleGrids,
    ParseError,
    SchemaViolation,
    UnknownKey,
)
from epigraph.fields import (
    Field,
    load_snapshot,
    make_grid,
    save_snapshot,
    time_axis,
)
from epigraph.problems import BUILTIN_NAMES, builtin_scheme
from epigraph.solver import SchemeOptions, max_stable_dt, solve_shortfall
from epigraph.verify import CHECK_NAMES

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_json_blocks() -> list[str]:
    return re.findall(r"```json\n(.*?)```", README.read_text(), re.S)


def config_text(name: str, directory: str, **tweaks) -> str:
    document = builtin_config(name, directory=directory)
    document.update(tweaks)
    return json.dumps(document)


def zero_config(directory) -> cli.RunConfig:
    return parse_config(config_text("zero", str(directory)))


@pytest.fixture(scope="module")
def zero_run(tmp_path_factory):
    """One completed zero-problem run shared by the read-only tests."""
    out = tmp_path_factory.mktemp("zero_run")
    config = zero_config(out)
    manifest = run(config)
    return config, out, manifest


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_minimal_document_fills_defaults():
    config = parse_config(
        '{"problem": {"builtin": "zero"},'
        ' "grid": {"state": [[-1.0, 1.0, 11]], "margin": [0.0, 1.0, 11],'
        '          "time_step": 0.005}}'
    )
    assert config.scheme.hedge == "spectral"
    assert config.scheme == SchemeOptions()
    assert config.epsilon is None
    assert config.outputs == {"directory": "out", "formats": ["csv"],
                              "checkpoint_every": 25}
    assert config.seed == 0


def test_builtin_without_grid_uses_the_stock_grid():
    config = parse_config('{"problem": {"builtin": "jump-variance"}}')
    assert config.grid_spec == builtin_config("jump-variance")["grid"]


def test_inline_problem_still_requires_a_grid():
    with pytest.raises(SchemaViolation, match="grid"):
        parse_config('{"problem": {"horizon": 1.0}}')


def test_missing_horizon_names_the_path():
    with pytest.raises(SchemaViolation, match="problem.horizon"):
        parse_config('{"problem": {"dim_state": 1},'
                     ' "grid": {"state": [[-1, 1, 5]], "margin": [0, 1, 5]}}')


def test_unknown_top_level_key_suggests_grid():
    with pytest.raises(UnknownKey, match="grid"):
        parse_config('{"problem": {"builtin": "zero"}, "gird": {}}')


def test_unknown_scheme_key_suggests_hedge():
    text = config_text("zero", "out", scheme={"hedg": "frozen"})
    with pytest.raises(UnknownKey, match="hedge"):
        parse_config(text)


def test_removed_knobs_are_unknown_keys():
    with pytest.raises(UnknownKey, match="threads"):
        parse_config(config_text("zero", "out", threads=1))
    with pytest.raises(UnknownKey, match="scheme.delta"):
        parse_config(config_text("zero", "out", scheme={"delta": 0.0}))
    with pytest.raises(UnknownKey, match="scheme.safety"):
        parse_config(config_text("zero", "out", scheme={"safety": 0.9}))


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match="line 1"):
        parse_config('{"problem": }')


def test_readme_json_configs_parse():
    blocks = readme_json_blocks()
    assert len(blocks) == 2
    for block in blocks:
        parse_config(block)


def test_non_object_document_rejected():
    with pytest.raises(SchemaViolation):
        parse_config("[1, 2, 3]")


def test_epsilon_must_be_positive():
    with pytest.raises(SchemaViolation, match="scheme.epsilon"):
        parse_config(config_text("zero", "out", scheme={"epsilon": -0.5}))


def test_grid_axis_triplet_validation():
    with pytest.raises(SchemaViolation, match=r"grid.state\[0\]"):
        parse_config(config_text("zero", "out",
                                 grid={"state": [[1.0, -1.0, 5]], "margin": [0, 1, 5]}))


@pytest.mark.parametrize("grid, path", [
    ({"state": [[-1.0, 1.0, 2]], "margin": [0.0, 1.0, 5]}, "grid.state[0][2]"),
    ({"state": [[-1.0, 1.0, 5]], "margin": [0.0, 1.0, 2]}, "grid.margin[2]"),
])
def test_two_node_axes_are_refused_at_their_config_path(grid, path):
    with pytest.raises(SchemaViolation, match=re.escape(f"{path} must be >= 3")):
        parse_config(config_text("zero", "out", grid=grid))


def test_margin_axis_ending_at_zero_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, grid={"state": [[-1.0, 1.0, 5]],
                                        "margin": [-1.0, 0.0, 5], "time_step": 0.1})
    assert main(["solve", "--config", str(path)]) == 1
    assert "extend above 0" in capsys.readouterr().err


_PLANE = {"dim_state": 2, "horizon": 1.0, "controls": [[0.0, 0.0]],
          "terminal_cost": "square"}
_PLANE_GRID = {"state": [[-1.0, 1.0, 5], [-1.0, 1.0, 5]], "margin": [0.0, 1.0, 5]}


@pytest.mark.parametrize("formats", [[], ["gnuplot"]])
def test_formats_must_list_csv(tmp_path, capsys, formats):
    # every run writes its CSV artifacts, so a list without "csv" would be ignored
    text = config_text("zero", "out", outputs={"formats": formats})
    with pytest.raises(SchemaViolation, match="outputs.formats"):
        parse_config(text)
    path = tmp_path / "run.json"
    path.write_text(text)
    assert main(["solve", "--config", str(path)]) == 1
    assert "outputs.formats" in capsys.readouterr().err


def test_gnuplot_format_needs_a_one_dimensional_state(tmp_path, capsys):
    text = json.dumps({"problem": _PLANE, "grid": _PLANE_GRID,
                       "outputs": {"formats": ["csv", "gnuplot"]}})
    with pytest.raises(SchemaViolation, match="outputs.formats"):
        parse_config(text)
    path = tmp_path / "run.json"
    path.write_text(text)
    assert main(["solve", "--config", str(path)]) == 1
    assert "outputs.formats" in capsys.readouterr().err
    assert parse_config(json.dumps({"problem": _PLANE, "grid": _PLANE_GRID}))


def test_unknown_builtin_lists_catalog():
    with pytest.raises(SchemaViolation, match="deterministic-steering"):
        parse_config('{"problem": {"builtin": "steering"},'
                     ' "grid": {"state": [[-1, 1, 5]], "margin": [0, 1, 5]}}')


def test_inline_problem_round_trips():
    text = json.dumps({
        "problem": {"horizon": 0.5, "controls": [-1.0, 1.0], "drift": "control",
                    "terminal_cost": "square", "diffusion": 0.2,
                    "region": {"kind": "ball", "center": [0.0], "radius": 1.0},
                    "jumps": {"marks": [0.5], "weights": [1.0]}},
        "grid": {"state": [[-2.0, 2.0, 21]], "margin": [0.0, 1.0, 11],
                 "time_step": 0.01},
    })
    config = parse_config(text)
    assert config.problem.jumps.total_mass == 1.0
    assert config.problem.region.kind == "ball"
    again = parse_config(serialize_config(config))
    assert serialize_config(again) == serialize_config(config)


def test_inline_coefficients_cover_every_state_and_noise_axis():
    text = json.dumps({
        "problem": {"dim_state": 2, "dim_noise": 3, "horizon": 0.5,
                    "terminal_cost": "square", "diffusion": 0.2},
        "grid": {"state": [[-1.0, 1.0, 5], [-1.0, 1.0, 5]], "margin": [0.0, 1.0, 5]},
    })
    problem = parse_config(text).problem
    states = np.array([[1.0, 2.0], [-3.0, 0.5]])
    np.testing.assert_array_equal(problem.terminal_cost(states), [5.0, 9.25])
    sigma = problem.diffusion(0.0, states, problem.controls[0])
    np.testing.assert_array_equal(sigma, np.full((2, 2, 3), 0.2))


def test_builtin_round_trips():
    config = zero_config("out")
    assert serialize_config(parse_config(serialize_config(config))) == \
        serialize_config(config)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_scheme_is_a_valid_scheme_section(name):
    bare = parse_config(json.dumps({"problem": {"builtin": name}}))
    spelled = parse_config(json.dumps({"problem": {"builtin": name},
                                       "scheme": builtin_scheme(name)}))
    assert spelled.scheme == bare.scheme


def test_builtin_scheme_defaults_apply_and_user_wins():
    jumpy = parse_config(config_text("jump-variance", "out"))
    assert (jumpy.scheme.hedge, jumpy.scheme.jump_hedge) == ("frozen", "zero")
    forced = parse_config(config_text("jump-variance", "out",
                                      scheme={"hedge": "spectral"}))
    assert forced.scheme.hedge == "spectral"
    assert forced.scheme.jump_hedge == "zero"  # untouched default survives


def test_resolve_grid_picks_a_stable_step():
    config = parse_config(config_text(
        "zero", "out",
        grid={"state": [[-3.0, 3.0, 101]], "margin": [0.0, 1.0, 101],
              "time_step": None}))
    grid = resolve_grid(config)
    assert grid.dt <= max_stable_dt(config.problem, grid) * (1 + 1e-12)
    # and a pinned step is taken literally
    pinned = zero_config("out")
    assert resolve_grid(pinned).dt == pytest.approx(0.01)


# ---------------------------------------------------------------------------
# the run pipeline
# ---------------------------------------------------------------------------

def test_zero_run_profile_is_identically_zero(zero_run):
    _, out, manifest = zero_run
    table = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 1], np.zeros(table.shape[0]))
    assert manifest["epsilon"] == pytest.approx(1e-3)


def test_run_writes_manifest_and_snapshots(zero_run):
    _, out, manifest = zero_run
    assert manifest["snapshot_levels"] == [25, 50, 75, 100]
    slices = {f"slice_{level:05d}.{ext}" for level in (25, 50, 75, 100)
              for ext in ("json", "npy")}
    assert set(manifest["artifacts"]) == slices | {"w_t0.csv", "profile.csv"}
    assert {p.name for p in out.iterdir()} == set(manifest["artifacts"]) | {"manifest.json"}
    for name, digest in manifest["artifacts"].items():
        assert len(digest) == 64
    stored = json.loads((out / "manifest.json").read_text())
    assert stored == manifest


def test_run_writes_the_boundary_pair_at_level_zero(tmp_path):
    # the README's inline problem, with a ball small enough that the
    # constraint distance makes the ceiling nonzero; w_t0.csv holds the
    # floor (margin 0) and the ceiling (top margin) columns
    document = json.loads(readme_json_blocks()[1])
    document["problem"]["region"]["radius"] = 0.7
    document["outputs"] = {"directory": str(tmp_path / "ball")}
    config = parse_config(json.dumps(document))
    run(config)
    grid = resolve_grid(config)
    level0 = solve_shortfall(config.problem, grid, config.scheme).slice_at(0)
    table = np.loadtxt(tmp_path / "ball" / "w_t0.csv", delimiter=",", skiprows=1)
    written = table[:, -1].reshape(level0.shape)
    for column in (grid.margin_zero_index, -1):
        assert np.array_equal(written[..., column], level0[..., column])
    assert written[..., -1].max() > 0.0
    assert not list((tmp_path / "ball").glob("floor.*"))
    assert not list((tmp_path / "ball").glob("ceiling.*"))


def test_rerun_is_bit_identical(zero_run):
    config, out, _ = zero_run
    before = (out / "manifest.json").read_bytes()
    run(config)
    assert (out / "manifest.json").read_bytes() == before


def test_run_holds_one_full_history_field(tmp_path):
    # the sweep's shortfall field is the only (levels, state, margin) array
    # a run allocates; the terminal snapshot and the threshold read one slice
    config = zero_config(tmp_path / "memory")
    grid = resolve_grid(config)
    field_bytes = 8 * grid.n_levels * int(np.prod(grid.state_shape)) * grid.margin_axis.size
    tracemalloc.start()
    try:
        run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * field_bytes


def test_artifact_hashes_read_the_file_in_chunks(tmp_path):
    # a 2-D w_t0.csv can be larger than the sweep's two slices together
    path = tmp_path / "large.csv"
    content = np.random.default_rng(0).bytes(8 << 20)
    path.write_bytes(content)
    tracemalloc.start()
    try:
        digest = cli._sha256(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(content).hexdigest()
    assert peak < len(content) // 2


def _stop_sweep_at(monkeypatch, level: int, stop) -> None:
    """Make the sweep call ``stop()`` as it starts the step to ``level``."""
    step = solver._step_into

    def stopping(prev, t, dt, tables, *args, **kwargs):
        if t == tables.grid.times[level + 1]:
            stop()
        return step(prev, t, dt, tables, *args, **kwargs)

    monkeypatch.setattr(solver, "_step_into", stopping)


def _interrupt() -> None:
    raise KeyboardInterrupt


def _interrupted_zero_run(tmp_path, monkeypatch, level=59):
    """A zero run stopped by a KeyboardInterrupt in the step to ``level``
    (by default between the snapshot levels 50 and 75)."""
    path = write_config(tmp_path)
    out = tmp_path / "run"
    _stop_sweep_at(monkeypatch, level, _interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(parse_config(path.read_text()))
    monkeypatch.undo()
    # the slices are the only resume state
    assert sorted(p.name for p in out.iterdir()) == [
        f"slice_{done:05d}.{ext}" for done in (50, 75, 100) if done > level
        for ext in ("json", "npy")]
    return path, out


def _completed_zero_run(zero_run, tmp_path) -> pathlib.Path:
    """A config file whose output directory holds a copy of ``zero_run``."""
    shutil.copytree(zero_run[1], tmp_path / "run")
    return write_config(tmp_path)


def _count_steps(monkeypatch) -> dict[str, int]:
    calls = {"n": 0}
    step = solver._step_into

    def counted(*args, **kwargs):
        calls["n"] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "_step_into", counted)
    return calls


def test_interrupted_run_resumes_to_identical_artifacts(zero_run, tmp_path,
                                                        monkeypatch):
    _, _, reference = zero_run
    path, out = _interrupted_zero_run(tmp_path, monkeypatch)
    steps = _count_steps(monkeypatch)
    resumed = run(parse_config(path.read_text()), resume=True)
    assert steps["n"] == 75  # from slice_00075, redoing levels 74..59
    assert resumed["artifacts"] == reference["artifacts"]
    assert {p.name for p in out.iterdir()} == set(reference["artifacts"]) | {"manifest.json"}


def test_resume_under_another_cadence_ends_with_the_fresh_artifacts(tmp_path, monkeypatch):
    # Level 90, the top of the cadence-10 walk, was never written at cadence
    # 25, so the resumed run is a fresh sweep, also when slice_00050 (a
    # cadence-10 level below the missing 60) is on disk.
    fresh_out = tmp_path / "fresh"
    fresh = run(parse_config(config_text(
        "zero", str(fresh_out), outputs={"directory": str(fresh_out), "checkpoint_every": 10})))
    for level in (59, 44):
        base = tmp_path / str(level)
        base.mkdir()
        path, out = _interrupted_zero_run(base, monkeypatch, level)
        write_config(base, outputs={"directory": str(out), "checkpoint_every": 10})
        resumed = run(parse_config(path.read_text()), resume=True)
        assert resumed["snapshot_levels"] == list(range(10, 101, 10))
        assert resumed["artifacts"] == fresh["artifacts"]


def test_resuming_a_completed_run_redoes_one_cadence(zero_run, tmp_path, monkeypatch):
    config, source, reference = zero_run
    out = tmp_path / "done"
    shutil.copytree(source, out)
    steps = _count_steps(monkeypatch)
    assert run(config, str(out), resume=True) == reference
    assert steps["n"] == config.outputs["checkpoint_every"]
    assert (out / "manifest.json").read_bytes() == (source / "manifest.json").read_bytes()


def test_run_saves_each_snapshot_once(tmp_path, monkeypatch):
    out = tmp_path / "once"
    prefixes = []
    save = cli.save_snapshot

    def recorded(grid, level, values, prefix, inputs):
        prefixes.append(prefix)
        return save(grid, level, values, prefix, inputs)

    monkeypatch.setattr(cli, "save_snapshot", recorded)
    manifest = run(zero_config(out))
    assert sorted(prefixes) == [str(out / f"slice_{level:05d}")
                                for level in manifest["snapshot_levels"]]


def test_resume_without_checkpoint_is_a_fresh_run(zero_run, tmp_path):
    _, _, reference = zero_run
    config = zero_config(tmp_path / "fresh")
    assert run(config, resume=True)["artifacts"] == reference["artifacts"]


@pytest.mark.parametrize("change", ["problem", "scheme"])
def test_resume_refuses_another_problems_slices_on_the_same_grid(zero_run, tmp_path,
                                                                  capsys, change):
    # the zero problem's slices, resumed on its grid under a square terminal
    # cost or the frozen hedge: the grid's axes alone would accept them
    path = _completed_zero_run(zero_run, tmp_path)
    document = json.loads(path.read_text())
    if change == "problem":
        document["problem"] = {"horizon": 1.0, "drift": "control", "diffusion": 0.2,
                               "terminal_cost": "square", "controls": [-1.0, 0.0, 1.0]}
    else:
        document["scheme"] = {"hedge": "frozen"}
    path.write_text(json.dumps(document))
    with pytest.raises(IncompatibleGrids, match="slice_00075.json .*another problem or scheme"):
        run(parse_config(path.read_text()), resume=True)
    assert main(["solve", "--config", str(path), "--resume"]) == 2
    assert "slice_00075.json" in capsys.readouterr().err


def test_resume_rejects_a_slice_from_another_grid(tmp_path):
    out = tmp_path / "mismatch"
    config = zero_config(out)
    other = parse_config(config_text(
        "zero", str(out),
        grid={"state": [[-1.0, 1.0, 9]], "margin": [0.0, 1.0, 5],
              "time_step": 0.02}))
    small = solve_shortfall(other.problem, resolve_grid(other), other.scheme, keep=(3,))
    out.mkdir()
    # the top of the resume walk
    save_snapshot(small.grid, 3, small.slice_at(3), str(out / "slice_00075"), "")
    with pytest.raises(IncompatibleGrids, match="slice_00075.json .*another grid"):
        run(config, resume=True)


def test_resume_rejects_a_slice_of_the_wrong_shape(zero_run, tmp_path):
    config, source, _ = zero_run
    out = tmp_path / "reshaped"
    shutil.copytree(source, out)
    level25 = np.load(out / "slice_00025.npy")
    # a slice short of one state node, and one margin column (as the older
    # floor and ceiling files held)
    for wrong in (level25[:-1], level25[..., 0]):
        np.save(out / "slice_00025.npy", wrong)
        with pytest.raises(IncompatibleGrids, match="slice_00025.npy"):
            run(config, str(out), resume=True)


def test_resume_names_an_unreadable_slice(zero_run, tmp_path, capsys):
    path = _completed_zero_run(zero_run, tmp_path)
    meta = tmp_path / "run" / "slice_00025.json"
    meta.write_text(meta.read_text()[:40])
    with pytest.raises(EpigraphError, match="slice_00025.json is not a readable slice"):
        run(parse_config(path.read_text()), resume=True)
    assert main(["solve", "--config", str(path), "--resume"]) == 2
    assert "slice_00025.json" in capsys.readouterr().err


def test_an_older_run_directory_resumes_as_a_fresh_run(zero_run, tmp_path, monkeypatch):
    # the older writer stored the slices as slice_*.{json,csv} and the resume
    # slice as checkpoint.{json,csv}; resume reads neither
    config, source, reference = zero_run
    out = tmp_path / "older"
    shutil.copytree(source, out)
    for npy in out.glob("slice_*.npy"):
        np.savetxt(npy.with_suffix(".csv"), np.load(npy), fmt="%.17g", delimiter=",")
        npy.unlink()
    shutil.copy(out / "slice_00025.json", out / "checkpoint.json")
    shutil.copy(out / "slice_00025.csv", out / "checkpoint.csv")
    steps = _count_steps(monkeypatch)
    assert run(config, str(out), resume=True)["artifacts"] == reference["artifacts"]
    assert steps["n"] == 100


def test_checkpoints_are_written_on_cadence(tmp_path):
    out = tmp_path / "cadence"
    config = parse_config(config_text(
        "zero", str(out),
        grid={"state": [[-1.0, 1.0, 11]], "margin": [0.0, 1.0, 11],
              "time_step": 0.01},
        outputs={"directory": str(out), "checkpoint_every": 10}))
    manifest = run(config)
    assert manifest["snapshot_levels"] == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert sorted(p.name for p in out.glob("slice_*")) == sorted(
        f"slice_{level:05d}.{ext}" for level in manifest["snapshot_levels"]
        for ext in ("json", "npy"))


@pytest.mark.parametrize("older", [True, False])
def test_resume_recovers_from_a_missing_upper_slice(zero_run, tmp_path, monkeypatch, older):
    # In an older run directory slice_00050 is slice_00050.{json,csv}, or its
    # .npy was deleted: the chain on disk breaks at 50, so the run resumes
    # from slice_00075 and rewrites slice_00050.
    _, _, reference = zero_run
    path = _completed_zero_run(zero_run, tmp_path)
    npy = tmp_path / "run" / "slice_00050.npy"
    if older:
        np.savetxt(npy.with_suffix(".csv"), np.load(npy), fmt="%.17g", delimiter=",")
    npy.unlink()
    steps = _count_steps(monkeypatch)
    assert run(parse_config(path.read_text()), resume=True)["artifacts"] == reference["artifacts"]
    assert steps["n"] == 75


def test_last_slice_is_the_slice_the_sweep_starts_from(tmp_path, monkeypatch):
    # stock deterministic-steering: m(a) exceeds the top margin 0.6 at most
    # states, where the ceiling's column holds 0 in the file and the sweep alike
    config = parse_config(config_text("deterministic-steering", str(tmp_path / "steer")))
    grid = resolve_grid(config)
    last = grid.n_levels - 1
    _stop_sweep_at(monkeypatch, last - 1, _interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(config)  # slice_<last> is written before the first level
    monkeypatch.undo()

    def first_step(prev, *args, **kwargs):
        raise KeyboardInterrupt(prev.copy())

    monkeypatch.setattr(solver, "_step_into", first_step)
    with pytest.raises(KeyboardInterrupt) as stopped:
        solve_shortfall(config.problem, grid, config.scheme)
    monkeypatch.undo()
    swept = stopped.value.args[0]
    prefix = tmp_path / "steer" / f"slice_{last:05d}"
    inputs = json.loads(prefix.with_suffix(".json").read_text())["inputs"]
    level, written = load_snapshot(str(prefix), grid, inputs)
    assert level == last
    assert written.tobytes() == swept.tobytes()
    # the unclipped terminal shortfall of the top column would be positive
    assert swept[..., -2].max() > grid.margin_spacing
    assert not np.any(swept[..., -1])


@pytest.mark.parametrize("suffix", [".npy", ".json"])
def test_a_slice_write_stopped_halfway_leaves_the_slice_whole_or_absent(
        zero_run, tmp_path, monkeypatch, suffix):
    # KeyboardInterrupt halfway through writing slice_00050's .npy or .json
    _, _, reference = zero_run
    path = write_config(tmp_path)
    out = tmp_path / "run"
    torn = f"{out / 'slice_00050'}{suffix}"  # and any temp name after it
    save, dump = np.save, json.dump

    def halfway(data, handle):
        handle.write(data[:len(data) // 2])
        raise KeyboardInterrupt

    def torn_save(file, arr, *args, **kwargs):
        if str(getattr(file, "name", "")).startswith(torn):
            whole = io.BytesIO()
            save(whole, arr)
            halfway(whole.getvalue(), file)
        save(file, arr, *args, **kwargs)

    def torn_dump(obj, file, **kwargs):
        if file.name.startswith(torn):
            halfway(json.dumps(obj, **kwargs), file)
        dump(obj, file, **kwargs)

    monkeypatch.setattr(np, "save", torn_save)
    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(KeyboardInterrupt):
        run(parse_config(path.read_text()))
    monkeypatch.undo()
    # the .npy goes first and the .json commits the slice
    kept = {"slice_00050.npy"} if suffix == ".json" else set()
    assert {p.name for p in out.iterdir()} == kept | {
        "slice_00075.json", "slice_00075.npy", "slice_00100.json", "slice_00100.npy"}
    for name in kept:
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
            reference["artifacts"][name]
    resumed = run(parse_config(path.read_text()), resume=True)
    assert resumed["artifacts"] == reference["artifacts"]


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_a_signal_stops_solve_with_exit_two_and_resume_completes(
        zero_run, tmp_path, monkeypatch, capsys, signum):
    _, _, reference = zero_run
    path = write_config(tmp_path)
    out = tmp_path / "run"
    before = signal.getsignal(signal.SIGTERM)
    _stop_sweep_at(monkeypatch, 59, lambda: signal.raise_signal(signum))
    assert main(["solve", "--config", str(path)]) == 2
    assert signal.getsignal(signal.SIGTERM) == before
    assert capsys.readouterr().err == (
        f"error: interrupted; rerun with --resume to continue from the lowest "
        f"slice_<L> under {out}\n")
    monkeypatch.undo()
    assert main(["solve", "--config", str(path), "--resume"]) == 0
    capsys.readouterr()
    resumed = json.loads((out / "manifest.json").read_text())
    assert resumed["artifacts"] == reference["artifacts"]


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_slice_export_has_long_form_columns(zero_run):
    _, out, _ = zero_run
    lines = (out / "w_t0.csv").read_text().splitlines()
    assert lines[0] == "state_1,margin,shortfall"
    first = lines[1].split(",")
    assert float(first[0]) == -3.0 and float(first[1]) == 0.0


_SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, -1.7976931348623157e308,
            np.inf, -np.inf, np.nan, 0.1, 1.0 / 3.0, 123456789.0]


def _csv_module_reference(path, header, table):
    """The bytes the exports had when they went through :mod:`csv`."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in table:
            writer.writerow(["%.17g" % value for value in row])
    return path.read_bytes()


# profiles of a 1-D and a 2-D state, and the t = 0 slices of both; the
# slices hold more values than one formatted block
@pytest.mark.parametrize("shape", [(2000,), (35, 35), (141, 41), (9, 12, 41)])
def test_long_form_matches_the_meshgrid_table(tmp_path, shape):
    # The exports used to build every coordinate column with meshgrid and
    # write the stacked table through csv.writer; the writer must keep those
    # bytes while formatting each axis value once.
    rng = np.random.default_rng(len(shape))
    axes = [rng.normal(size=count) for count in shape]
    axes[0][:2] = [-0.0, np.inf]  # axis texts are formatted once, specials too
    values = rng.normal(size=shape)
    values.flat[: len(_SPECIAL)] = _SPECIAL
    values.flat[-1] = np.inf  # an unreachable profile entry
    header = [f"col_{i}" for i in range(len(shape) + 1)]
    path = tmp_path / "long.csv"
    fields.write_csv(str(path), values.reshape(-1, 1), axes, header)

    mesh = np.meshgrid(*axes, indexing="ij")
    table = np.column_stack([m.reshape(-1) for m in mesh] + [values.reshape(-1)])
    assert path.read_bytes() == _csv_module_reference(tmp_path / "ref.csv", header, table)


def test_slice_export_of_a_2d_state_matches_the_meshgrid_table(tmp_path):
    grid = make_grid([(-1.0, 1.0, 7), (0.0, 3.0, 11)], (0.0, 0.8, 41), time_axis(1.0, 0.5))
    values = np.random.default_rng(3).random((grid.n_levels, 7, 11, 41))
    field = Field(grid, {0: values[0]}, epsilon=1e-3)
    path = tmp_path / "w_t0.csv"
    assert export_slice_csv(field, 0, str(path)) == str(path)

    mesh = np.meshgrid(*grid.state_axes, grid.margin_axis, indexing="ij")
    table = np.column_stack([m.reshape(-1) for m in mesh] + [values[0].reshape(-1)])
    header = ["state_1", "state_2", "margin", "shortfall"]
    assert path.read_bytes() == _csv_module_reference(tmp_path / "ref.csv", header, table)


def test_writer_rejects_a_table_that_does_not_fit_the_axes(tmp_path):
    with pytest.raises(ValueError, match="rows do not match"):
        fields.write_csv(str(tmp_path / "x.csv"), np.zeros((5, 1)),
                         [np.arange(2.0), np.arange(3.0)], ["a", "b", "value"])


def test_profile_export_renders_unreachable_as_inf(tmp_path):
    # Frozen dynamics accrue |a| forever, so away from the origin no margin
    # on the axis brings the shortfall under the threshold.
    config = parse_config(config_text("frozen-penalty", str(tmp_path / "frozen")))
    field = solve_shortfall(config.problem, resolve_grid(config), config.scheme)
    path = tmp_path / "profile.csv"
    export_profile_csv(field, 0, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "state_1,required_margin"
    by_state = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
    assert by_state["-2"] == "inf"
    assert by_state["0"] == "0"


def test_plot_script_pins_margins_from_the_axis(tmp_path):
    script = tmp_path / "plot.gp"
    cli.write_plot_script(str(script), "w_t0.csv", "profile.csv", [0.0, 0.5, 1.0])
    text = script.read_text()
    assert "'profile.csv' every ::1 using 1:2" in text
    assert "$2 == 0.5" in text
    assert text.count("w_t0.csv") == 3


@pytest.mark.skipif(shutil.which("gnuplot") is None, reason="gnuplot not installed")
def test_plot_script_renders_without_warnings(tmp_path):
    out = tmp_path / "plotted"
    config = parse_config(config_text(
        "zero", str(out), outputs={"directory": str(out),
                                   "formats": ["csv", "gnuplot"]}))
    run(config)
    proc = subprocess.run(["gnuplot", "plot.gp"], cwd=out, capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert (out / "profile.txt").exists()


def test_gnuplot_format_adds_the_script_artifact(tmp_path):
    out = tmp_path / "with_plot"
    config = parse_config(config_text(
        "zero", str(out),
        grid={"state": [[-1.0, 1.0, 11]], "margin": [0.0, 1.0, 11],
              "time_step": 0.01},
        outputs={"directory": str(out), "formats": ["csv", "gnuplot"]}))
    manifest = run(config)
    assert "plot.gp" in manifest["artifacts"]


# ---------------------------------------------------------------------------
# simulation spot checks and the verification battery
# ---------------------------------------------------------------------------

def test_run_simulation_is_deterministic(tmp_path):
    out = tmp_path / "sim"
    config = parse_config(config_text(
        "zero", str(out),
        grid={"state": [[-1.0, 1.0, 11]], "margin": [0.0, 1.0, 11],
              "time_step": 0.02}))
    first = run_simulation(config, n_paths=500)
    blob = (out / "simulate.json").read_bytes()
    again = run_simulation(config, n_paths=500)
    assert first == again
    assert (out / "simulate.json").read_bytes() == blob
    assert first["cost"]["mean"] == 0.0        # zero problem: no costs at all
    assert (out / "path.csv").read_text().count("\n") >= 50


def test_run_verification_passes_on_the_zero_problem(tmp_path):
    out = tmp_path / "verified"
    config = zero_config(out)
    reports, all_pass = run_verification(config, checks="lipschitz,subsolution")
    assert all_pass
    names = [report.name for report in reports]
    assert names == ["lipschitz-quotients", "strict-subsolution"]
    payload = json.loads((out / "reports.json").read_text())
    assert payload["all_pass"] is True


@pytest.mark.parametrize("margin, check, message", [
    ([-1.0, 1.0, 11], "subsolution", "the log-margin probe needs the margin axis"),
    ([0.0, 1.0, 11], "slab", "margin axis goes below zero"),
], ids=["subsolution", "slab"])
def test_a_named_check_that_all_would_skip_raises_its_own_error(tmp_path, monkeypatch, capsys,
                                                                 margin, check, message):
    # "all" runs slab and skips the probe on a margin axis from -1, and the
    # reverse from 0 (the stock battery test); named, the skipped check
    # refuses the grid on the same predicate, before any sweep, with one
    # error class and so one exit code
    def no_sweep(*args, **kwargs):
        raise AssertionError("the refusal must come before the sweep")

    monkeypatch.setattr("epigraph.verify.solve_shortfall", no_sweep)
    document = config_text(
        "zero", str(tmp_path),
        grid={"state": [[-1.0, 1.0, 11]], "margin": margin, "time_step": 0.05})
    with pytest.raises(IncompatibleGrids, match=message):
        run_verification(parse_config(document), checks=check)
    assert not (tmp_path / "reports.json").exists()
    path = tmp_path / "config.json"
    path.write_text(document)
    assert main(["verify", "--config", str(path), "--checks", check]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "reports.json").exists()


def test_run_verification_rejects_unknown_check(tmp_path):
    config = zero_config(tmp_path)
    with pytest.raises(SchemaViolation, match="available"):
        run_verification(config, checks="lipschitz,bogus")


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def write_config(tmp_path, name="zero", **tweaks) -> pathlib.Path:
    path = tmp_path / "config.json"
    path.write_text(config_text(name, str(tmp_path / "run"), **tweaks))
    return path


def test_main_solve_then_report(tmp_path, capsys):
    path = write_config(
        tmp_path,
        grid={"state": [[-1.0, 1.0, 11]], "margin": [0.0, 1.0, 11],
              "time_step": 0.01})
    assert main(["solve", "--config", str(path)]) == 0
    assert main(["report", "--out", str(tmp_path / "run")]) == 0
    lines = capsys.readouterr().out
    assert "manifest.json" in lines
    assert "problem: zero" in lines


def test_main_exit_codes_for_bad_configs(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text('{"problem": {"builtin": "zero"}, "gird": {}}')
    assert main(["solve", "--config", str(bad_key)]) == 1

    bad_json = tmp_path / "bad_json.json"
    bad_json.write_text('{"problem": ')
    assert main(["solve", "--config", str(bad_json)]) == 1

    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_main_rejects_the_threads_option(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["solve", "--config", str(path), "--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err


def test_main_numerical_failure_exits_two(tmp_path, capsys):
    path = write_config(
        tmp_path,
        grid={"state": [[-3.0, 3.0, 101]], "margin": [0.0, 1.0, 101],
              "time_step": 0.5})
    assert main(["solve", "--config", str(path)]) == 2
    assert "stable bound" in capsys.readouterr().err


def test_main_usage_error_exits_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_main_verify_exit_three_on_failure(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path)
    monkeypatch.setattr(cli, "run_verification", lambda config, **kw: ([], False))
    assert main(["verify", "--config", str(path)]) == 3
    capsys.readouterr()


def test_main_verify_passes_quick_checks(tmp_path, capsys):
    path = write_config(
        tmp_path,
        grid={"state": [[-1.0, 1.0, 11]], "margin": [0.0, 1.0, 11],
              "time_step": 0.01})
    assert main(["verify", "--config", str(path), "--checks", "lipschitz,subsolution"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


@pytest.mark.parametrize("check", ["sign", "taylor"])
def test_main_verify_refuses_the_checks_that_read_no_solve(tmp_path, capsys, check):
    path = write_config(tmp_path)
    assert main(["verify", "--config", str(path), "--checks", check]) == 1
    err = capsys.readouterr().err
    assert f"unknown check {check!r}" in err
    assert "available: lipschitz, slab, subsolution, dpp" in err


def test_readme_names_only_checks_of_the_battery():
    lists = re.findall(r"--checks ([\w,]+)", README.read_text())
    assert lists
    for listed in lists:
        assert set(listed.split(",")) <= set(CHECK_NAMES), listed


def test_every_public_name_resolves():
    assert epigraph.__all__
    for name in epigraph.__all__:
        assert getattr(epigraph, name) is not None, name


def test_main_extract_honors_epsilon_and_level(tmp_path, capsys):
    path = write_config(
        tmp_path,
        grid={"state": [[-1.0, 1.0, 11]], "margin": [0.0, 1.0, 11],
              "time_step": 0.01})
    assert main(["extract", "--config", str(path), "--epsilon", "0.05",
                 "--level", "3"]) == 0
    profile = tmp_path / "run" / "profile_00003.csv"
    assert profile.exists()
    assert main(["extract", "--config", str(path), "--level", "9999"]) == 1
    capsys.readouterr()


def test_main_seed_override_lands_in_manifest(tmp_path, capsys):
    path = write_config(
        tmp_path,
        grid={"state": [[-1.0, 1.0, 11]], "margin": [0.0, 1.0, 11],
              "time_step": 0.01})
    assert main(["solve", "--config", str(path), "--seed", "7",
                 "--out", str(tmp_path / "other")]) == 0
    manifest = json.loads((tmp_path / "other" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["outputs"]["directory"] == str(tmp_path / "other")
    capsys.readouterr()


def test_main_simulate_smoke(tmp_path, capsys):
    path = write_config(
        tmp_path,
        grid={"state": [[-1.0, 1.0, 11]], "margin": [0.0, 1.0, 11],
              "time_step": 0.02})
    assert main(["simulate", "--config", str(path), "--paths", "200"]) == 0
    assert (tmp_path / "run" / "simulate.json").exists()
    assert "cost" in capsys.readouterr().out


@pytest.mark.parametrize("name, checks", [
    ("frozen-penalty", ["lipschitz-quotients", "slab-identity", "dpp-one-sided"]),
    ("zero", ["lipschitz-quotients", "strict-subsolution", "dpp-one-sided"]),
])
def test_default_battery_passes_on_stock_builtins_and_report_lists_it(
        tmp_path, capsys, name, checks):
    # --checks all: slab needs margins below 0, the subsolution probe a
    # margin axis above -1, so each stock grid runs one of the two
    path = write_config(tmp_path, name)
    assert main(["solve", "--config", str(path)]) == 0
    assert main(["verify", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path / "run")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("verification:")] == [
        f"verification: PASS {check}" for check in checks]


def test_python_dash_m_epigraph_runs_the_command_line():
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "epigraph", "--help"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: epigraph")


def test_main_report_missing_directory(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "nowhere")]) == 1
    assert "manifest" in capsys.readouterr().err
