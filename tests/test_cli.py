"""Config ingestion, the run pipeline, exports, and the command line surface."""

from __future__ import annotations

import csv
import hashlib
import importlib
import inspect
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
import warnings

import numpy as np
import pytest

import epigraph
from epigraph import cli, errors, fields, solver
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
from epigraph.problems import BUILTIN_NAMES
from epigraph.solver import max_stable_dt, solve_shortfall
from epigraph.verify import CHECK_NAMES, subsolution_steps

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


@pytest.fixture
def no_sweep(monkeypatch):
    """Fail a command that reaches the sweep: its refusal must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("the refusal must come before the sweep")

    monkeypatch.setattr(cli, "solve_shortfall", refuse)


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_minimal_document_fills_defaults():
    config = parse_config(
        '{"problem": {"builtin": "zero"},'
        ' "grid": {"state": [[-1.0, 1.0, 11]], "margin": [0.0, 1.0, 11],'
        '          "time_step": 0.005}}'
    )
    assert config.document["scheme"]["epsilon"] is None
    assert config.document["outputs"] == {"directory": "out", "formats": ["csv"],
                                          "checkpoint_every": 25}
    assert config.document["seed"] == 0


def test_builtin_without_grid_uses_the_stock_grid():
    config = parse_config('{"problem": {"builtin": "jump-variance"}}')
    assert config.document["grid"] == builtin_config("jump-variance")["grid"]


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


def test_unknown_scheme_key_suggests_epsilon():
    text = config_text("zero", "out", scheme={"epsilom": 0.05})
    with pytest.raises(UnknownKey, match="scheme.epsilom.*did you mean 'epsilon'"):
        parse_config(text)


def test_removed_knobs_are_unknown_keys():
    with pytest.raises(UnknownKey, match="threads"):
        parse_config(config_text("zero", "out", threads=1))
    with pytest.raises(UnknownKey, match="scheme.delta"):
        parse_config(config_text("zero", "out", scheme={"delta": 0.0}))
    with pytest.raises(UnknownKey, match="scheme.safety"):
        parse_config(config_text("zero", "out", scheme={"safety": 0.9}))
    with pytest.raises(UnknownKey, match="scheme.hedge"):
        parse_config(config_text("zero", "out", scheme={"hedge": "frozen"}))
    with pytest.raises(UnknownKey, match="scheme.beta_candidates"):
        parse_config(config_text("zero", "out", scheme={"beta_candidates": "zero"}))


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


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_inline_controls_exit_one_naming_the_entry(tmp_path, capsys, entry):
    # Python's json reads NaN and Infinity, so a flat control list can carry
    # them; each entry is checked as the entries of per-component lists are
    path = tmp_path / "run.json"
    path.write_text('{"problem": {"horizon": 1.0, "controls": [%s, 0.0]},'
                    ' "grid": {"state": [[-1, 1, 5]], "margin": [0, 1, 5]}}' % entry)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert "problem.controls[0] must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _refused_before_the_sweep(tmp_path, capsys, document) -> str:
    """``solve`` on ``document`` exits 1 before any sweep; its error text."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(document))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert not (tmp_path / "run").exists()
    return capsys.readouterr().err


_LINE_GRID = {"state": [[-1.0, 1.0, 5]], "margin": [0.0, 1.0, 5]}


def test_control_rows_of_unequal_length_exit_one_naming_the_row(tmp_path, capsys, no_sweep):
    document = {"problem": {"horizon": 1.0, "controls": [[1.0], [1.0, 2.0]]},
                "grid": _LINE_GRID}
    err = _refused_before_the_sweep(tmp_path, capsys, document)
    assert "problem.controls[1] needs 1 components, got 2" in err


def test_drift_control_refuses_a_control_width_it_cannot_take(tmp_path, capsys, no_sweep):
    # the drift is the control: dim_state components, or one that broadcasts
    def plane(controls):
        return {"problem": {**_PLANE, "controls": controls, "drift": "control"},
                "grid": _PLANE_GRID}

    err = _refused_before_the_sweep(tmp_path, capsys, plane([[1.0, 0.0, 2.0]]))
    assert "problem.controls needs 1 or 2 components" in err
    assert "got 3" in err
    config = parse_config(json.dumps(plane([[1.0]])))
    assert resolve_grid(config).dt > 0.0


@pytest.mark.parametrize("region, message", [
    ({"kind": "ball", "center": [0.0], "radius": "1"}, "problem.region.radius must be a number"),
    ({"kind": "ball", "center": [0.0], "radius": -1}, "problem.region.radius must be >= 0"),
    ({"kind": "box", "lo": [1.0], "hi": [0.0]}, "problem.region: lo[0] must be <= hi[0]"),
    ({"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}, "problem.region.lo needs 1 components"),
    ({"kind": "point", "center": ["x"]}, "problem.region.center[0] must be a number"),
    ({"kind": "halfspace", "normal": [0.0]}, "problem.region: normal must be nonzero"),
    ({"kind": "halfspace", "normal": [1.0], "offset": "0"},
     "problem.region.offset must be a number"),
    ({"kind": "ball", "center": [0.0], "radius": 1.0, "lo": [5.0]},
     "problem.region.lo is not read by kind 'ball', which reads center, radius"),
], ids=["radius-string", "radius-negative", "box-inverted", "box-too-wide", "center-string",
        "normal-zero", "offset-string", "key-of-another-kind"])
def test_region_fields_are_checked_where_they_are_read(tmp_path, capsys, no_sweep,
                                                       region, message):
    document = {"problem": {"horizon": 1.0, "region": region}, "grid": _LINE_GRID}
    assert message in _refused_before_the_sweep(tmp_path, capsys, document)


# the region kinds a document can state; ``callable`` is an API-only kind
_DOCUMENT_KINDS = "problem.region.kind must be one of ('all', 'box', 'ball', 'halfspace', 'point')"


def _malformed(problem=(), **sections):
    """A line document with ``problem``'s entries in its problem section and
    ``sections`` in place of its other sections."""
    return {"problem": {"horizon": 1.0, **dict(problem)}, "grid": _LINE_GRID, **sections}


@pytest.mark.parametrize("document, message", [
    (_malformed(grid={"state": [[-1.0, 1.0]], "margin": [0.0, 1.0, 5]}),
     "grid.state[0] must be a [low, high, count] triplet"),
    (_malformed(grid={"state": [[-1.0, 1.0, 5.5]], "margin": [0.0, 1.0, 5]}),
     "grid.state[0][2] must be an integer"),
    (_malformed(grid={"margin": [0.0, 1.0, 5]}), "grid.state is required"),
    (_malformed(grid={"state": [], "margin": [0.0, 1.0, 5]}),
     "grid.state must be a non-empty list"),
    (_malformed(grid=[[-1.0, 1.0, 5]]), "grid must be an object"),
    (_malformed(scheme=["epsilon"]), "scheme must be an object"),
    (_malformed(outputs="out"), "outputs must be an object"),
    (_malformed(outputs={"formats": "csv"}), "outputs.formats must be a list"),
    (_malformed(outputs={"formats": ["csv", "png"]}), "outputs.formats[1] must be one of"),
    ({"problem": [1.0], "grid": _LINE_GRID}, "problem must be an object"),
    ({"problem": None, "grid": _LINE_GRID}, "problem must be an object"),
    ({"grid": _LINE_GRID}, "problem is required"),
    (_malformed({"region": "box"}), "problem.region must be an object"),
    (_malformed({"region": {"kind": "point", "center": 0.0}}),
     "problem.region.center must be a list of 1 numbers"),
    (_malformed({"jumps": [1.0]}), "problem.jumps must be an object"),
    (_malformed({"jumps": {"marks": [1.0]}}), "problem.jumps.weights is required"),
    (_malformed({"jumps": {"marks": [1.0, 2.0], "weights": [1.0]}}),
     "problem.jumps.weights needs 2 components, got 1"),
    (_malformed({"jumps": {"marks": [True], "weights": [1.0]}}),
     "problem.jumps.marks[0] must be a number"),
    (_malformed({"jumps": {"marks": [0.5], "weights": [True]}}),
     "problem.jumps.weights[0] must be a number"),
    (_malformed({"jumps": {"marks": [[0.5, 1.0]], "weights": [1.0]}}),
     "problem.jumps.marks[0] must be a number"),
    (_malformed({"jumps": {"marks": 0.5, "weights": 1.0}}),
     "problem.jumps.marks must be a list of numbers"),
    (_malformed({"controls": "all"}), "problem.controls must be a non-empty list"),
    (_malformed({"controls": [[1.0], []]}), "problem.controls[1] must be a non-empty list"),
    (_malformed({"drift": "fast"}), 'problem.drift must be "control", a number, or a list'),
    (_malformed({"terminal_cost": "cube"}),
     'problem.terminal_cost must be "zero", "square", or a number'),
    (_malformed({"name": 3}), "problem.name must be a string"),
    ({"problem": {"builtin": 3}, "grid": _LINE_GRID}, "problem.builtin must be a string"),
    ([_LINE_GRID], "the configuration must be an object"),
    (_malformed(scheme=[]), "scheme must be an object"),
    (_malformed(outputs=[]), "outputs must be an object"),
    (_malformed({"region": {"kind": "box", "lo": [0.0]}}), "problem.region: box region needs hi"),
    (_malformed({"region": {"kind": "callable"}}), _DOCUMENT_KINDS),
    (_malformed({"region": {"kind": "nope"}}), _DOCUMENT_KINDS),
], ids=["axis-not-a-triplet", "count-not-an-integer", "state-missing", "state-empty",
        "grid-not-an-object", "scheme-not-an-object", "outputs-not-an-object",
        "formats-not-a-list", "formats-unknown-entry", "problem-a-list", "problem-null",
        "problem-missing", "region-not-an-object", "region-vector-not-a-list",
        "jumps-not-an-object", "jumps-without-weights", "jumps-of-unequal-lengths",
        "jump-mark-a-bool", "jump-weight-a-bool", "jump-marks-nested", "jump-marks-a-number",
        "controls-not-a-list", "controls-row-empty", "drift-of-another-type",
        "terminal-cost-of-another-type", "name-not-a-string", "builtin-not-a-string",
        "document-a-list", "scheme-an-empty-list", "outputs-an-empty-list", "box-without-hi",
        "region-kind-callable", "region-kind-unknown"])
def test_a_malformed_document_exits_one_naming_its_path(tmp_path, capsys, no_sweep,
                                                        document, message):
    err = _refused_before_the_sweep(tmp_path, capsys, document)
    assert message in err
    # a document cannot carry a function, so no refusal asks for one
    assert "callable" not in err and "func" not in err


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
    # the scheme a built-in's document records, written out, parses to the
    # same document
    bare = parse_config(json.dumps({"problem": {"builtin": name}}))
    spelled = parse_config(json.dumps({"problem": {"builtin": name},
                                       "scheme": bare.document["scheme"]}))
    assert spelled.document == bare.document


def test_a_document_without_scheme_records_epsilon_alone():
    # the scheme section holds the level-set threshold and nothing else
    for document in ({"problem": {"horizon": 1.0}, "grid": _LINE_GRID},
                     *({"problem": {"builtin": name}} for name in BUILTIN_NAMES)):
        config = parse_config(json.dumps(document))
        assert config.document["scheme"] == {"epsilon": None}, document


@pytest.mark.parametrize("key, value", [("hedge", "frozen"), ("hedge", "spectral"),
                                        ("hedge", "wavelet"), ("beta_candidates", "zero"),
                                        ("beta_candidates", "grid"),
                                        ("beta_candidates", "dense")])
def test_a_hedge_other_than_zero_is_refused_at_parse(tmp_path, capsys, no_sweep, key, value):
    # the sweep solves the unhedged equation and reads no hedge setting: a
    # document that states one, hedged or at the old zero default, exits 1
    # naming the key, before any sweep
    with pytest.raises(UnknownKey, match=rf"unknown key 'scheme\.{key}'"):
        parse_config(config_text("zero", "out", scheme={key: value}))
    path = write_config(tmp_path, scheme={key: value})
    assert main(["solve", "--config", str(path)]) == 1
    assert f"unknown key 'scheme.{key}'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_resolve_grid_picks_a_stable_step(tmp_path):
    config = parse_config(config_text(
        "zero", "out",
        grid={"state": [[-3.0, 3.0, 101]], "margin": [0.0, 1.0, 101],
              "time_step": None}))
    grid = resolve_grid(config)
    assert grid.dt <= max_stable_dt(config.problem, grid) * (1 + 1e-12)
    # a number caps the step: the fewest equal steps no longer than it over
    # the horizon of 1, and at least two; 0.01 divides it
    stock = builtin_config("zero")["grid"]
    for step, dt, n_levels in ((0.01, 0.01, 101), (0.3, 0.25, 5), (2.0, 0.5, 3)):
        capped = resolve_grid(parse_config(config_text(
            "zero", "out", grid={**stock, "time_step": step})))
        assert (capped.dt, capped.n_levels) == (pytest.approx(dt), n_levels), step
    # on a state axis coarse enough that the capped step is stable
    manifest = run(parse_config(config_text(
        "zero", str(tmp_path / "capped"),
        grid={"state": [[-3.0, 3.0, 11]], "margin": [0.0, 1.0, 11], "time_step": 0.3})))
    assert manifest["grid"] == {"dt": 0.25, "n_levels": 5}


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
    level0 = solve_shortfall(config.problem, grid).slice_at(0)
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
    # the slices are the only resume state; the last, the terminal slice, is
    # written once the sweep is done
    assert sorted(p.name for p in out.iterdir()) == [
        f"slice_{done:05d}.{ext}" for done in (50, 75) if done > level
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
    assert steps["n"] == config.document["outputs"]["checkpoint_every"]
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


@pytest.mark.parametrize("change", ["problem", "epsilon"])
def test_resume_refuses_another_problems_slices_on_the_same_grid(zero_run, tmp_path,
                                                                  capsys, monkeypatch, change):
    # the zero problem's slices, resumed on its grid under a square terminal
    # cost: the grid's axes alone would accept them.  The sweep never reads
    # epsilon, so a resume under another one reuses the slices.
    reference = zero_run[2]
    path = _completed_zero_run(zero_run, tmp_path)
    document = json.loads(path.read_text())
    if change == "problem":
        document["problem"] = {"horizon": 1.0, "drift": "control", "diffusion": 0.2,
                               "terminal_cost": "square", "controls": [-1.0, 0.0, 1.0]}
    else:
        document["scheme"] = {"epsilon": 0.05}
    path.write_text(json.dumps(document))
    if change == "epsilon":
        config = parse_config(path.read_text())
        steps = _count_steps(monkeypatch)
        resumed = run(config, resume=True)
        assert steps["n"] == config.document["outputs"]["checkpoint_every"]
        assert resumed["epsilon"] == 0.05
        slices = {name for name in reference["artifacts"] if name.startswith("slice_")}
        assert {name: resumed["artifacts"][name] for name in slices} == {
            name: reference["artifacts"][name] for name in slices}
        return
    with pytest.raises(IncompatibleGrids, match="slice_00075.json .*another problem,"):
        run(parse_config(path.read_text()), resume=True)
    assert main(["solve", "--config", str(path), "--resume"]) == 2
    assert "slice_00075.json" in capsys.readouterr().err


class _Stop(Exception):
    """Raised by a patched writer to end a run once it has what a test reads."""


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_slice_inputs_digest_of_the_stock_configs_is_unchanged(tmp_path, monkeypatch, name):
    # the digest every slice on disk was stamped with: the problem and grid
    # sections, all the sweep reads.  A drift in what run() hashes orphans
    # those slices.
    config = parse_config(config_text(name, str(tmp_path / "run")))
    reference = hashlib.sha256(json.dumps(
        {"problem": config.document["problem"], "grid": config.document["grid"]},
        sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    stamped = []

    def stop(grid, level, values, prefix, inputs):
        stamped.append(inputs)
        raise _Stop

    monkeypatch.setattr(cli, "save_snapshot", stop)
    with pytest.raises(_Stop):
        run(config)
    assert stamped == [reference]


def test_resume_refuses_slices_stamped_with_the_hedge_keys(zero_run, tmp_path, capsys):
    # slices written while the scheme section held the two hedge keys were
    # stamped with a digest that also hashed them; they are other inputs now
    config = zero_run[0]
    path = _completed_zero_run(zero_run, tmp_path)
    older = hashlib.sha256(json.dumps(
        {"problem": config.document["problem"], "grid": config.document["grid"],
         "hedge": "frozen", "beta_candidates": "zero"},
        sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    stamped = sorted((tmp_path / "run").glob("slice_*.json"))
    assert stamped
    for slice_json in stamped:
        meta = json.loads(slice_json.read_text())
        slice_json.write_text(json.dumps({**meta, "inputs": older}))
    with pytest.raises(IncompatibleGrids, match="slice_00075.json .*another problem,"):
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
    small = solve_shortfall(other.problem, resolve_grid(other), keep=(3,))
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
    run(config)  # slice_<last> is written once the sweep is done

    def first_step(prev, *args, **kwargs):
        raise KeyboardInterrupt(prev.copy())

    monkeypatch.setattr(solver, "_step_into", first_step)
    with pytest.raises(KeyboardInterrupt) as stopped:
        solve_shortfall(config.problem, grid)
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
    assert {p.name for p in out.iterdir()} == kept | {"slice_00075.json", "slice_00075.npy"}
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


# where the writer's encoder changes layout or leaves its fast path: signed
# zeros, the subnormal and normal floors, the fixed-to-scientific switch at
# 1e-4, the third exponent digit at 1e-100, the fixed notation's top at 1e16,
# the ends of the fast path's range, and every power of ten between 1e-20
# and 1e15 with its two neighbours
_ENCODER_EDGES = [
    0.0, -0.0, 5e-324, np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 0.0),
    1e-4, np.nextafter(1e-4, 0.0), 1e-99, 1e-100, 1e16, np.nextafter(1e16, 0.0),
    1e-280, np.nextafter(1e-280, 0.0), 1e280, np.nextafter(1e280, 0.0), np.inf, -np.inf,
    *[edge for power in range(-20, 16) for value in [float(f"1e{power}")]
      for edge in (value, np.nextafter(value, 0.0), np.nextafter(value, np.inf))],
]

_SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, -1.7976931348623157e308,
            np.inf, -np.inf, np.nan, 0.1, 1.0 / 3.0, 123456789.0, *_ENCODER_EDGES]


def _csv_module_reference(path, header, table):
    """The bytes the exports had when they went through :mod:`csv`."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in table:
            writer.writerow(["%.17g" % value for value in row])
    return path.read_bytes()


# profiles of a 1-D and a 2-D state, and the t = 0 slices of both; the
# slices hold more values than one formatted block.  The wide case spans
# 10**-300..10**17 and holds a block of +0.0 and a block of -0.0, one the
# encoder spells whole and one it spells not at all.
@pytest.mark.parametrize("shape, wide", [((2000,), False), ((35, 35), False),
                                         ((141, 41), False), ((9, 12, 41), False),
                                         ((300, 41), True)],
                         ids=["shape0", "shape1", "shape2", "shape3", "wide"])
def test_long_form_matches_the_meshgrid_table(tmp_path, shape, wide):
    # The exports used to build every coordinate column with meshgrid and
    # write the stacked table through csv.writer; the writer must keep those
    # bytes while formatting each axis value once.
    rng = np.random.default_rng(len(shape))
    axes = [rng.normal(size=count) for count in shape]
    axes[0][:2] = [-0.0, np.inf]  # axis texts are formatted once, specials too
    if wide:
        values = 10.0 ** rng.uniform(-300.0, 17.0, size=shape)
        block = fields._VALUES_PER_WRITE // shape[-1] * shape[-1]
        values.flat[block:2 * block] = 0.0
        values.flat[2 * block:3 * block] = -0.0
        assert values.size > 3 * block
    else:
        values = rng.normal(size=shape)
    values.flat[: len(_SPECIAL)] = _SPECIAL
    values.flat[-1] = np.inf  # an unreachable profile entry
    header = [f"col_{i}" for i in range(len(shape) + 1)]
    path = tmp_path / "long.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fields.write_csv(str(path), values, axes, header)

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


def test_solved_slice_export_reads_back_exactly(tmp_path):
    # deterministic-steering on its stock grid: its t = 0 slice holds
    # positive values across some 80 decimal exponents, and zeros
    config = parse_config(config_text("deterministic-steering", str(tmp_path / "out")))
    field = solve_shortfall(config.problem, resolve_grid(config))
    level0 = field.slice_at(0)
    positive = level0[level0 > 0.0]
    assert np.unique(np.floor(np.log10(positive))).size >= 41
    path = tmp_path / "w_t0.csv"
    export_slice_csv(field, 0, str(path))

    grid = field.grid
    mesh = np.meshgrid(*grid.state_axes, grid.margin_axis, indexing="ij")
    table = np.column_stack([m.reshape(-1) for m in mesh] + [level0.reshape(-1)])
    header = ["state_1", "margin", "shortfall"]
    assert path.read_bytes() == _csv_module_reference(tmp_path / "ref.csv", header, table)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back.view(np.uint64), table.view(np.uint64))


def test_encoder_matches_percent_17g_on_random_bit_patterns():
    # 2**20 random doubles: every exponent, both signs, subnormals, infinities
    # and nan payloads, then the edges, encoded block by block as the writer
    # does
    rng = np.random.default_rng(22)
    patterns = rng.integers(0, 2 ** 64, size=2 ** 20, dtype=np.uint64).view(np.float64)
    assert np.isnan(patterns).sum() > 100 and (patterns < 0.0).sum() > 2 ** 18
    values = np.concatenate([patterns, _ENCODER_EDGES])
    proven = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start in range(0, values.size, fields._VALUES_PER_WRITE):
            block = values[start:start + fields._VALUES_PER_WRITE]
            assert fields._encode(block) == [b"%.17g" % value for value in block.tolist()]
            proven.append(fields._spell(block)[1])
    # the fast path, not the per-value fallback, spells the values it can
    proven = np.concatenate(proven)
    in_range = (values >= 1e-280) & (values < 1e280)
    assert proven[in_range].mean() > 0.999
    assert not proven[~in_range & (values != 0.0)].any()


def test_writer_rejects_a_table_that_does_not_fit_the_axes(tmp_path):
    with pytest.raises(ValueError, match="rows do not match"):
        fields.write_csv(str(tmp_path / "x.csv"), np.zeros(5),
                         [np.arange(2.0), np.arange(3.0)], ["a", "b", "value"])


def test_profile_export_renders_unreachable_as_inf(tmp_path):
    # Frozen dynamics accrue |a| forever, so away from the origin no margin
    # on the axis brings the shortfall under the threshold.
    config = parse_config(config_text("frozen-penalty", str(tmp_path / "frozen")))
    field = solve_shortfall(config.problem, resolve_grid(config))
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


class _Swept(Exception):
    """Stops the battery at its sweep, carrying the levels it asked to keep."""


@pytest.mark.parametrize("checks", ["dpp", "subsolution,dpp", "all"])
def test_the_battery_keeps_only_the_levels_its_checks_read(tmp_path, monkeypatch, checks):
    config = zero_config(tmp_path)
    grid = resolve_grid(config)
    dpp = {0, (grid.n_levels - 1) // 2}  # the report's levels t and r
    steps = subsolution_steps(grid, 25)  # the battery's probe samples 25 steps
    probe = {*steps.tolist(), *(steps + 1).tolist()}
    # zero's margin axis starts at 0, so "all" skips slab, and lipschitz
    # reads every level
    want = {"dpp": dpp, "subsolution,dpp": probe | dpp,
            "all": set(range(grid.n_levels))}[checks]

    def swept(problem, grid, keep):
        raise _Swept(set(keep))

    monkeypatch.setattr("epigraph.verify.solve_shortfall", swept)
    with pytest.raises(_Swept) as stopped:
        run_verification(config, checks=checks)
    assert stopped.value.args[0] == want


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


# the exit code of each error class of epigraph.errors, as its docstring
# documents it; a class missing here fails the test below
_EXIT_CODES = {
    "EpigraphError": 2, "ConfigurationError": 1,
    "MissingField": 1, "NonpositiveHorizon": 1, "EmptyControlGrid": 1, "NegativeWeight": 1,
    "NonFiniteCoefficient": 2, "NegativeDistance": 2,
    "StepTooLarge": 2, "NonFiniteState": 2,
    "DegenerateGrid": 1, "CorrelatedNoise": 1, "CFLViolation": 2, "IncompatibleGrids": 2, "NonFiniteUpdate": 2,
    "UnsolvedField": 2,
    "ParseError": 1, "UnknownKey": 1, "SchemaViolation": 1,
}


def test_every_error_class_gives_its_documented_exit_code(tmp_path, monkeypatch, capsys):
    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.EpigraphError)}
    assert sorted(classes) == sorted(_EXIT_CODES)
    path = write_config(tmp_path)
    for name, error in classes.items():
        def raising(config, *, resume, error=error, name=name):
            raise error(name)

        monkeypatch.setattr(cli, "run", raising)
        assert main(["solve", "--config", str(path)]) == _EXIT_CODES[name], name
        assert capsys.readouterr().err == f"error: {name}\n"


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


@pytest.mark.parametrize("time_step, t", [(None, 0), (0.05, 1)],
                         ids=["default step", "pinned step"])
def test_main_refuses_correlated_noise_before_any_slice(tmp_path, capsys, time_step, t):
    # an inline diffusion number fills every matrix entry, so with two state
    # axes it is correlated noise.  The default step reads the level tables
    # at t = 0; a pinned step's sweep builds its first ones at t = 1, and the
    # terminal slice is written only once the sweep is done
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "problem": {"dim_state": 2, "dim_noise": 2, "horizon": 1.0, "diffusion": 0.5,
                    "terminal_cost": "square"},
        "grid": {"state": [[-3.0, 3.0, 21]] * 2, "margin": [0.0, 4.0, 11],
                 "time_step": time_step},
        "outputs": {"directory": str(tmp_path / "run")}}))
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"correlated across state axes at t={t}:" in err
    assert "not monotone" in err and "'diffusion' number fills every matrix entry" in err
    assert not [p for p in tmp_path.rglob("*") if p.is_file() and p != path]


@pytest.mark.parametrize("time_step", [None, 0.05], ids=["default step", "pinned step"])
def test_main_simulate_needs_a_pinned_step_on_correlated_noise(tmp_path, capsys, time_step):
    # simulate reads its default step from the sweep's level tables, which
    # refuse correlated noise; the Monte Carlo itself takes any noise
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "problem": {"dim_state": 2, "dim_noise": 2, "horizon": 1.0, "diffusion": 0.5,
                    "terminal_cost": "square"},
        "grid": {"state": [[-3.0, 3.0, 21]] * 2, "margin": [0.0, 4.0, 11],
                 "time_step": time_step},
        "outputs": {"directory": str(tmp_path / "run")}}))
    code = main(["simulate", "--config", str(path), "--paths", "200"])
    err = capsys.readouterr().err
    if time_step is None:
        assert code == 1
        assert "correlated across state axes at t=0:" in err
        assert not (tmp_path / "run" / "simulate.json").exists()
    else:
        assert code == 0, err
        assert (tmp_path / "run" / "simulate.json").is_file()
        assert (tmp_path / "run" / "path.csv").is_file()


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


def test_readme_signatures_match_the_code():
    # every backticked call `name(a, b, *, c=...)` of a function of these
    # modules lists its parameters in order; callbacks such as on_level and
    # methods such as field.slice_at are not functions of a module
    modules = [importlib.import_module(f"epigraph.{name}")
               for name in ("solver", "fields", "levelset", "verify", "problems", "cli")]
    checked = set()
    for dotted, listed in re.findall(r"`((?:epigraph\.\w+\.)?\w+)\(([^`]*)\)`",
                                     README.read_text()):
        *path, name = dotted.split(".")
        functions = [vars(m)[name] for m in modules
                     if (not path or m.__name__ == ".".join(path))
                     and inspect.isfunction(vars(m).get(name))
                     and vars(m)[name].__module__ == m.__name__]
        if not functions:
            continue
        # drop parenthesized defaults, then keep each parameter's name
        names = [part.split("=")[0].strip()
                 for part in re.sub(r"\([^()]*\)", "", listed).split(",")]
        assert [n for n in names if n != "*"] == list(
            inspect.signature(functions[0]).parameters), dotted
        checked.add(name)
    assert {"stable_grid", "solve_shortfall", "step_backward", "run_battery"} <= checked


def test_every_public_name_resolves():
    assert epigraph.__all__
    for name in epigraph.__all__:
        assert getattr(epigraph, name) is not None, name


def test_importing_the_command_line_loads_only_the_solve_path(tmp_path):
    # a fresh interpreter: the battery and the simulator load when a command
    # or a public name asks for them, and a command-line solve asks for neither
    (tmp_path / "run.json").write_text(json.dumps(
        {"problem": {"horizon": 0.1, "drift": "control", "controls": [-1.0, 1.0]},
         "grid": {"state": [[-1.0, 1.0, 5]], "margin": [0.0, 1.0, 3]}}))
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    for command in ("import epigraph.cli",
                    "from epigraph.cli import main; "
                    "assert main(['solve', '--config', 'run.json']) == 0"):
        done = subprocess.run(
            [sys.executable, "-c",
             f"import json, sys; {command}; print(json.dumps(list(sys.modules)))"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout.splitlines()[-1])
        assert "epigraph.solver" in loaded, command
        assert "epigraph.verify" not in loaded and "epigraph.simulate" not in loaded, command
    assert (tmp_path / "out" / "manifest.json").is_file()


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


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_extract_refuses_an_epsilon_that_is_not_positive_and_finite(tmp_path, capsys,
                                                                     no_sweep, value):
    # --epsilon overrides scheme.epsilon and meets its rule, before any sweep
    path = write_config(tmp_path)
    assert main(["extract", "--config", str(path), "--epsilon", value]) == 1
    assert "scheme.epsilon must be" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_scheme_epsilon_and_extract_epsilon_write_the_same_profile(tmp_path, capsys):
    # one threshold override, two paths: solve with scheme.epsilon X and
    # extract --epsilon X write the same bytes, which the default does not
    solved = tmp_path / "solved.json"
    solved.write_text(config_text("frozen-penalty", str(tmp_path / "solved"),
                                  scheme={"epsilon": 0.05}))
    assert main(["solve", "--config", str(solved)]) == 0
    path = write_config(tmp_path, "frozen-penalty")
    assert main(["extract", "--config", str(path), "--level", "0", "--epsilon", "0.05"]) == 0
    assert main(["extract", "--config", str(path), "--level", "0",
                 "--out", str(tmp_path / "default")]) == 0
    capsys.readouterr()
    profile = (tmp_path / "solved" / "profile.csv").read_bytes()
    assert (tmp_path / "run" / "profile_00000.csv").read_bytes() == profile
    assert (tmp_path / "default" / "profile_00000.csv").read_bytes() != profile


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_extract_at_level_zero_writes_the_profile_solve_writes(tmp_path, capsys, name):
    path = write_config(tmp_path, name)
    assert main(["solve", "--config", str(path)]) == 0
    assert main(["extract", "--config", str(path), "--out", str(tmp_path / "extract"),
                 "--level", "0"]) == 0
    capsys.readouterr()
    assert ((tmp_path / "extract" / "profile_00000.csv").read_bytes()
            == (tmp_path / "run" / "profile.csv").read_bytes())


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


def _set_key(document, keys, value):
    *sections, key = keys
    for section in sections:
        document = document.setdefault(section, {})
    document[key] = value


@pytest.mark.parametrize("command, flag, value, keys", [
    ("solve", "--out", "D", ("outputs", "directory")),
    ("solve", "--seed", 5, ("seed",)),
    ("extract", "--epsilon", 0.01, ("scheme", "epsilon")),
], ids=["out", "seed", "epsilon"])
def test_each_override_reads_as_its_file_key(tmp_path, command, flag, value, keys):
    path = write_config(tmp_path)
    args = cli._build_parser().parse_args([command, "--config", str(path), flag, str(value)])
    document = json.loads(path.read_text())
    _set_key(document, keys, value)
    assert (serialize_config(cli._read_config(args))
            == serialize_config(parse_config(json.dumps(document))))


@pytest.mark.parametrize("command, flag, value, keys", [
    ("solve", "--seed", -1, ("seed",)),
    ("extract", "--epsilon", 0.0, ("scheme", "epsilon")),
    ("extract", "--epsilon", float("nan"), ("scheme", "epsilon")),
    ("solve", "--out", "", ("outputs", "directory")),
], ids=["seed-negative", "epsilon-zero", "epsilon-nan", "out-empty"])
def test_a_refused_override_fails_as_its_file_key(tmp_path, capsys, no_sweep,
                                                  command, flag, value, keys):
    path = write_config(tmp_path)
    flagged = main([command, "--config", str(path), flag, str(value)])
    flagged_err = capsys.readouterr().err
    document = json.loads(path.read_text())
    _set_key(document, keys, value)
    keyed_path = tmp_path / "keyed.json"
    keyed_path.write_text(json.dumps(document))
    assert main([command, "--config", str(keyed_path)]) == flagged == 1
    assert capsys.readouterr().err == flagged_err
    assert not (tmp_path / "run").exists()


def test_only_the_commands_that_read_the_seed_take_seed(tmp_path, capsys, no_sweep):
    # extract neither reads nor records the seed, so --seed there is refused
    path = write_config(tmp_path)
    assert main(["extract", "--config", str(path), "--seed", "5"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    for command in ("solve", "simulate", "verify"):
        args = cli._build_parser().parse_args([command, "--config", str(path), "--seed", "5"])
        assert args.seed == 5


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
    ("deterministic-steering",
     ["lipschitz-quotients", "strict-subsolution", "dpp-one-sided"]),
    pytest.param(
        "jump-variance", ["lipschitz-quotients", "strict-subsolution", "dpp-one-sided"],
        marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="open fault (FOUND in CHANGES.md): dpp-one-sided reads residual "
                   "0.869 against tolerance 0.157 at a = -5.1, b = 0.1, so verify "
                   "exits 3")),
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


_MANIFEST = {"config": {"problem": {"builtin": "zero"}}, "grid": {"n_levels": 3, "dt": 0.5},
             "epsilon": 0.01, "artifacts": {}}


@pytest.mark.parametrize("files, name, key", [
    ({"manifest.json": {}}, "manifest.json", "config"),
    ({"manifest.json": {**_MANIFEST, "grid": {"dt": 0.5}}}, "manifest.json", "n_levels"),
    ({"manifest.json": _MANIFEST, "reports.json": {"reports": [{"name": "slab-identity"}]}},
     "reports.json", "pass"),
], ids=["manifest-empty", "manifest-grid-without-levels", "report-without-pass"])
def test_main_report_names_the_file_missing_a_key(tmp_path, capsys, files, name, key):
    for file, payload in files.items():
        (tmp_path / file).write_text(json.dumps(payload))
    assert main(["report", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and repr(key) in err
    assert "Traceback" not in err
