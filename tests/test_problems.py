"""Built-in catalog sanity."""

import json
import pathlib
import re

import numpy as np
import pytest

from epigraph import problems
from epigraph.problems import (
    BUILTIN_NAMES,
    builtin_grid,
    builtin_problem,
    parse_problem,
)
from epigraph.model import Problem, eval_coefficients_batch, eval_terminal


def test_catalog_names():
    assert BUILTIN_NAMES == (
        "zero", "frozen-penalty", "deterministic-steering", "jump-variance",
    )


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_builtin_constructs(name):
    problem = builtin_problem(name)
    assert problem.name == name
    grid = builtin_grid(name)
    assert {"state", "margin", "time_step"} <= set(grid)


def test_unknown_name_lists_the_catalog():
    with pytest.raises(KeyError, match="deterministic-steering"):
        builtin_problem("steering")
    with pytest.raises(KeyError, match="jump-variance"):
        builtin_grid("jump")


def test_grid_specs_are_fresh_copies():
    first = builtin_grid("zero")
    first["state"][0][0] = -99.0
    assert builtin_grid("zero")["state"][0][0] == -3.0


def test_jump_variance_compensator_is_balanced():
    # one atom of weight 2 at unit marks: total mass 2, E[x] drift-free
    problem = builtin_problem("jump-variance")
    assert problem.jumps.total_mass == 2.0
    assert np.array_equal(problem.jumps.marks, np.array([1.0]))

# Closed forms of each built-in, written out independently of the catalog:
# controls, drift f(a, u), diffusion sigma, jump atoms (mark, weight) with
# amplitude chi = mark, terminal cost m(a) and distance d(a).  No built-in
# has a running cost.  The inline documents after them state the drift as a
# number and as a per-component list, and the terminal cost as a number.
CLOSED_FORMS = {
    "zero": dict(controls=[-1.0, 0.0, 1.0], drift=lambda a, u: u, sigma=0.2, atoms=[],
                 terminal=lambda a: 0.0, distance=lambda a: 0.0),
    "frozen-penalty": dict(controls=[0.0], drift=lambda a, u: 0.0, sigma=0.0, atoms=[],
                           terminal=lambda a: 0.0, distance=lambda a: abs(a)),
    "deterministic-steering": dict(controls=[k / 10.0 - 1.0 for k in range(21)],
                                   drift=lambda a, u: u, sigma=0.0, atoms=[],
                                   terminal=lambda a: a * a, distance=lambda a: 0.0),
    "jump-variance": dict(controls=[0.0], drift=lambda a, u: 0.0, sigma=1.0,
                          atoms=[(1.0, 2.0)], terminal=lambda a: a * a,
                          distance=lambda a: 0.0),
    "inline-number": dict(controls=[-0.5, 0.5], drift=lambda a, u: 0.75, sigma=0.0,
                          atoms=[], terminal=lambda a: 2.5, distance=lambda a: 0.0,
                          document={"horizon": 1.0, "drift": 0.75, "terminal_cost": 2.5,
                                    "controls": [-0.5, 0.5]}),
    "inline-list": dict(controls=[0.0], drift=lambda a, u: -0.25, sigma=0.0, atoms=[],
                        terminal=lambda a: 0.0, distance=lambda a: 0.0,
                        document={"horizon": 1.0, "drift": [-0.25], "terminal_cost": 0}),
}


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "inline-number", "inline-list"])
def test_builtin_coefficients_match_their_closed_forms(name):
    want = CLOSED_FORMS[name]
    problem = (parse_problem(want["document"])[0] if "document" in want
               else builtin_problem(name))
    assert (problem.dim_state, problem.dim_noise, problem.horizon) == (1, 1, 1.0)
    np.testing.assert_allclose(problem.controls[:, 0], want["controls"], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(problem.jumps.marks, [m for m, _ in want["atoms"]])
    np.testing.assert_array_equal(problem.jumps.weights, [w for _, w in want["atoms"]])
    a = np.array([-2.5, -1.0, 0.0, 0.3, 1.7])
    states = a[:, None]
    for t in (0.0, 0.6):
        for u in problem.controls[[0, -1]]:
            drift, sigma, jumps, running = eval_coefficients_batch(problem, t, states, u)
            np.testing.assert_array_equal(drift[:, 0], [want["drift"](x, u[0]) for x in a])
            np.testing.assert_array_equal(sigma[:, 0, 0], np.full(a.size, want["sigma"]))
            chi = [[m] * a.size for m, _ in want["atoms"]]
            np.testing.assert_array_equal(jumps[:, :, 0], np.reshape(chi, (-1, a.size)))
            np.testing.assert_array_equal(running, np.zeros(a.size))
    np.testing.assert_array_equal(eval_terminal(problem, states),
                                  [want["terminal"](x) for x in a])
    np.testing.assert_array_equal(problem.distance(states), [want["distance"](x) for x in a])


def test_readme_lists_each_builtin_document():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| [^|]* \| `(\{.*\})` \|$", readme, re.M))
    assert list(rows) == list(BUILTIN_NAMES)
    for name, document in rows.items():
        assert json.loads(document) == problems._BUILTINS[name]["problem"]


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "inline-number", "inline-list"])
def test_every_problem_document_is_autonomous(name):
    # a document states constant coefficients, so none depends on t
    document = CLOSED_FORMS[name].get("document", {"builtin": name})
    assert parse_problem(document)[0].autonomous is True


def test_library_problems_are_not_autonomous_by_default():
    problem = Problem(dim_state=1, dim_noise=1, horizon=1.0, controls=[0.0],
                      terminal_cost=lambda a: np.zeros(a.shape[0]))
    assert problem.autonomous is False
