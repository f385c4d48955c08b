"""The three objectives that `verify` poses to the grid oracle, pinned point by point.

`objective_pin.json` holds, for each family (fixed-side, glued, nested)
at two parameter settings, a frozen list of points and the float.hex of
the posed objective's value at each, or "ValueError" where the point is
infeasible.  The oracle pin in test_oracle.py sees only the final argmin
and value; this pin sees every value, so a change to how an objective is
posed (memoised parts, folded bodies) must reproduce every bit at every
point, and must raise where it raised before.

The points were drawn once (see `_draw_points`) by replaying each
verify check's oracle run: a sample of its grid points, feasible and
not, and of the off-grid points its descent visited; points whose
second side is an earlier point's first side; the box corners and their
neighbours, where the nested and single-cell objectives are infeasible;
and points sharing one side below the smallest side, which raise every
time.  They are frozen as float.hex, so the pin does not depend on the
generator.  Each family is evaluated twice, forward and backward, by one
posed objective per pass, so values that a posed objective keeps
between points are held to the same bits in either order.

Regenerate (only when an objective is meant to change) with

    PYTHONPATH=src python tests/test_objective_pin.py
"""

import json
from pathlib import Path

import pytest

from hexbubble import checks
from hexbubble.oracle import Lcg, grid_refine_min

FIXTURE = Path(__file__).with_name("objective_pin.json")

FIXED_SIDE = dict(grid=48, refine_iters=50, directions=[(1.0, -1.0), (1.0, 1.0)])
GLUED = dict(grid=64, refine_iters=60, directions=[(1.0, 1.0)])
NESTED = dict(grid=64, refine_iters=60)
TINY = 5e-9  # below MIN_SIDE, so every objective raises at a point with this side

# family -> (poser, its arguments, the oracle settings of the verify check)
CASES = {
    "fixed-side-0.9-1.1": (checks._single_bubble_objective, (0.9, 1.1), FIXED_SIDE),
    "fixed-side-1.4-0.6": (checks._single_bubble_objective, (1.4, 0.6), FIXED_SIDE),
    "glued-0.5": (checks._kissing_objective, (0.5,), GLUED),
    "glued-0.05": (checks._kissing_objective, (0.05,), GLUED),
    "nested-0.1": (checks._embedded_objective, (0.1,), NESTED),
    "nested-0.7": (checks._embedded_objective, (0.7,), NESTED),
}


def _draw_points(name: str) -> list[tuple[float, float]]:
    # replay the verify check's oracle run, then keep a seeded sample of
    # the points it visited, the box corners and a few points it never
    # visits because they lie below the smallest side
    pose, args, settings = CASES[name]
    objective, lower, upper = pose(*args)
    visited = []

    def recorded(p):
        try:
            value = objective(p)
        except ValueError:
            visited.append((p, False))
            raise
        visited.append((p, True))
        return value

    grid_refine_min(recorded, lower, upper, **settings)
    grid = settings["grid"]
    scan, descent = visited[: grid * grid], visited[grid * grid :]
    rng = Lcg(sum(map(ord, name)))

    def sample(pool, count):
        return [pool[int(rng.uniform(0.0, len(pool)))] for _ in range(count)] if pool else []

    points = sample([p for p, ok in scan if ok], 80) + sample([p for p, ok in scan if not ok], 20)
    points += [p for p, _ in descent[:: max(1, len(descent) // 100)]][:100]
    # a first-axis value reused as the second side of a later point: a part
    # kept under the wrong coordinate would be read back for the wrong side
    first = [lower[0] + (upper[0] - lower[0]) * j / (grid - 1) for j in range(grid)]
    for _ in range(10):
        j, k = sorted((int(rng.uniform(0.0, grid)), int(rng.uniform(0.0, grid))))
        points += [(first[k], first[j] + (upper[1] - first[j]) / 2.0), (first[j], first[k])]
    axes = [[lo + (hi - lo) * j / (grid - 1) for j in (0, 1, 2, grid - 3, grid - 2, grid - 1)]
            for lo, hi in zip(lower, upper)]
    points += [(x, y) for x in axes[0] for y in axes[1]]
    for k in range(1, 5):
        points += [(TINY, axes[1][k]), (axes[0][k], TINY)]
    return points


def _evaluate(name: str, points) -> list[str]:
    pose, args, _ = CASES[name]
    objective = pose(*args)[0]
    values = []
    for p in points:
        try:
            values.append(objective(p).hex())
        except ValueError:
            values.append("ValueError")
    return values


def _regenerate() -> None:
    pin = {}
    for name in CASES:
        points = _draw_points(name)
        pin[name] = [[x.hex(), y.hex(), v] for (x, y), v in zip(points, _evaluate(name, points))]
    # one row per line, so a diff shows which point moved
    blocks = [
        json.dumps(name) + ": [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for name, rows in pin.items()
    ]
    with open(FIXTURE, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


@pytest.fixture(scope="module")
def pin() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(CASES))
def test_posed_objective_values_are_pinned(pin, name):
    rows = pin[name]
    points = [(float.fromhex(x), float.fromhex(y)) for x, y, _ in rows]
    want = [v for _, _, v in rows]
    assert 0 < want.count("ValueError") < len(want)
    assert _evaluate(name, points) == want
    assert _evaluate(name, points[::-1]) == want[::-1]


if __name__ == "__main__":
    _regenerate()
