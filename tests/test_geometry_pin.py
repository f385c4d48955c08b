"""The cells of embedded_geometry and kissing_geometry, pinned bit for bit.

`geometry_pin.json` holds a frozen list of inputs and, for each, the
float.hex of every vertex of both returned chains and of both side
tuples, or the error message the build raised.  The golden CLI outputs
see vertices only to `%.12g`; this pin sees every bit, so a change to
how cells are built must reproduce the same floats.

The inputs are frozen as float.hex, not recomputed from the minimizers,
so a later change in the last bits of a minimizer cannot move the pin.
They were drawn once (see `_draw_inputs`) from the nested optima on both
volume assignments (rho1: outer cell holds volume 1; rho2: it holds
alpha), the glued optima on both branches (unequal below alpha = 1/8,
equal-P3 above), each also perturbed by eps = 1e-3 as the `verify`
rebuilds are, nested optima below alpha ~ 5e-13 where the inner cell's
horizontal side drops under DEDUP_TOL and is collapsed, and glued pairs
with a four-sided cell.

Regenerate the outputs for the frozen inputs (only when a cell is meant
to change) with

    PYTHONPATH=src python tests/test_geometry_pin.py
"""

import json
from pathlib import Path

from hexbubble.embedded import embedded_geometry, minimize_rho1, rho2_minimum
from hexbubble.kissing import kissing_geometry, kissing_minimum
from hexbubble.oracle import Lcg

FIXTURE = Path(__file__).with_name("geometry_pin.json")


def _hex_all(values) -> list:
    return [v.hex() for v in values]


def _build(case: list[str]) -> dict:
    kind, *args = case
    params = [float.fromhex(a) for a in args]
    try:
        if kind == "embedded":
            chain_a, chain_b, sides_a, sides_b = embedded_geometry(*params)
        else:
            chain_a, chain_b, sides_a, sides_b = kissing_geometry(*params)
    except ValueError as exc:
        return {"error": str(exc)}
    return {
        "a": [_hex_all(v) for v in chain_a.vertices],
        "b": [_hex_all(v) for v in chain_b.vertices],
        "sides_a": _hex_all(sides_a),
        "sides_b": _hex_all(sides_b),
    }


def _draw_inputs() -> list[list[str]]:
    rng = Lcg(2024)

    def log_uniform(lo_exp: float, hi_exp: float) -> float:
        return 10.0 ** rng.uniform(lo_exp, hi_exp)

    def jitter(L: float, eps: float) -> float:
        return L * (1.0 + eps * rng.uniform(-1.0, 1.0))

    cases: list[tuple] = []
    for k in range(120):
        # rho1 optima over (1e-14, 1], a fifth of them below the collapse
        alpha = log_uniform(-14.0, -12.3) if k % 5 == 0 else log_uniform(-12.0, 0.0)
        L1, L2, _ = minimize_rho1(alpha)
        eps = 0.0 if k % 2 == 0 else 1e-3
        cases.append(("embedded", jitter(L1, eps), jitter(L2, eps), 1.0, alpha))
    for k in range(40):
        alpha = log_uniform(-6.0, 0.0)
        L1, L2, _ = rho2_minimum(alpha)
        eps = 0.0 if k % 2 == 0 else 1e-3
        cases.append(("embedded", jitter(L1, eps), jitter(L2, eps), alpha, 1.0))
    for k in range(120):
        # the two branches in turn: unequal below 1/8, equal-P3 at or above
        alpha = log_uniform(-8.0, -0.91) if k % 2 == 0 else rng.uniform(0.125, 1.0)
        sol = kissing_minimum(alpha)
        eps = 0.0 if k % 4 < 2 else 1e-3
        cases.append(("kissing", jitter(sol.L1, eps), jitter(sol.L2, eps), alpha))
    for k in range(20):
        # four-sided cells: B (above 16 alpha = 3 sqrt(3) L2^2), or both
        alpha = log_uniform(-4.0, 0.0)
        L2 = (16.0 * alpha / (3.0 * 3.0 ** 0.5)) ** 0.5 * rng.uniform(1.0, 1.5)
        L1 = rng.uniform(0.5, 1.2) if k % 2 == 0 else rng.uniform(1.8, 2.4)
        cases.append(("kissing", L1, L2, alpha))
    return [[kind, *(float(v).hex() for v in params)] for kind, *params in cases]


def _write() -> None:
    inputs = (
        [entry["input"] for entry in json.loads(FIXTURE.read_text())]
        if FIXTURE.exists()
        else _draw_inputs()
    )
    pinned = [{"input": case, **_build(case)} for case in inputs]
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(e) for e in pinned) + "\n]\n")


def test_geometry_is_pinned_bit_for_bit():
    pinned = json.loads(FIXTURE.read_text())
    assert len(pinned) == 300
    for entry in pinned:
        want = {k: v for k, v in entry.items() if k != "input"}
        assert _build(entry["input"]) == want, entry["input"]


def test_geometry_pin_covers_its_cases():
    # the corpus keeps the collapsed inner side, four-sided cells and errors
    pinned = json.loads(FIXTURE.read_text())
    built = [e for e in pinned if "error" not in e]
    assert any(e["input"][0] == "embedded" and len(e["b"]) == 4 for e in built)
    assert any(e["input"][0] == "kissing" and len(e["b"]) == 4 for e in built)
    assert any(e["input"][0] == "kissing" and len(e["a"]) == 4 for e in built)
    assert len(built) >= 250


if __name__ == "__main__":
    _write()
