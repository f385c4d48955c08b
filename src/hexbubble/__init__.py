"""Perimeter-minimizing double bubbles for the hexagonal norm.

Given two volumes 1 and alpha in (0, 1], the package computes the pair
of polygonal cells minimizing total boundary length under the norm whose
unit ball is the regular hexagon, using closed forms cross-checked
against brute-force search.  See README.md for the tour; every other
name lives in its own module (hexnorm, singlebubble, kissing, embedded,
solver, oracle, checks, cli).
"""

from .solver import (
    CASE_BOTH,
    CASE_EMBEDDED,
    CASE_KISSING,
    DoubleBubbleResult,
    SolutionEntry,
    find_alpha0,
    solve,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CASE_BOTH",
    "CASE_EMBEDDED",
    "CASE_KISSING",
    "DoubleBubbleResult",
    "SolutionEntry",
    "find_alpha0",
    "solve",
    "sweep",
]
