"""Per-automaton dataflow IR for the lint passes.

The IR compiles each schema-declared automaton generator into a
statement-level control-flow graph (:mod:`.cfg`) whose nodes carry the
classified yields and register def/use facts of their statement, runs
worklist fixpoint analyses over it (:mod:`.dataflow`), and aggregates a
static register footprint per automaton (:mod:`.footprint`).  It is
the analyzer's one representation of an automaton: every pass in
:mod:`repro.lint.passes` is a thin client of this layer.
"""

from .cfg import CFG, CFGNode, YieldStep, build_cfg
from .dataflow import (
    forward_must,
    nontrivial_sccs,
    reachable,
    reaches_any,
)
from .footprint import StaticFootprint, infer_footprint

__all__ = [
    "CFG",
    "CFGNode",
    "YieldStep",
    "build_cfg",
    "reachable",
    "reaches_any",
    "nontrivial_sccs",
    "forward_must",
    "StaticFootprint",
    "infer_footprint",
]
