"""The five step-model rules (paper Section 2.1), on the CFG.

Each rule reads the classified yields of an automaton's
:class:`~repro.lint.ir.cfg.CFG`.  The rules are conservative: a yield
whose operation or register operand cannot be resolved statically is
never reported (dynamic dispatch is checked at run time by the executor
and the trace analyzer instead).
"""

from __future__ import annotations

import ast

from ...runtime import ops
from ..findings import Finding
from ..ir.cfg import CFG, CFGNode
from ..protocol import OBSERVING_OPS
from .base import AutomatonIR, LintPass, PassContext, PassResult
from .registry import register_pass

__all__ = [
    "CNoQuery",
    "DecideOnce",
    "NoCASInFaithful",
    "BoundedLoops",
    "RegisterNaming",
]


def _finding(
    rule: LintPass, ir: AutomatonIR, line: int, message: str
) -> Finding:
    return rule.finding(
        file=ir.file, line=line, kind=ir.kind, message=f"{ir.name}: {message}"
    )


@register_pass
class CNoQuery(LintPass):
    """C-processes never consult the failure detector (Section 2.1:
    only S-processes carry failure-detector modules).

    Applied to C-automata and to kind-neutral subroutines — a
    subroutine a C-process may ``yield from`` must itself be
    query-free.
    """

    pass_id = "CNoQuery"
    title = "C-processes never consult the failure detector"

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        for _unit, ir in ctx.automata():
            if ir.kind == "S":
                continue
            result.findings.extend(
                _finding(
                    self,
                    ir,
                    y.line,
                    "C-process code yields QueryFD; only S-processes may "
                    "consult the detector",
                )
                for y in ir.cfg.yields()
                if y.op is ops.QueryFD
            )
        return result


def _in_tail_position(cfg: CFG, node: CFGNode) -> bool:
    """Is this ``Decide`` node the automaton's last action on every
    path through it?  Each successor must be the exit or a yield-free
    ``return`` that itself leads only to the exit (a loop back edge, or
    any further statement, fails the test)."""
    for index in node.succs:
        if index == cfg.exit:
            continue
        succ = cfg.nodes[index]
        if not (
            isinstance(succ.stmt, ast.Return)
            and not succ.yields
            and succ.succs == [cfg.exit]
        ):
            return False
    return True


@register_pass
class DecideOnce(LintPass):
    """Every C-automaton decides exactly once, then yields nothing.

    The paper: a C-process takes a *decide* step once, after which all
    its steps are null.  Statically this means (a) a deciding C-automaton
    has at least one ``Decide`` yield, (b) every ``Decide`` yield sits in
    tail position — followed by at most a ``return``, with no enclosing
    loop that could re-enter it from behind — and (c) S-automata never
    yield ``Decide`` at all.
    """

    pass_id = "DecideOnce"
    title = "every C-automaton decides exactly once, in tail position"

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        for unit, ir in ctx.automata():
            decides = [
                (node, y)
                for node in ir.cfg.stmt_nodes()
                for y in node.yields
                if y.op is ops.Decide
            ]
            if ir.kind != "C":
                message = (
                    "S-process automaton yields Decide"
                    if ir.kind == "S"
                    else "subroutine yields Decide; deciding is the "
                    "automaton's own final step"
                )
                result.findings.extend(
                    _finding(self, ir, y.line, message) for _, y in decides
                )
                continue
            if not decides and ir.name not in unit.schema.non_deciding:
                result.findings.append(
                    _finding(
                        self,
                        ir,
                        ir.line,
                        "C-automaton never yields Decide (wait-freedom "
                        "requires a decide step; declare it in "
                        "`non_deciding` if its decision surfaces elsewhere)",
                    )
                )
            result.findings.extend(
                _finding(
                    self,
                    ir,
                    y.line,
                    "Decide is not in tail position; a decided "
                    "C-process takes only null steps",
                )
                for node, y in decides
                if not _in_tail_position(ir.cfg, node)
            )
        return result


@register_pass
class NoCASInFaithful(LintPass):
    """Paper-faithful algorithms never yield ``CompareAndSwap``.

    CAS is not in the paper's step alphabet; it exists only for the
    documented Extended-BG substitution (DESIGN.md).  Any other use is
    silently assuming a primitive stronger than registers — exactly the
    mistake Lemma 11-style impossibility arguments exclude.
    """

    pass_id = "NoCASInFaithful"
    title = "paper-faithful modules never yield CompareAndSwap"

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        for unit, ir in ctx.automata():
            schema = unit.schema
            if not schema.faithful or ir.name in schema.cas_allowlist:
                continue
            result.findings.extend(
                _finding(
                    self,
                    ir,
                    y.line,
                    "yields CompareAndSwap in a paper-faithful module; "
                    "allowlist it in the module's lint schema if the "
                    "deviation is deliberate and documented",
                )
                for y in ir.cfg.yields()
                if y.op is ops.CompareAndSwap
            )
        return result


@register_pass
class BoundedLoops(LintPass):
    """C-process ``while`` loops must observe shared state or advice.

    A loop whose body only yields ``Nop``/``Write``/``Decide`` can never
    terminate based on another process's progress — in C-process code
    that is a wait-freedom smell (the loop either runs forever or was
    never a loop).  Loops containing a ``yield from`` (a subroutine that
    may observe) or a dynamic yield are given the benefit of the doubt,
    as are pure local-computation loops with no yields at all.  A
    loop's yields are those of its header and of every node whose
    statement lies inside the loop (``else`` block included).
    """

    pass_id = "BoundedLoops"
    title = "C-process spin loops observe shared state"

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        for _unit, ir in ctx.automata():
            if ir.kind == "S":
                continue
            for loop in ir.cfg.stmt_nodes():
                if not isinstance(loop.stmt, ast.While):
                    continue
                inside = {id(stmt) for stmt in ast.walk(loop.stmt)}
                loop_yields = [
                    y
                    for node in ir.cfg.stmt_nodes()
                    if id(node.stmt) in inside
                    for y in node.yields
                ]
                if not loop_yields:
                    continue  # local computation, not a scheduling loop
                if any(
                    y.is_from or y.op is None or y.op in OBSERVING_OPS
                    for y in loop_yields
                ):
                    continue
                result.findings.append(
                    _finding(
                        self,
                        ir,
                        loop.line,
                        "while-loop body never reads shared memory or "
                        "advice; it cannot terminate in response to "
                        "helper progress (wait-freedom smell)",
                    )
                )
        return result


@register_pass
class RegisterNaming(LintPass):
    """Every statically-resolvable register name must be declared.

    The module's :class:`~repro.algorithms._schema.RegisterSchema` is
    the register namespace contract; yielding a name outside it means
    either the schema is stale or the algorithm is scribbling on another
    module's register family.
    """

    pass_id = "RegisterNaming"
    title = "register names stay inside the declared families"

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        for unit, ir in ctx.automata():
            for y in ir.cfg.yields():
                if y.register is None:
                    continue
                is_prefix = y.op is ops.Snapshot
                if unit.schema.registers.allows(
                    y.register.text, is_prefix=is_prefix
                ):
                    continue
                what = "prefix" if is_prefix else "register"
                shown = y.register.text if y.register.exact else (
                    f"{y.register.text}…"
                )
                result.findings.append(
                    _finding(
                        self,
                        ir,
                        y.line,
                        f"{what} {shown!r} is not declared by the "
                        "module's register schema",
                    )
                )
        return result
