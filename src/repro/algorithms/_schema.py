"""Lint schemas: what each algorithm module declares about itself.

The static linter cannot guess which generator functions are C-process
automata, which are S-process automata, and which register families a
module owns — so every module in :mod:`repro.algorithms` declares a
:class:`ModuleSchema` (the registry lives in
``repro/algorithms/__init__.py`` as ``LINT_SCHEMAS``).  The linter
(:mod:`repro.lint`, which re-exports both classes) then *verifies* the
declared code against the EFD step model; a function the schema does
not name is not an automaton and is skipped.

The declarations live beside the algorithms rather than in
:mod:`repro.lint` so that importing the algorithms never loads the
analyzer.

Names may be dotted to reach nested definitions: ``"Outer.inner"``
addresses the ``inner`` function (or method) defined inside ``Outer``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RegisterSchema:
    """Register names a module is allowed to touch.

    Attributes:
        prefixes: register-family prefixes (e.g. ``"ksetc/ann/"``); a
            name matches if it starts with a declared prefix, and a
            snapshot prefix matches if it refines a declared prefix.
        exact: fully-spelled single-register names (e.g. ``"shelper/V"``).
        single_writer: families (prefixes or exact names) under the
            paper's single-writer discipline: every write must target
            the writer's *own* register, ``fam/<own index>``.  Checked
            by the ``SingleWriter`` pass.
        write_once: families each process may write at most once per
            run (no write inside a cycle, no two writes on one path).
            Checked by the ``WriteOnce`` pass.
    """

    prefixes: tuple[str, ...] = ()
    exact: tuple[str, ...] = ()
    single_writer: tuple[str, ...] = ()
    write_once: tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.prefixes and not self.exact

    def allows(self, name: str, *, is_prefix: bool = False) -> bool:
        """Does ``name`` (a register name, or a family prefix when
        ``is_prefix``) fall inside the declared families?"""
        if name in self.exact:
            return True
        for prefix in self.prefixes:
            if name.startswith(prefix):
                return True
            if is_prefix and prefix.startswith(name):
                # Snapshotting a coarser prefix that covers a declared
                # family is reading registers the schema owns.
                return True
        return False


@dataclass(frozen=True)
class ModuleSchema:
    """Lint declaration for one algorithm module.

    Attributes:
        c_automata: generator functions (or factories of generators)
            implementing C-process automata.
        s_automata: same, for S-process automata.
        subroutines: kind-neutral generator subroutines (composed with
            ``yield from``); checked under C-process rules because a
            C-process may call them.
        non_deciding: C-automata exempt from the must-decide half of
            ``DecideOnce`` — reduction/simulation drivers whose decision
            surfaces elsewhere (they still must not yield after a
            ``Decide``).
        registers: the register families the module owns.
        faithful: paper-faithful modules must never yield
            ``CompareAndSwap``; set ``False`` only for documented
            substitutions (see DESIGN.md).
        cas_allowlist: functions allowed to yield ``CompareAndSwap``
            despite ``faithful`` — each must be justified in
            ``docs/static_analysis.md``.
        notes: one-line rationale shown in ``lint --verbose`` style
            output and documentation.
    """

    c_automata: tuple[str, ...] = ()
    s_automata: tuple[str, ...] = ()
    subroutines: tuple[str, ...] = ()
    non_deciding: tuple[str, ...] = ()
    registers: RegisterSchema = field(default_factory=RegisterSchema)
    faithful: bool = True
    cas_allowlist: tuple[str, ...] = ()
    notes: str = ""

    @property
    def checked_functions(self) -> tuple[str, ...]:
        return self.c_automata + self.s_automata + self.subroutines

    def kind_of(self, name: str) -> str:
        if name in self.c_automata:
            return "C"
        if name in self.s_automata:
            return "S"
        return "-"
