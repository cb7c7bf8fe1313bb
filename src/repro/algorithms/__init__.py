"""Every algorithm of the paper plus its cited substrates.

Paper map:

* Proposition 1  -> :mod:`.one_concurrent`
* Section 2.2    -> :mod:`.s_helper`
* Theorem 7      -> :mod:`.set_agreement_ext`
* Figure 1/Thm 8 -> :mod:`.extraction`
* Figure 2/Thm 14-> :mod:`.kcode_simulation`
* Theorem 9      -> :mod:`.kconcurrent_solver`
* Figure 3/Thm 12-> :mod:`.renaming_figure3`
* Figure 4/Thm 15-> :mod:`.renaming_figure4`
* substrates     -> :mod:`.paxos`, :mod:`.safe_agreement`,
                    :mod:`.bg_simulation`, :mod:`.kset_vector`,
                    :mod:`.kset_concurrent`, :mod:`.wsb_concurrent`
"""

from . import (
    bg_simulation,
    dispatch,
    extraction,
    kcode_simulation,
    kconcurrent_solver,
    kset_concurrent,
    kset_vector,
    one_concurrent,
    paxos,
    renaming_figure3,
    renaming_figure4,
    s_helper,
    safe_agreement,
    self_synchronization,
    set_agreement_ext,
    splitters,
    wsb_concurrent,
)

__all__ = [
    "bg_simulation",
    "dispatch",
    "extraction",
    "kcode_simulation",
    "kconcurrent_solver",
    "kset_concurrent",
    "kset_vector",
    "one_concurrent",
    "paxos",
    "renaming_figure3",
    "renaming_figure4",
    "s_helper",
    "safe_agreement",
    "self_synchronization",
    "set_agreement_ext",
    "splitters",
    "wsb_concurrent",
]


from ._schema import ModuleSchema, RegisterSchema

#: Lint declarations for every algorithm module: which functions are
#: C-/S-automata or kind-neutral subroutines, which register families
#: the module owns, and which deliberate deviations from the paper's
#: step model are allowlisted.  ``python -m repro lint`` verifies the
#: declared code against the EFD model rules; see
#: ``docs/static_analysis.md`` for the rule catalogue.
LINT_SCHEMAS: dict[str, ModuleSchema] = {
    "bg_simulation": ModuleSchema(
        c_automata=("bg_simulator_factory",),
        subroutines=("agreement_status",),
        non_deciding=("bg_simulator_factory",),
        notes="simulators run forever; decisions surface through the "
        "spec's decision registers, not a Decide step",
    ),
    "dispatch": ModuleSchema(
        notes="task-to-algorithm routing; defines no automata",
    ),
    "extraction": ModuleSchema(
        s_automata=("extraction_s_factory",),
        registers=RegisterSchema(
            prefixes=("xtr/",),
            single_writer=("xtr/",),
            write_once=("xtr/result/",),
        ),
        notes="the Theorem 8 reduction is pure S-part; its C-part is "
        "the null automaton",
    ),
    "kcode_simulation": ModuleSchema(
        c_automata=("figure2_c_factory",),
        s_automata=("figure2_s_factory",),
        registers=RegisterSchema(prefixes=("inp/",)),
        notes="instance register families are spec-relative (dynamic); "
        "only the input board is statically nameable",
    ),
    "kconcurrent_solver": ModuleSchema(
        notes="assembles Figure 2 over BG; defines no automata",
    ),
    "kset_concurrent": ModuleSchema(
        c_automata=("kset_concurrent_factory",),
        registers=RegisterSchema(
            prefixes=("ksetc/ann/",),
            single_writer=("ksetc/ann/",),
            write_once=("ksetc/ann/",),
        ),
    ),
    "kset_vector": ModuleSchema(
        c_automata=("kset_c_factory",),
        s_automata=("kset_s_factory",),
        registers=RegisterSchema(prefixes=("inp/", "ksetv/cons/")),
    ),
    "one_concurrent": ModuleSchema(
        c_automata=("one_concurrent_factory",),
        registers=RegisterSchema(
            prefixes=("p1c/out/", "inp/"),
            single_writer=("p1c/out/",),
            write_once=("p1c/out/",),
        ),
    ),
    "paxos": ModuleSchema(
        subroutines=(
            "read_decision",
            "propose",
            "propose_until_decided",
            "await_decision",
        ),
        notes="instance names are caller-chosen (dynamic); register "
        "checking happens at the call sites' modules",
    ),
    "renaming_figure3": ModuleSchema(
        c_automata=("figure3_factory", "cas_strong_renaming_factory"),
        registers=RegisterSchema(
            prefixes=("f3/R/",),
            exact=("f3/inner/counter",),
            single_writer=("f3/R/",),
        ),
        cas_allowlist=("cas_strong_renaming_factory",),
        notes="the CAS stand-in deliberately exceeds register power — "
        "that is Theorem 12's point (see module docstring)",
    ),
    "renaming_figure4": ModuleSchema(
        c_automata=("figure4_factory",),
        registers=RegisterSchema(
            prefixes=("f4/R/",), single_writer=("f4/R/",)
        ),
    ),
    "s_helper": ModuleSchema(
        c_automata=("helper_c_factory",),
        s_automata=("helper_s_factory",),
        registers=RegisterSchema(
            prefixes=("inp/",),
            exact=("shelper/V",),
            write_once=("shelper/V",),
        ),
    ),
    "safe_agreement": ModuleSchema(
        subroutines=(
            "SafeAgreement.propose",
            "SafeAgreement.resolve",
            "CasAgreement.propose",
            "CasAgreement.resolve",
            "agree",
        ),
        cas_allowlist=("CasAgreement.propose",),
        notes="CasAgreement is the documented Extended-BG substitution "
        "(DESIGN.md) used by the Theorem 9 solver",
    ),
    "self_synchronization": ModuleSchema(
        c_automata=("interleave_factories",),
        non_deciding=("interleave_factories",),
        notes="forwards the folded C-part's Decide dynamically; the "
        "executor enforces decide-once at run time",
    ),
    "set_agreement_ext": ModuleSchema(
        c_automata=("ax_factories.own_input_factory",),
        notes="the (U,k) black box and adoption layer reuse the "
        "kset_vector automata, which are checked there",
    ),
    "splitters": ModuleSchema(
        c_automata=("moir_anderson_factory",),
        subroutines=("splitter",),
        registers=RegisterSchema(prefixes=("ma/",)),
    ),
    "wsb_concurrent": ModuleSchema(
        c_automata=("wsb_concurrent_factory",),
        registers=RegisterSchema(prefixes=("inp/",)),
    ),
}
