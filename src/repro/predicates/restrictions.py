"""Syntactic restrictions on candidate postconditions (§4.1).

Beyond the grammar, STNG imposes restrictions that rule out trivial or
untranslatable postconditions:

* the range of the index variables used to index output arrays must
  match the range of locations the kernel modifies;
* each output array is expressed by a single ``outEq`` constraint;
* the postcondition is a conjunction of universally quantified
  ``outEq`` constraints (implicit in our AST);
* each ``outEq`` has at least one non-output term on the right-hand
  side.

The checker is used twice: by the synthesizer to discard structurally
invalid candidates before they reach the (expensive) checking phase,
and by tests to assert that synthesized summaries obey the paper's
rules.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.ir.nodes import Kernel
from repro.ir.analysis import output_arrays
from repro.predicates.language import Postcondition, rhs_has_non_output_term
from repro.semantics.state import State


class RestrictionViolation(Exception):
    """Raised (or collected) when a candidate postcondition breaks a restriction."""


def check_single_outeq_per_array(post: Postcondition) -> List[str]:
    """Each output array must be described by exactly one conjunct."""
    violations: List[str] = []
    seen: Set[str] = set()
    for conjunct in post.conjuncts:
        name = conjunct.out_eq.array
        if name in seen:
            violations.append(f"output array {name!r} has more than one outEq constraint")
        seen.add(name)
    return violations


def check_non_trivial_rhs(post: Postcondition) -> List[str]:
    """Each outEq must have a non-output term on its right-hand side."""
    violations: List[str] = []
    outputs = post.output_arrays()
    for conjunct in post.conjuncts:
        if not rhs_has_non_output_term(
            conjunct.out_eq.rhs, outputs, conjunct.quantified_vars()
        ):
            violations.append(
                f"outEq for {conjunct.out_eq.array!r} has only output-array terms on its RHS"
            )
    return violations


def check_index_variables_quantified(post: Postcondition) -> List[str]:
    """Output indices must be built from the quantified variables."""
    violations: List[str] = []
    for conjunct in post.conjuncts:
        quantified = set(conjunct.quantified_vars())
        for index in conjunct.out_eq.indices:
            index_syms = index.symbols()
            if not index_syms & quantified and not _is_constant(index):
                violations.append(
                    f"output index {index!r} of {conjunct.out_eq.array!r} does not use a quantified variable"
                )
    return violations


def _is_constant(expr) -> bool:
    from repro.symbolic.expr import Const

    return isinstance(expr, Const)


def check_range_matches_modified_region(
    post: Postcondition,
    kernel: Kernel,
    sample_state: State,
) -> List[str]:
    """The quantified index range must match the cells the kernel modifies.

    The check is semantic (as in STNG, which derives the modified region
    from the loop structure): the kernel is executed on ``sample_state``
    and the set of written cells of each output array is compared with
    the set of cells the quantifier ranges over.
    """
    from repro.predicates.evaluate import PredicateEvalError, iterate_assignments
    from repro.semantics.evalexpr import eval_sym_expr
    from repro.semantics.exec import execute_kernel
    from repro.semantics.state import require_int

    violations: List[str] = []
    executed = sample_state.copy()
    execute_kernel(kernel, executed)
    for conjunct in post.conjuncts:
        array = conjunct.out_eq.array
        written = set(executed.array(array).written_indices())
        described: Set[Tuple[int, ...]] = set()
        try:
            for assignment in iterate_assignments(conjunct.bounds, executed, {}):
                idx = tuple(
                    require_int(eval_sym_expr(i, executed, assignment))
                    for i in conjunct.out_eq.indices
                )
                described.add(idx)
        except (PredicateEvalError, TypeError) as exc:
            violations.append(f"could not enumerate index range for {array!r}: {exc}")
            continue
        if described != written:
            missing = written - described
            extra = described - written
            violations.append(
                f"index range of {array!r} does not match modified region "
                f"(missing {sorted(missing)[:4]}, extra {sorted(extra)[:4]})"
            )
    return violations


def check_postcondition_restrictions(
    post: Postcondition,
    kernel: Optional[Kernel] = None,
    sample_state: Optional[State] = None,
) -> List[str]:
    """Run every restriction check; return the list of violations (empty = OK)."""
    violations = []
    violations.extend(check_single_outeq_per_array(post))
    violations.extend(check_non_trivial_rhs(post))
    violations.extend(check_index_variables_quantified(post))
    if kernel is not None:
        missing_outputs = [
            name for name in output_arrays(kernel) if name not in post.output_arrays()
        ]
        for name in missing_outputs:
            violations.append(f"kernel writes array {name!r} but the postcondition does not describe it")
        if sample_state is not None:
            violations.extend(check_range_matches_modified_region(post, kernel, sample_state))
    return violations
