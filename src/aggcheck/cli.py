"""Command-line interface.

Each subcommand loads its inputs, runs the corresponding module checks, and
emits a deterministic JSON report (to --out) plus a short human summary on
stdout. Exit codes: 0 all checks pass, 1 a check failed, 2 input error,
3 budget exceeded, 4 internal error (a bug, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .agenda import equivalent_variable, pseudo_richness, strictly_contingent_formulas
from .aggregation import (
    DecisionCriterion,
    aggregator_from_criterion,
    criterion_from_aggregator,
    qualifying_criteria,
)
from .algebra import DEFAULT_BUDGET, power_homomorphisms
from .errors import AggcheckError, BudgetExceededError
from .fileio import dump_json, load_agenda, load_criterion, load_matrix
from .impossibility import classify_dictator, decisive_coalitions, is_ultrafilter
from .modal import check_subjunctive_conditions
from .semantics import check_selfextensionality
from .syntax import print_formula

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3
EXIT_INTERNAL_ERROR = 4

COUNT_FLAGS = ("budget", "variables")  # counts of something, so never negative
BUDGET_HELP = "work units any stage may charge (default 10^8)"


def _tool_stamp(args: argparse.Namespace) -> dict:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    return {"tool": {"name": "aggcheck", "version": __version__}, "config": config}


def _emit(report: dict, args: argparse.Namespace, summary_lines: list[str]) -> None:
    for line in summary_lines:
        print(line)
    if getattr(args, "out", None):
        dump_json(report, args.out)
        print(f"report written to {args.out}")


def cmd_check_agenda(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.logic)
    agenda = load_agenda(args.agenda, matrix)
    level, witnesses = pseudo_richness(agenda)
    contingent = strictly_contingent_formulas(agenda)
    per_formula = {
        print_formula(f): equivalent_variable(f, agenda) for f in agenda.formulas
    }
    warnings = []
    if level < agenda.signature.max_arity:
        warnings.append(
            f"agenda is {level}-pseudo-rich but the signature has arity "
            f"{agenda.signature.max_arity}; connective-wise checks may be limited"
        )
    report = {
        **_tool_stamp(args),
        "command": "check-agenda",
        "pseudo_rich": level,
        "pseudo_rich_witnesses": [
            [print_formula(f), v] for f, v in witnesses
        ],
        "strictly_contingent": [print_formula(f) for f in contingent],
        "equivalent_variable": per_formula,
        "warnings": warnings,
        "pass": True,
    }
    lines = [
        f"agenda: {len(agenda)} formulas over {matrix.describe()}",
        f"pseudo-richness level: {level}",
        f"strictly contingent: {', '.join(print_formula(f) for f in contingent) or 'none'}",
        *(f"warning: {w}" for w in warnings),
    ]
    _emit(report, args, lines)
    return EXIT_PASS


def cmd_verify_bijection(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.logic)
    agenda = load_agenda(args.agenda, matrix)
    algebra = agenda.algebra
    n = args.electorate
    homs = power_homomorphisms(algebra, n, args.budget)
    hom_tables = sorted(h.mapping for h in homs)
    qualifying = qualifying_criteria(agenda, n, args.depth, args.budget)
    qual_tables = sorted(c.values for c in qualifying)

    # homomorphism -> aggregator -> criterion must give the table back; the
    # criterion fixes the aggregator, so equal tables close the round trip
    roundtrip_failures = []
    for table in hom_tables:
        aggregator = aggregator_from_criterion(DecisionCriterion(algebra, n, table), agenda)
        extracted = criterion_from_aggregator(aggregator, depth=args.depth, budget=args.budget)
        if extracted.values != table:
            roundtrip_failures.append(
                {"criterion": list(table), "extracted": list(extracted.values)}
            )

    counts_equal = len(hom_tables) == len(qual_tables)
    same_tables = hom_tables == qual_tables
    passed = counts_equal and same_tables and not roundtrip_failures
    level, _ = pseudo_richness(agenda)
    warnings = []
    if level < agenda.signature.max_arity:
        warnings.append(
            f"agenda is {level}-pseudo-rich, below the signature arity "
            f"{agenda.signature.max_arity}"
        )
    report = {
        **_tool_stamp(args),
        "command": "verify-bijection",
        "homs": len(hom_tables),
        "aggregators": len(qual_tables),
        "hom_tables": [list(t) for t in hom_tables],
        "counts_equal": counts_equal,
        "same_tables": same_tables,
        "roundtrips": "pass" if not roundtrip_failures else "fail",
        "roundtrip_failures": roundtrip_failures,
        "strong_systematicity_depth": args.depth,
        "warnings": warnings,
        "pass": passed,
    }
    lines = [
        f"homomorphisms {algebra.name or 'B'}^{n} -> {algebra.name or 'B'}: {len(hom_tables)}",
        f"qualifying aggregators (independent census): {len(qual_tables)}",
        f"round trips: {'pass' if not roundtrip_failures else 'FAIL'}",
        f"bijection: {'verified' if passed else 'FAILED'}",
    ]
    _emit(report, args, lines)
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


def cmd_classify_dictators(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.logic)
    algebra = matrix.algebra
    if algebra.size != 2:
        raise ValueError("dictator classification needs a two-element algebra")
    criterion = load_criterion(args.criterion, algebra)
    violation = criterion.homomorphism_violation()
    hom = violation is None
    view = decisive_coalitions(criterion)
    check = is_ultrafilter(view)
    dictator = classify_dictator(criterion)
    agree = hom == check.is_ultrafilter == (dictator is not None)
    report = {
        **_tool_stamp(args),
        "command": "classify-dictators",
        "homomorphism": hom,
        "homomorphism_violation": (
            [violation[0], list(violation[1])] if violation else None
        ),
        "ultrafilter": check.is_ultrafilter,
        "filter": check.is_filter,
        "oligarchs": sorted(check.oligarchs) if check.oligarchs is not None else None,
        "violations": [list(v) for v in check.violations],
        "dictator": dictator,
        "decisive": sorted(sorted(c) for c in view.decisive),
        "pass": agree,
    }
    lines = [
        f"homomorphism: {hom}; ultrafilter: {check.is_ultrafilter}; "
        f"dictator: {dictator if dictator is not None else 'none'}",
        f"characterization routes agree: {agree}",
    ]
    if check.is_filter and not check.is_ultrafilter:
        lines.append(
            f"decisive family is a filter but not an ultrafilter; "
            f"oligarchs: {sorted(check.oligarchs)}"
        )
    _emit(report, args, lines)
    return EXIT_PASS if agree else EXIT_CHECK_FAILED


def cmd_check_subjunctive(args: argparse.Namespace) -> int:
    result = check_subjunctive_conditions(args.frame_bound)
    passed = (
        result.a_holds
        and result.b_holds
        and result.material_b_fails
        and result.bottom_certified
    )
    report = {
        **_tool_stamp(args),
        "command": "check-subjunctive",
        "a": "pass" if result.a_holds else "fail",
        "b": "pass" if result.b_holds else "fail",
        "material_b": "fail" if result.material_b_fails else "pass",
        "a_detail": result.condition_a,
        "b_detail": result.condition_b,
        "material_b_detail": result.material_b,
        "bottom_certified": result.bottom_certified,
        "insufficient_bound": result.insufficient_bound,
        "pass": passed,
    }
    lines = [
        f"boxed implication: condition a {'pass' if result.a_holds else 'FAIL'}, "
        f"condition b {'pass' if result.b_holds else 'FAIL'} (bound {args.frame_bound})",
        f"material implication fails condition b: {result.material_b_fails}",
        f"meet with the refuting pair is bottom in every frame algebra <= 3 worlds: "
        f"{result.bottom_certified}",
    ]
    if result.insufficient_bound:
        lines.append("warning: frame bound too small to exhibit condition b")
    _emit(report, args, lines)
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


def cmd_check_selfext(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.logic)
    names = [f"x{i+1}" for i in range(args.variables)]
    ok, witness = check_selfextensionality(matrix, names, args.depth, args.budget)
    report = {
        **_tool_stamp(args),
        "command": "check-selfext",
        "selfextensional": ok,
        "witness": (
            None
            if witness is None
            else {
                "connective": witness.connective,
                "left": [print_formula(f) for f in witness.left_args],
                "right": [print_formula(f) for f in witness.right_args],
                "left_result": print_formula(witness.left_result),
                "right_result": print_formula(witness.right_result),
            }
        ),
        "note": f"no counterexample at depth {args.depth}" if ok else "counterexample found",
        "pass": ok,
    }
    lines = [
        f"logic {matrix.describe()}: "
        + (
            f"no congruence counterexample at depth {args.depth} "
            f"over {args.variables} variables"
            if ok
            else "congruence property FAILS: "
            f"{', '.join(print_formula(f) for f in witness.left_args)} vs "
            f"{', '.join(print_formula(f) for f in witness.right_args)} under "
            f"{witness.connective}"
        )
    ]
    _emit(report, args, lines)
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def cmd_enumerate_homs(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.logic)
    algebra = matrix.algebra
    homs = power_homomorphisms(algebra, args.electorate, args.budget)
    report = {
        **_tool_stamp(args),
        "command": "enumerate-homs",
        "count": len(homs),
        "tables": [list(h.mapping) for h in homs],
        "pass": True,
    }
    lines = [
        f"homomorphisms {algebra.name or 'B'}^{args.electorate} -> "
        f"{algebra.name or 'B'}: {len(homs)}"
    ]
    _emit(report, args, lines)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggcheck",
        description=(
            "Finite-model checks for judgment aggregation over algebraic "
            "logics. --logic accepts a matrix JSON file or a builtin name "
            "(boolean2, mv3, ..., with optional -degree suffix)."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, logic=True, out=True):
        if logic:
            p.add_argument("--logic", required=True, help="matrix JSON file or builtin name")
        if out:
            p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("check-agenda", help="pseudo-richness and contingency report")
    common(p)
    p.add_argument("--agenda", required=True)
    p.set_defaults(func=cmd_check_agenda)

    p = sub.add_parser(
        "verify-bijection",
        help="aggregators <-> homomorphisms, both directions, exhaustively",
    )
    common(p)
    p.add_argument("--agenda", required=True)
    p.add_argument("--electorate", type=int, required=True)
    p.add_argument("--depth", type=int, default=1,
                   help="closure depth for the strong-systematicity census")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    p.set_defaults(func=cmd_verify_bijection)

    p = sub.add_parser(
        "classify-dictators",
        help="homomorphism / ultrafilter / dictator classification of a criterion",
    )
    p.add_argument("--logic", default="boolean2", help="two-element matrix (default boolean2)")
    p.add_argument("--criterion", required=True)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_classify_dictators)

    p = sub.add_parser(
        "check-subjunctive",
        help="consistency conditions for the boxed reading of implication",
    )
    p.add_argument("--frame-bound", type=int, default=3)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_check_subjunctive)

    p = sub.add_parser("check-selfext", help="bounded congruence-property search")
    common(p)
    p.add_argument("--variables", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    p.set_defaults(func=cmd_check_selfext)

    p = sub.add_parser("enumerate-homs", help="all homomorphisms B^N -> B")
    common(p)
    p.add_argument("--electorate", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    p.set_defaults(func=cmd_enumerate_homs)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in COUNT_FLAGS:
            if getattr(args, name, 0) < 0:
                raise ValueError(f"--{name} must be >= 0")
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AggcheckError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # never let a crash pass for a verdict
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
