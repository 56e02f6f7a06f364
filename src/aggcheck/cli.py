"""Command-line interface.

Each subcommand loads its inputs, runs the corresponding module checks, and
emits a deterministic JSON report (to --out) plus a short human summary on
stdout. Exit codes: 0 all checks pass, 1 a check failed, 2 input error,
3 budget exceeded, 4 internal error (a bug, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import __version__
from .agenda import pseudo_richness, strictly_contingent_formulas
from .aggregation import aggregator_from_criterion, criterion_from_aggregator, witness_attitudes
from .algebra import (
    DEFAULT_BUDGET,
    DecisionCriterion,
    power_homomorphisms,
    refuse,
    refuse_power_past_the_caps,
)
from .census import qualifying_criteria
from .errors import AggcheckError, BudgetExceededError, NotQualifyingError
from .fileio import dump_json, load_agenda, load_criterion, load_matrix
from .impossibility import classify_dictator, decisive_coalitions, is_ultrafilter
from .modal import CERTIFIED_WORLDS, check_subjunctive_conditions
from .semantics import check_selfextensionality
from .syntax import print_formula

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3
EXIT_INTERNAL_ERROR = 4

# each count option's least value, checked before any file is read
COUNT_MINIMUMS = {"budget": 0, "variables": 0, "depth": 0, "electorate": 1, "frame_bound": 1}


def _tool_stamp(args: argparse.Namespace) -> dict:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    return {"tool": {"name": "aggcheck", "version": __version__}, "config": config}


def _emit(report: dict, args: argparse.Namespace, summary_lines: list[str]) -> int:
    """Stamp, print and write the report; its ``pass`` field picks the exit code."""
    report.update(_tool_stamp(args), command=args.command)
    for line in summary_lines:
        print(line)
    if args.out:
        dump_json(report, args.out)
        print(f"report written to {args.out}")
    return EXIT_PASS if report["pass"] else EXIT_CHECK_FAILED


def cmd_check_agenda(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.logic)
    agenda = load_agenda(args.agenda, matrix)
    level, witnesses = pseudo_richness(agenda)
    contingent = strictly_contingent_formulas(agenda)
    per_formula = {print_formula(f): v for f, (v, _) in agenda.variables_and_image_sizes.items()}
    warnings = []
    if level < agenda.signature.max_arity:
        warnings.append(
            f"agenda is {level}-pseudo-rich but the signature has arity "
            f"{agenda.signature.max_arity}; connective-wise checks may be limited"
        )
    report = {
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
    return _emit(report, args, lines)


def cmd_verify_bijection(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.logic)
    agenda = load_agenda(args.agenda, matrix)
    algebra = agenda.algebra
    n = args.electorate
    refuse_power_past_the_caps(algebra, n)  # every cap refuses before either route searches
    witness_attitudes(agenda)  # so does an agenda outside the theorem's hypotheses
    qualifying = qualifying_criteria(agenda, n, args.depth, args.budget)
    qual_tables = sorted(c.values for c in qualifying)
    hom_tables = sorted(h.mapping for h in power_homomorphisms(algebra, n, args.budget))

    # homomorphism -> aggregator -> criterion must give the table back; the
    # criterion fixes the aggregator, so equal tables close the round trip
    roundtrip_failures = []
    for table in hom_tables:
        aggregator = aggregator_from_criterion(DecisionCriterion(algebra, n, table), agenda)
        try:  # a homomorphism's aggregator qualifies, so a refusal fails the round trip
            extracted = list(criterion_from_aggregator(aggregator, depth=args.depth,
                                                       budget=args.budget).values)
        except NotQualifyingError as exc:
            extracted = str(exc)
        if extracted != list(table):
            roundtrip_failures.append({"criterion": list(table), "extracted": extracted})

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
        *(f"warning: {w}" for w in warnings),
    ]
    return _emit(report, args, lines)


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
    return _emit(report, args, lines)


def cmd_check_subjunctive(args: argparse.Namespace) -> int:
    result = check_subjunctive_conditions(args.frame_bound)
    passed = (
        result.a_holds
        and result.b_holds
        and result.material_b_fails
        and result.bottom_certified
    )
    report = {
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
        f"meet with the refuting pair is bottom in every frame algebra <= {CERTIFIED_WORLDS} "
        f"worlds: {result.bottom_certified}",
    ]
    if result.insufficient_bound:
        lines.append("warning: frame bound too small to exhibit condition b")
    return _emit(report, args, lines)


def cmd_check_selfext(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.logic)
    # the closure's seed layer, a formula per variable and per constant, refused from its counts
    seeds = args.variables + len(matrix.algebra.signature.constants)
    refuse(args.budget, "closure seed", (seeds, "formulas"),
           ((matrix.algebra.size, args.variables), "valuations"))
    names = [f"x{i+1}" for i in range(args.variables)]
    ok, witness = check_selfextensionality(matrix, names, args.depth, args.budget)
    report = {
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
    return _emit(report, args, lines)


def cmd_enumerate_homs(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.logic)
    algebra = matrix.algebra
    homs = power_homomorphisms(algebra, args.electorate, args.budget)
    report = {
        "count": len(homs),
        "tables": [list(h.mapping) for h in homs],
        "pass": True,
    }
    lines = [
        f"homomorphisms {algebra.name or 'B'}^{args.electorate} -> "
        f"{algebra.name or 'B'}: {len(homs)}"
    ]
    return _emit(report, args, lines)


def _option(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


LOGIC = _option("--logic", required=True, help="matrix JSON file or builtin name")
OUT = _option("--out", help="write the JSON report here")
AGENDA = _option("--agenda", required=True)
ELECTORATE = _option("--electorate", type=int, required=True)
BUDGET = _option("--budget", type=int, default=DEFAULT_BUDGET,
                 help="work units any stage may charge (default 10^8)")

# each subcommand's help, handler and options, in the order --help lists them
COMMANDS = {
    "check-agenda": ("pseudo-richness and contingency report", cmd_check_agenda,
                     (LOGIC, OUT, AGENDA)),
    "verify-bijection": (
        "aggregators <-> homomorphisms, both directions, exhaustively", cmd_verify_bijection,
        (LOGIC, OUT, AGENDA, ELECTORATE,
         _option("--depth", type=int, default=1,
                 help="closure depth for the strong-systematicity census"),
         BUDGET)),
    "classify-dictators": (
        "homomorphism / ultrafilter / dictator classification of a criterion",
        cmd_classify_dictators,
        (OUT, _option("--logic", default="boolean2", help="two-element matrix (default boolean2)"),
         _option("--criterion", required=True))),
    "check-subjunctive": ("consistency conditions for the boxed reading of implication",
                          cmd_check_subjunctive,
                          (OUT, _option("--frame-bound", type=int, default=3))),
    "check-selfext": ("bounded congruence-property search", cmd_check_selfext,
                      (LOGIC, OUT, _option("--variables", type=int, default=2),
                       _option("--depth", type=int, default=2), BUDGET)),
    "enumerate-homs": ("all homomorphisms B^N -> B", cmd_enumerate_homs,
                       (LOGIC, OUT, ELECTORATE, BUDGET)),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Every subcommand with its help, and options for ``command`` alone.

    The top-level options take no value, so argparse's first positional is
    argv's first token that does not start with "-"; no other subcommand
    ever parses, and its options would only cost time.
    """
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
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag, kwargs in options if name == command else ():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = next((token for token in argv if not token.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        for name, least in COUNT_MINIMUMS.items():
            if getattr(args, name, least) < least:
                raise ValueError(f"--{name.replace('_', '-')} must be >= {least}")
        if args.out == "":
            raise ValueError("--out is empty")
        if args.out and os.path.isdir(args.out):  # refused before the check runs, not after
            raise ValueError(f"--out {args.out} is a directory")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"--out {args.out} is in a directory that does not exist")
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AggcheckError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # never let a crash pass for a verdict
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
