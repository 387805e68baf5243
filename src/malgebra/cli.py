"""Command line front end: model files in, check reports out.

Exit codes: 0 all requested checks pass, 1 at least one property fails
(witnesses are in the report), 2 malformed input (files, flags, bindings),
3 an enumeration budget was exceeded, 4 an internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import models, order
from .connectives import CommutingSet, eval_formula
from .core import (
    ALL_AXIOMS,
    Budget,
    CheckResult,
    DEFINING_AXIOMS,
    check_axiom,
    extent,
    lemma_suite,
    state_id,
)
from .errors import (
    BudgetError,
    ClosureViolation,
    InputError,
    NegationViolation,
    NotCommutingError,
    NotStronglySeparable,
    OrderViolation,
)
from .logic import verify_schemes, verify_tautology_theorem

_DISPLAY = {
    "illegitimate": "Illegitimate",
    "idempotence": "Idempotence",
    "composition": "Composition",
    "interference": "Interference",
    "cumulativity": "Cumulativity",
    "negation": "Negation",
    "separability": "Separability",
    "strong_separability": "Strong Separability",
    "l_cumulativity": "L-Cumulativity",
}

_STATUS = {
    "pass": "PASS",
    "sampled_pass": "PASS (sampled)",
    "vacuous": "PASS (vacuous)",
    "fail": "FAIL",
}


def _reject_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"duplicate name {key!r} in model file")
        out[key] = value
    return out


def load_model_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_reject_duplicate_keys)
        # a lone surrogate escape decodes to a string that no report can print
        json.dumps(data, ensure_ascii=False).encode("utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise InputError(f"{path}: the string escape {bad!r} is a lone surrogate") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    try:
        return models.load_model(data)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


@dataclass
class Report:
    """Model summary plus an ordered list of check results."""

    model: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return "pass" if all(c.ok for c in self.checks) else "fail"


def format_report(report: Report, fmt: str) -> str:
    """Render a report; the JSON form is canonical and byte-stable."""
    if fmt == "json":
        payload = {
            "model": report.model,
            "checks": [c.to_dict() for c in report.checks],
            "overall": report.overall,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    lines = [
        "model: {kind} |X|={states}{sampled} |M|={measurements}".format(
            kind=report.model["kind"],
            states=report.model["states"],
            sampled=" (sampled)" if report.model.get("sampled") else "",
            measurements=report.model["measurements"],
        )
    ]
    for c in report.checks:
        line = "{name}: {status} (checked {count})".format(
            name=_DISPLAY.get(c.property_id, c.property_id),
            status=_STATUS[c.status],
            count=c.checked_count,
        )
        if c.advisory:
            line += " [advisory]"
        if c.witnesses:
            line += " witness=(" + ", ".join(c.witnesses[0]) + ")"
        lines.append(line)
    lines.append(f"overall: {report.overall.upper()}")
    return "\n".join(lines) + "\n"


def _emit(args, summary, checks) -> int:
    report = Report(summary, list(checks))
    sys.stdout.write(format_report(report, args.format))
    return 0 if report.overall == "pass" else 1


def _parse_axiom_list(text: str) -> list[str]:
    requested = []
    for raw in text.split(","):
        name = raw.strip().lower().replace("-", "_")
        if name == "all":
            requested.extend(ALL_AXIOMS)
            continue
        if name not in ALL_AXIOMS:
            raise InputError(f"unknown axiom {raw.strip()!r} in --axioms")
        requested.append(name)
    return requested


def cmd_check(args) -> int:
    alg = load_model_file(args.model)
    axioms = list(DEFINING_AXIOMS) if args.axioms is None else _parse_axiom_list(args.axioms)
    budget = Budget(height=args.height, loop_n=args.loop_n)
    checks = [check_axiom(alg, pid, budget) for pid in axioms]
    return _emit(args, alg.summary(), checks)


def cmd_lemmas(args) -> int:
    alg = load_model_file(args.model)
    return _emit(args, alg.summary(), lemma_suite(alg, Budget(height=args.height)))


def _commuting_set(alg, names) -> CommutingSet:
    """The named set; only a pair the user named is bad input (exit 2)."""
    try:
        return CommutingSet(alg, names)
    except NotCommutingError as exc:
        raise InputError(str(exc)) from None


def cmd_connective(args) -> int:
    alg = load_model_file(args.model)
    binding = {}
    for part in args.bind.split(","):
        if "=" not in part:
            raise InputError(f"binding {part!r} is not of the form slot=name")
        slot, name = (x.strip() for x in part.split("=", 1))
        if slot in binding:
            raise InputError(f"slot {slot!r} is bound twice")
        binding[slot] = name
    cs = _commuting_set(alg, sorted(set(binding.values())))
    result = eval_formula(alg, cs, args.expr, binding)
    fp, z, _ = extent(alg, result)
    payload = {
        "expr": args.expr,
        "result": result.name,
        "fp": sorted(state_id(alg, s) for s in fp),
        "fp_complete": alg.exact,
        "z": sorted(state_id(alg, s) for s in z),
        "z_complete": alg.exact,
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(f"result: {result.name}\n")
        suffix = "" if alg.exact else " (sampled)"
        sys.stdout.write("FP{}: {}\n".format(suffix, ", ".join(payload["fp"])))
        sys.stdout.write("Z{}: {}\n".format(suffix, ", ".join(payload["z"])))
    return 0


def cmd_tautology(args) -> int:
    alg = load_model_file(args.model)
    names = [n.strip() for n in args.commuting.split(",") if n.strip()]
    if not names:
        raise InputError("--commuting needs at least one measurement name")
    cs = _commuting_set(alg, names)
    checks = [verify_tautology_theorem(alg, cs, args.depth, args.slots)]
    checks.extend(verify_schemes(alg, cs))
    return _emit(args, alg.summary(), checks)


def cmd_order(args) -> int:
    alg = load_model_file(args.model)
    checks = [order.bounds_check(alg)]
    checks.extend(order.orthomodular_check(alg))
    if args.strong_sep:
        checks.extend(order.strong_sep_check(alg, Budget(height=args.height)))
    return _emit(args, alg.summary(), checks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malgebra",
        description="Check measurement-algebra laws on table, propositional "
                    "and rational ray models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", help="model file (JSON)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="run the defining (or selected) axioms")
    common(p)
    p.add_argument("--axioms", help="comma separated axiom names, or 'all'")
    p.add_argument("--height", type=int, default=None,
                   help="ray sample height (default: the model's)")
    p.add_argument("--loop-n", type=int, default=3, dest="loop_n",
                   help="maximum cycle length for the loop law")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lemmas", help="run the derived-law suite")
    common(p)
    p.add_argument("--height", type=int, default=None)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("connective", help="evaluate a formula over bound measurements")
    common(p)
    p.add_argument("--expr", required=True, help="formula, e.g. '~(a & ~b)'")
    p.add_argument("--bind", required=True,
                   help="comma separated slot=measurement bindings")
    p.set_defaults(func=cmd_connective)

    p = sub.add_parser("tautology", help="tautology and scheme harness")
    common(p)
    p.add_argument("--commuting", required=True,
                   help="comma separated names of pairwise commuting measurements")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--slots", type=int, default=3)
    p.set_defaults(func=cmd_tautology)

    p = sub.add_parser("order", help="partial order, bounds and orthostructure")
    common(p)
    p.add_argument("--strong-sep", action="store_true", dest="strong_sep",
                   help="also run the point-measurement laws")
    p.add_argument("--height", type=int, default=None)
    p.set_defaults(func=cmd_order)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads "--opt=--" as an empty list instead of a value
    listed = [dest for dest, value in vars(args).items() if isinstance(value, list)]
    if listed:
        print(f"error: --{listed[0].replace('_', '-')} needs a value, not '--'", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (InputError, NotStronglySeparable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ClosureViolation, NegationViolation, NotCommutingError, OrderViolation) as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of the program, never a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
