"""Command line front end: model files in, check reports out.

Exit codes: 0 all requested checks pass, 1 at least one property fails
(witnesses are in the report), 2 malformed input (files, flags, bindings),
3 an enumeration budget was exceeded, 4 an internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import models
from .errors import (
    BudgetError,
    ClosureViolation,
    InputError,
    NegationViolation,
    NotCommutingError,
    NotStronglySeparable,
    OrderViolation,
)

# Each handler imports the modules it runs before it reads the model file:
# a module compiled after the model is built raises the run's peak memory.

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


def load_model_file(path: str, height: int | None = None):
    """The model in a file; ``height`` (``--height``) replaces a ray model's
    ``sample_height``, and a bad one is refused before the file is read."""
    if height is not None and height < 1:
        raise InputError(f"sample height must be at least 1, got {height}")
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
    except InputError:  # a duplicate key, from the object hook
        raise
    except ValueError as exc:  # after its subclasses: an integer past the digit limit
        raise InputError(f"{path}: a number has too many digits to read") from exc
    try:
        return models.load_model(data, height)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def format_report(model: dict, checks: list, overall: str, fmt: str) -> str:
    """Render a model summary and its checks; the JSON form is canonical and byte-stable."""
    if fmt == "json":
        payload = {"model": model, "checks": [c.to_dict() for c in checks], "overall": overall}
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    lines = [
        "model: {kind} |X|={states}{sampled} |M|={measurements}".format(
            kind=model["kind"],
            states=model["states"],
            sampled=" (sampled)" if model.get("sampled") else "",
            measurements=model["measurements"],
        )
    ]
    for c in checks:
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
    lines.append(f"overall: {overall.upper()}")
    return "\n".join(lines) + "\n"


def _emit(args, summary, checks) -> int:
    overall = "pass" if all(c.ok for c in checks) else "fail"
    sys.stdout.write(format_report(summary, checks, overall, args.format))
    return 0 if overall == "pass" else 1


def cmd_check(args) -> int:
    from .core import ALL_AXIOMS, DEFINING_AXIOMS, check_axiom

    axioms = list(DEFINING_AXIOMS)
    if args.axioms is not None:
        axioms = []
        for raw in args.axioms.split(","):
            name = raw.strip().lower().replace("-", "_")
            if name != "all" and name not in ALL_AXIOMS:
                raise InputError(f"unknown axiom {raw.strip()!r} in --axioms")
            axioms.extend(ALL_AXIOMS if name == "all" else [name])
    alg = load_model_file(args.model, args.height)
    # a law named twice runs once, where it was first named
    return _emit(args, alg.summary(), [check_axiom(alg, pid) for pid in dict.fromkeys(axioms)])


def cmd_lemmas(args) -> int:
    from .core import lemma_suite

    alg = load_model_file(args.model, args.height)
    return _emit(args, alg.summary(), lemma_suite(alg))


def _commuting_set(alg, names):
    """The named set; only a pair the user named is bad input (exit 2)."""
    from .connectives import CommutingSet

    try:
        return CommutingSet(alg, names)
    except NotCommutingError as exc:
        raise InputError(str(exc)) from None


def cmd_connective(args) -> int:
    from .connectives import eval_formula
    from .core import extent
    from .formulas import is_atom, parse_formula, slots_of

    binding = {}
    for part in args.bind.split(","):
        slot, _, name = (x.strip() for x in part.partition("="))
        # a slot no formula can name, or an empty name, binds nothing
        if not (is_atom(slot) and name):
            raise InputError(f"binding {part!r} is not of the form slot=name")
        if slot in binding:
            raise InputError(f"slot {slot!r} is bound twice")
        binding[slot] = name
    formula = parse_formula(args.expr)
    alg = load_model_file(args.model)
    # every bound name must name a member; only those the formula names must commute
    for name in binding.values():
        alg.measurement(name)
    cs = _commuting_set(alg, sorted({binding[s] for s in slots_of(formula) if s in binding}))
    result = eval_formula(alg, cs, formula, binding)
    fp, z, _ = extent(alg, result)
    payload = {
        "expr": args.expr,
        "result": result.name,
        "fp": sorted(map(str, fp)),
        "fp_complete": alg.exact,
        "z": sorted(map(str, z)),
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
    from .logic import verify_schemes, verify_tautology_theorem

    names = [n.strip() for n in args.commuting.split(",") if n.strip()]
    if not names:
        raise InputError("--commuting needs at least one measurement name")
    if args.depth < 1 or args.slots < 1:
        raise InputError("depth and slot bounds must be positive")
    alg = load_model_file(args.model)
    cs = _commuting_set(alg, names)
    # the schemes run first, so that their budget refuses before the enumeration
    schemes = verify_schemes(alg, cs)
    return _emit(args, alg.summary(),
                 [verify_tautology_theorem(alg, cs, args.depth, args.slots), *schemes])


def cmd_order(args) -> int:
    from .order import bounds_check, orthomodular_check, strong_sep_check

    alg = load_model_file(args.model, args.height)
    checks = [bounds_check(alg)]
    checks.extend(orthomodular_check(alg))
    if args.strong_sep:
        checks.extend(strong_sep_check(alg))
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
                   help="ray window height for this run (default: the model's sample_height)")
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
