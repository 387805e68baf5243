"""Golden reports: canonical JSON and exit code of the CLI subcommands.

Each file under ``tests/golden`` holds one invocation's exit code on its first
line ("exit N") and the exact standard output after it.  The fixture reports
were captured before the integer projection kernels replaced the Fraction
path, so a byte-identical match shows that the kernels change no verdict,
witness or count.  The tautology reports and the two reports on
``golden/broken.json`` were captured before the law checks were merged into
one definition each; the broken table model fails interference,
cumulativity, negation and all twelve lemmas, so its reports pin the
failing witnesses byte for byte.  The ``connective`` reports (one table, one
listed ray family and one full lattice) were captured before the remaining
table/ray differences moved onto the two backend classes; they pin the
extents, negations, composites and commutation refusals along that path.
The plain ``order`` report on ``golden/broken_order.json`` was captured
before the order and ortho laws moved onto one instance loop; that model
fails ``order_bounds`` (antisymmetry of m0 and m2), ``ortho_involution``
and ``ortho_orthomodular``, so the report pins their witnesses.  It runs
without ``--strong-sep``, which refuses the model (exit 2).  The
``order-height3`` report on ``r3_full`` was captured before the
point-separation laws moved onto state codes; at height 3 it pins 1,510
uniqueness instances, where the height-2 reports stop.  Its ``r4_full``
companion (``golden/r4_full.json``, the full lattice of Q^4 listing ``bot``,
``top``, ``px`` and ``px``'s complement) was captured before ``order``
decided five of its laws from their definitions, when the run took 12-16 s
and 260 MB; it pins 3,214 uniqueness instances over a 1,121-ray window.
The ``lemmas`` and
``check-composition`` reports on ``fixtures/t3.json`` (256 states, the top
edge of the byte-lane codes) were captured before the finite backend's pair
facts moved from per-pair protocol calls onto byte lanes and state columns;
``t3`` is not in ``FIXTURES``, because ``check --axioms all`` on it includes
a slow ``l_cumulativity`` run.  The plain ``order`` report on ``t3`` was
captured before ``order_bounds`` stopped searching the bound laws that its
earlier checks force; it pins 1,778,304 instances over 256 commuting members.  The ray fixture reports run at ``--height 2``
(``order-height3`` at 3), and ``--height`` sets the window of the model
itself, so their ``states`` is the window the laws ran over: 9 rays on the
``r2`` models, 50 on the ``r3`` models.  Before the height moved onto the
model, ``states`` counted the files' height-3 windows (17 and 146) while the
laws ran at height 2; the ten ``check``, ``lemmas`` and ``order`` reports
that name the count changed in that field only.
Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from malgebra.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIXTURES = ["f1", "t2", "t2_maximal", "r2", "r2_full", "r3", "r3_full"]
COMMANDS = {
    "check": ["check", "--axioms", "all"],
    "check-composition": ["check", "--axioms", "composition"],
    "lemmas": ["lemmas"],
    "order": ["order", "--strong-sep"],
    "order-plain": ["order"],
    "order-height3": ["order", "--strong-sep", "--height", "3"],
    "tautology": ["tautology", "--depth", "3", "--slots", "3"],
    "connective": ["connective"],
}
COMMUTING = {"t2": "bot,p,q,top", "r2": "bot,px,py,top"}
# fixture -> (formula, slot bindings)
CONNECTIVE = {
    "t2": ("(a -> b) | ~(a & c)", "a=p,b=q,c=p|q"),
    "r2": ("(a -> b) | ~(c & a)", "a=pd,b=pdp,c=top"),
    "r3_full": ("~(a & b) & (a | c)", "a=pxy,b=pep,c=pz"),
}
CASES = (
    [(cmd, fx) for cmd in ("check", "lemmas", "order") for fx in FIXTURES]
    + [("tautology", fx) for fx in COMMUTING]
    + [("check", "broken"), ("lemmas", "broken"), ("order-plain", "broken_order")]
    + [("connective", fx) for fx in CONNECTIVE]
    + [("order-height3", "r3_full"), ("order-height3", "r4_full")]
    + [("lemmas", "t3"), ("check-composition", "t3"), ("order-plain", "t3")]
)


def model_path(fixture: str) -> Path:
    """A model file beside the reports, else the bundled fixture."""
    beside = GOLDEN_DIR / f"{fixture}.json"
    return beside if beside.exists() else ROOT / "fixtures" / f"{fixture}.json"


def argv_for(command: str, fixture: str) -> list[str]:
    sub, *flags = COMMANDS[command]
    argv = [sub, str(model_path(fixture)), *flags, "--format", "json"]
    if command == "tautology":
        argv += ["--commuting", COMMUTING[fixture]]
    elif command == "connective":
        expr, bind = CONNECTIVE[fixture]
        argv += ["--expr", expr, "--bind", bind]
    elif fixture.startswith("r") and "--height" not in flags:
        argv += ["--height", "2"]
    return argv


def render(command: str, fixture: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv_for(command, fixture))
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("command,fixture", CASES)
def test_report_matches_golden(command, fixture):
    expected = (GOLDEN_DIR / f"{command}-{fixture}.out").read_text(encoding="utf-8")
    assert render(command, fixture) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for command, fixture in CASES:
        (GOLDEN_DIR / f"{command}-{fixture}.out").write_text(
            render(command, fixture), encoding="utf-8")
        print(command, fixture, file=sys.stderr)
