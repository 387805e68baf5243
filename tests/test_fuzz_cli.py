"""In-process fuzzing of the command line against the exit-code contract.

Whatever the formula text or the option values, ``cli.main`` answers with a
verdict (0 or 1), a refusal (2) or a budget stop (3), never with an internal
error or a traceback.  Each example runs in process; argparse's own refusals
arrive as ``SystemExit``.  Heights and depths are bounded so that one example
takes well under a second, except in the ray file headers, where a window over
the cap must be refused in under a second whatever its size.
"""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from malgebra.cli import main
from malgebra.ratlin import MAX_WINDOW_VECTORS

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# per fixture: a binding of the slots a, b and c, and a commuting pair
VALID = {
    "t2": {"bind": "a=p,b=q,c=top", "commuting": "p,q"},
    "r2": {"bind": "a=px,b=py,c=top", "commuting": "px,py"},
    "r2_full": {"bind": "a=px,b=py,c=top", "commuting": "px,py"},
}

TOKENS = ["a", "b", "c", "x", "~", "&", "|", "->", "(", ")", " ", "-", ">", "!", "0", "é"]
RUN_UNITS = ["~", "(", ")", "a & ", "a | ", "a -> "]

expressions = st.lists(
    st.sampled_from(TOKENS)
    | st.builds(lambda unit, n: unit * n, st.sampled_from(RUN_UNITS), st.integers(1, 3000)),
    max_size=12,
).map("".join)


def values(good):
    """A valid option value half of the time, else one that no option takes."""
    return st.just(good) | st.sampled_from(["--", "0", "-1", "x"])


@st.composite
def connective_argvs(draw):
    model = draw(st.sampled_from(sorted(VALID)))
    return ["connective", str(FIXTURE_DIR / f"{model}.json"),
            "--expr=" + draw(expressions), "--bind=" + draw(values(VALID[model]["bind"])),
            "--format=" + draw(values("text"))]


@st.composite
def option_argvs(draw):
    model = draw(st.sampled_from(sorted(VALID)))
    valid = VALID[model]

    def option(flag, good):
        return f"--{flag}=" + draw(values(good))

    command = draw(st.sampled_from(["connective", "check", "lemmas", "order", "tautology"]))
    if command == "connective":
        options = [option("expr", "a & b"), option("bind", valid["bind"])]
    elif command == "check":
        options = [option("axioms", "idempotence,negation"), option("height", "1")]
    elif command == "lemmas":
        options = [option("height", "1")]
    elif command == "order":
        options = [option("height", "1")] + draw(st.sampled_from([[], ["--strong-sep"]]))
    else:
        options = [option("commuting", valid["commuting"]), option("depth", "2"),
                   option("slots", "2")]
    options.append(option("format", "text"))
    return [command, str(FIXTURE_DIR / f"{model}.json")] + options


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2, 3), err
    assert "internal error" not in err
    assert "Traceback" not in err
    return code


@settings(max_examples=200, deadline=None)
@given(connective_argvs())
def test_connective_expressions_keep_the_exit_code_contract(argv):
    assert_contract(argv)


@settings(max_examples=200, deadline=None)
@given(option_argvs())
def test_option_values_keep_the_exit_code_contract(argv):
    code = assert_contract(argv)
    # every command that takes a height refuses one below 1
    if {"--height=0", "--height=-1"} & set(argv):
        assert code == 2, argv


# a ray file's header: sizes from below 1 up to 10^9, small ones drawn often
sizes = st.integers(min_value=-2, max_value=16) | st.integers(min_value=-2, max_value=10**9)


@st.composite
def ray_headers(draw):
    data = {"kind": "ray", "dimension": draw(sizes), "sample_height": draw(sizes),
            "full_lattice": draw(st.booleans()),
            "subspaces": draw(st.sampled_from([{}, {"bot": []}]))}
    return data, draw(st.none() | sizes)


@settings(max_examples=150, deadline=None)
@given(ray_headers())
def test_ray_file_headers_keep_the_exit_code_contract(case):
    data, height = case
    dimension = data["dimension"]
    effective = data["sample_height"] if height is None else height
    below = dimension < 1 or effective < 1
    # 3^20 is past the cap, so 20 factors decide every window
    over = not below and (2 * effective + 1) ** min(dimension, 20) > MAX_WINDOW_VECTORS
    # an under-cap window is enumerated; keep the large ones out of the run time
    assume(below or over or (2 * effective + 1) ** dimension <= 20_000)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "model.json"
        path.write_text(json.dumps(data))
        argv = ["check", str(path)] + ([] if height is None else [f"--height={height}"])
        start = time.perf_counter()
        code = assert_contract(argv)
        elapsed = time.perf_counter() - start
    if below:
        assert code == 2, (data, height)
    elif over:
        assert code == 3, (data, height)
    if below or over:
        assert elapsed < 1, (data, height, elapsed)
