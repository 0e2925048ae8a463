"""Fuzz the CLI's exit-code contract: 0 ok, 1 negative outcome, 2 input error.

Hypothesis writes grammar-shaped ``.crn`` text (integer, decimal and p/q
coefficients, zero complexes, ``<->`` with kf/kr, rates near 1e+-300,
``species`` directives, comments, catalysts, now and then a junk line:
non-ASCII names or digits, numbers too long to print, coefficients beyond
the float range) and pairs it with a random subcommand and random flag
values (nan, inf, 0, negative values, huge --t-end/--dt ratios, finite or
not, unwritable -o paths).  Every run must exit with 0, 1 or 2 without
raising, and a JSON report must parse as strict JSON.  The examples are
derandomized, so every run draws the same ones.  They draw a junk line
only now and then, so each junk line is also run on its own through every
subcommand.  A flag value is drawn only when its flag is, so the capped
flags' values at their cap and one over it have a test of their own,
each on its own drawn networks.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crnsign.cli import main
from crnsign.kinetics import MAX_K_GRID_POINTS, MAX_SAMPLES
from crnsign.textio import ParseError, parse_network

# The one uncaught error left: ``equilibria --simulate`` raises a ValueError
# with this message when an RK4 step overshoots the orthant.  The benchmark's
# ``KNOWN_DEFECTS`` names it by the same message.
KNOWN_DEFECT = "trajectory left the nonnegative orthant"

NAMES = ["A", "B", "C", "X1", "s_2", "B'"]
COEFFICIENTS = ["", "", "", "2", "3", "1.5", "0.25", "3/2", "1/3", "12"]
RATES = ["1", "2.5", "0.1", "3/4", "1e300", "1e-300", "1.7e308", "5e-324", "1e-320", "7"]
NUMBERS = ["1", "0.5", "2", "10", "0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "1e400", "x"]
STEPS = [  # (--t-end, --dt)
    ("5", "0.01"), ("1", "0.1"), ("0.5", "0.05"),
    ("1e300", "1e-10"), ("1e308", "1e-300"), ("1", "1e-300"), ("1e300", "1e299"), ("1e308", "1e307"),
    ("nan", "0.1"), ("1", "nan"), ("inf", "0.1"), ("1", "inf"), ("0", "0.1"), ("-1", "0.1"), ("1", "-0.1"),
]
COMMANDS = ["analyze", "signfix", "altfix", "deficiency", "equilibria", "spectra", "graph", "decompose"]
K_GRIDS = [
    "1:1e6:7", "1:1e4:5", "0.1:1e5:6", "1:inf:5", "nan:10:5", "0:1e6:7", "1e6:1:7", "1:1e6:1",
    "1e-300:1e300:5",
]
SAMPLES = ["0", "1", "5", "-3", "x"]
# (command, flag, value, over the cap): every command that takes a capped
# flag, at the cap and one over it.
CAPPED = [
    (command, "--k-grid", f"1:1e6:{MAX_K_GRID_POINTS + over}", over)
    for command in ("analyze", "spectra") for over in (False, True)
] + [
    (command, "--samples", str(MAX_SAMPLES + over), over)
    for command in ("spectra", "decompose") for over in (False, True)
]


# A network that fixes in one step (``fixtures/one_ambiguous.crn``).
ONE_STEP = "A -> B\nB -> C\nC <-> A + B\n"

JUNK = [
    "A -> ", "A + -> B", "2.5.1A -> B", "A -> B ; k=", "A -> B ; kf=1", "A <-> B ; k=1", "0 -> 0", "A => B",
    "é -> B", "A -> Bé", "species A, é", "A -> 1e5000B", "A -> 1e-5000B", "A -> ²B", "A -> B ; k=1e100000000",
    "B -> 1e2000A", "1e2000A -> B",
]


def _complex(draw, names) -> str:
    if not names:
        return "0"
    return " + ".join(f"{draw(st.sampled_from(COEFFICIENTS))}{name}" for name in names)


@st.composite
def reactions(draw):
    """(line, species it names): disjoint sides, now and then a catalyst."""
    names = draw(st.permutations(NAMES))
    lhs_size, rhs_size = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    lhs, rhs = names[: max(lhs_size, 1 - rhs_size)], names[3 : 3 + rhs_size]
    if lhs and draw(st.integers(0, 7)) == 3:  # not 0: hypothesis favours the bounds
        rhs = rhs + [lhs[0]]
    arrow = draw(st.sampled_from(["->", "->", "<->"]))
    rates = ""
    if draw(st.booleans()):
        if arrow == "->":
            rates = f" ; k={draw(st.sampled_from(RATES))}"
        else:
            rates = f" ; kf={draw(st.sampled_from(RATES))}, kr={draw(st.sampled_from(RATES))}"
    return f"{_complex(draw, lhs)} {arrow} {_complex(draw, rhs)}{rates}", set(lhs) | set(rhs)


@st.composite
def network_texts(draw) -> str:
    lines, used = [], set()
    for line, names in draw(st.lists(reactions(), min_size=1, max_size=5)):
        lines.append(line)
        used |= names
        lines += draw(st.sampled_from([[], [], [], [""], ["# a comment"]]))
    if draw(st.booleans()):
        declared = draw(st.permutations(sorted(used)))
        if draw(st.integers(0, 19)) == 7:
            declared = declared + [draw(st.sampled_from(NAMES))]
        lines.insert(0, "species " + ", ".join(declared))
    if draw(st.integers(0, 19)) == 7:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(JUNK)))
    return "\n".join(lines) + "\n"


def _numbers(draw, count):
    """A comma list: often the right length and positive, sometimes not."""
    if draw(st.booleans()):
        size = count
    else:
        size = draw(st.integers(1, 4))
    pool = ["1", "0.5", "2", "3", "1e3"] if draw(st.booleans()) else NUMBERS
    return ",".join(draw(st.sampled_from(pool)) for _ in range(max(size, 1)))


@st.composite
def invocations(draw, workdir: Path):
    text = draw(network_texts())
    path = workdir / "net.crn"
    path.write_text(text, encoding="utf-8")
    try:
        net = parse_network(text, allow_catalysts=True)
        species, reactions = net.species_count, net.reaction_count
    except ParseError:
        species, reactions = 2, 2
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, str(path)]
    flags = {
        "analyze": ["--check", "--allow-catalysts", "--rates", "--x0", "--k-grid"],
        "signfix": ["--order", "--rate"],
        "altfix": [],
        "deficiency": ["--audit"],
        "equilibria": ["--rates", "--x0", "--lift", "--simulate", "--traj-csv"],
        "spectra": ["--rates", "--x0", "--k-grid", "--samples"],
        "graph": [],
        "decompose": ["--rates", "--samples"],
    }[command] + ["--plain", "-o", "--seed"]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4, unique=True)):
        if flag in ("--check", "--allow-catalysts", "--audit", "--lift", "--plain"):
            argv.append(flag)
        elif flag == "--simulate":
            t_end, dt = draw(st.sampled_from(STEPS))
            argv += [flag, "--t-end", t_end, "--dt", dt]
        elif flag == "--rates":
            argv += [flag, _numbers(draw, reactions)]
        elif flag == "--x0":
            argv += [flag, _numbers(draw, species)]
        elif flag == "--rate":
            argv += [flag, _numbers(draw, draw(st.integers(1, 3)))]
        elif flag == "--order":
            argv += [flag, draw(st.sampled_from(["0", "1,0", "0,1,2", "2,0,1", "-1", "x", "0,0"]))]
        elif flag == "--k-grid":
            argv += [flag, draw(st.sampled_from(K_GRIDS))]
        elif flag == "--samples":
            argv += [flag, draw(st.sampled_from(SAMPLES))]
        elif flag == "--seed":
            argv += [flag, draw(st.sampled_from(["0", "7", "-2"]))]
        else:  # -o and --traj-csv: writable, in a missing directory, or a directory
            target = draw(st.sampled_from(["out.txt", "missing/out.txt", "."]))
            argv += [flag, str(workdir / target)]
    return argv


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv):
    """Run ``crnsign <argv>``: exit 0, 1 or 2 without a traceback, and a
    JSON report that parses as strict JSON.  Returns the exit code and
    stderr, or None for the known defect."""
    try:
        code, out, err = _run(argv)
    except ValueError as exc:
        if KNOWN_DEFECT in str(exc) and argv[0] == "equilibria" and "--simulate" in argv:
            return None
        raise
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    command = argv[0]
    if code == 2 or command == "graph" or "--plain" in argv:
        return code, err
    if "-o" in argv and command != "signfix":
        assert out == ""
        report = Path(argv[argv.index("-o") + 1]).read_text(encoding="utf-8")
    else:
        report = out
    _strict_json(report)
    return code, err


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_exit_code_contract_holds_for_random_inputs(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(invocations(Path(tmp)), label="argv")
        _assert_contract(argv)


@pytest.mark.parametrize("command, flag, value, over", CAPPED)
@settings(max_examples=5, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_exit_code_contract_holds_at_the_flag_caps(command, flag, value, over, data):
    """A capped flag at its cap runs, or fails for another reason than the
    cap; one over the cap is an input error.  The networks are one with a
    bad class plus up to three drawn reactions, so most runs get past
    reading the network to the flag."""
    lines = [line for line, _ in data.draw(st.lists(reactions(), max_size=3), label="lines")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.crn"
        path.write_text(ONE_STEP + "".join(line + "\n" for line in lines), encoding="utf-8")
        code, err = _assert_contract([command, str(path), flag, value])
    if over:
        assert code == 2, err
    else:
        assert "must be at most" not in err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("junk", JUNK)
def test_exit_code_contract_holds_for_every_junk_line(junk, command, tmp_path):
    """Each junk line, inside a network that fixes in one step
    (``fixtures/one_ambiguous.crn``), through each subcommand with its
    default flags."""
    path = tmp_path / "net.crn"
    path.write_text(f"A -> B\n{junk}\nB -> C\nC <-> A + B\n", encoding="utf-8")
    code, _, err = _run([command, str(path)])
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
