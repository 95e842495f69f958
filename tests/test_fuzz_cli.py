"""Fuzzing the command-line arguments of every subcommand through `cli.run`.

Each drawn command line is one argparse accepts: the required options are
present and integer options get integers.  The values are small, zero or
negative, node budgets stay at or below 1,000, and optional flags come and
go.  Whatever the values, a command must give exit 0, 1 or 2 without a
traceback, with exactly one stderr line on exit 2.  Running every command
also runs each one's on-demand import path.  The field order and the
dimension stay small (n <= 4) so that every example is cheap.
"""

import contextlib
import io
import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vspart.cli import _BUILDERS, run
from vspart.construct import spread
from vspart.io import write_partition

# Half of the draws from a valid range, half from an invalid one.
Q = st.one_of(st.sampled_from([2, 3, 4]), st.sampled_from([-1, 0, 1, 6]))
N = st.one_of(st.integers(1, 4), st.integers(-1, 0))
SMALL = st.one_of(st.integers(1, 2), st.integers(-1, 0))
BUDGET = st.one_of(st.integers(0, 1000), st.just(-1))
DIMS = st.lists(st.one_of(st.integers(1, 3), st.integers(-1, 4)), min_size=1, max_size=3).map(
    lambda ds: ",".join(map(str, ds))
)
TYPES = st.sampled_from(["5x2", "8x2,1x3", "1x1,2x2", "3x1", "9x1", "0x2", "-1x2", "2", "x", ""])
# "@" stands for the directory of the files below; missing.part is never written.
FILES = st.one_of(st.sampled_from(["@s4.part", "@s32.part"]),
                  st.sampled_from(["@empty.part", "@dup.part", "@junk.part", "@text.part",
                                   "@missing.part"]))
ROWS = st.one_of(
    st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(-1, 2), max_size=5), min_size=1, max_size=3),
).map(lambda rows: ";".join(",".join(map(str, row)) for row in rows))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz_cli")
    write_partition(spread(2, 4, 2), d / "s4.part")
    write_partition(spread(3, 2, 1), d / "s32.part")
    doc = json.loads((d / "s4.part").read_text(encoding="utf-8"))
    for name, body in (
        ("empty.part", dict(doc, components=[])),
        ("dup.part", dict(doc, components=doc["components"][:1] * 2 + doc["components"][2:])),
        ("junk.part", {"format": "vspart-partition"}),
    ):
        (d / name).write_text(json.dumps(body), encoding="utf-8")
    (d / "text.part").write_text("not json", encoding="utf-8")
    return d


def _options(draw, likely=(), **strategies) -> list:
    """Each option present or not, written as --name=value so that a value
    such as -1x2 is not read as an option.  The likely ones are present
    three times in four."""
    argv = []
    for name, strategy in strategies.items():
        if draw(st.integers(0, 3)) < (3 if name in likely else 2):
            argv.append(f"--{name}={draw(strategy)}")
    return argv


def _flags(draw, *names) -> list:
    return [f"--{name}" for name in names if draw(st.booleans())]


def _out(draw) -> list:
    return ["--out=@out.part"] if draw(st.booleans()) else []


@st.composite
def command_lines(draw):
    """A command line with "@" for the file directory."""
    command = draw(st.sampled_from([
        "solve", "construct", "verify", "bounds", "induce", "search", "enumerate",
        "classify-23", "conjecture-scan", "code", "design",
    ]))
    if command == "solve":
        argv = [f"--q={draw(Q)}", f"--n={draw(N)}", f"--dims={draw(DIMS)}"]
        argv += _options(draw, filters=st.sampled_from(["all", "none"]))
    elif command == "construct":
        builder = draw(st.sampled_from(sorted(_BUILDERS)))
        argv = [builder, f"--q={draw(Q)}"]
        argv += _options(draw, _BUILDERS[builder][0] + ("budget",),
                         n=N, d=SMALL, k=SMALL, type=TYPES, T=DIMS, budget=BUDGET)
        argv += _out(draw)
    elif command == "search":
        argv = [f"--q={draw(Q)}", f"--n={draw(N)}", f"--budget={draw(BUDGET)}"]
        argv += _options(draw, type=TYPES, T=DIMS) + _out(draw)
    elif command in ("enumerate", "conjecture-scan"):
        argv = [f"--q={draw(Q)}", f"--n={draw(st.integers(-1, 3))}"]
    elif command == "classify-23":
        argv = [f"--n={draw(st.integers(-1, 8))}"]
    else:
        argv = [draw(FILES)] + _flags(draw, "force")
        if command == "induce":
            argv += [f"--w={draw(ROWS)}"] + _out(draw)
        elif command in ("code", "design"):
            argv += _flags(draw, "check")
    return [command] + argv + _flags(draw, "json")


@settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=command_lines())
def test_every_command_exits_0_1_or_2_without_traceback(files, argv):
    argv = [a.replace("@", f"{files}/") for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1
