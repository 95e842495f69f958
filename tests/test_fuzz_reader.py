"""Fuzzing the partition-file reader through `vspart verify`.

Every document, well formed or not, must give exit 0, 1 or 2 without a
traceback and within the per-example deadline.  Valid field parameters are
kept to q^n <= 4096 so that a well-formed document stays cheap to verify;
huge p and e are drawn on purpose and must be refused at once.
"""

import contextlib
import io
import json
import os
import tempfile
from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vspart.cli import run
from vspart.gf import make_field

WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
HUGE = st.sampled_from([2**61 - 1, 10**9, 10**30, 2**21])


@st.composite
def partition_docs(draw):
    """A well-formed document over a small field, then up to two keys spoiled."""
    p, e = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]))
    q = p**e
    n = draw(st.integers(1, 6).filter(lambda k: q**k <= 4096))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    doc = {"format": "vspart-partition", "version": 1, "p": p, "e": e,
           "modulus": list(make_field(p, e).modulus), "n": n,
           "components": draw(st.lists(st.lists(row, min_size=1, max_size=n), max_size=8))}
    spoilers = {
        "p": st.one_of(st.integers(-3, 12), HUGE, WRONG_TYPES),
        "e": st.one_of(st.integers(-1, 4), HUGE, WRONG_TYPES),
        "n": st.one_of(st.integers(-1, 7), WRONG_TYPES),
        "modulus": st.one_of(st.lists(st.integers(-1, p), max_size=4), WRONG_TYPES),
        "components": st.one_of(
            st.lists(st.lists(st.lists(st.one_of(st.integers(-1, q), WRONG_TYPES), max_size=n + 1),
                              max_size=3), max_size=4),
            WRONG_TYPES,
        ),
        "format": st.one_of(st.just("vspart"), WRONG_TYPES),
    }
    for key in draw(st.lists(st.sampled_from(sorted(spoilers) + ["drop"]), max_size=2)):
        if key == "drop":
            doc.pop(draw(st.sampled_from(sorted(doc))), None)
        else:
            doc[key] = draw(spoilers[key])
    return doc


@settings(max_examples=80, deadline=timedelta(seconds=1), derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=partition_docs(), force=st.booleans())
def test_verify_never_crashes_on_any_document(doc, force):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.part")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["verify", path] + (["--force"] if force else []))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1
