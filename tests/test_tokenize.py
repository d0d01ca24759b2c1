"""The tokenizer and the cosine distance against per-line references.

`tokenize` joins the lines and splits ASCII text without the regex, and
`_parse_log` scores a one-sided change without building a bag; both must
give exactly what tokenizing line by line with the oracle's regex and the
generator-sum cosine give.
"""
from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

from busfactor import token_distance, tokenize
from busfactor.gitrepo import _parse_log
from tests.oracles import _TOKEN, cos_distance

# ASCII punctuation, "_", digits and letters, and the ASCII controls that
# `str.split()` takes for whitespace (\x0b, \x0c, \x1c-\x1f)
_ASCII = "".join(map(chr, range(128)))
# Non-ASCII letters, digits (superscript two, Arabic-Indic three),
# combining marks, and non-ASCII spaces and punctuation
_NON_ASCII = "éßΩж²٣\u0301\u0300\u00a0\u2028\u3000\u0085«€"

ascii_line = st.text(alphabet=st.sampled_from(_ASCII), max_size=30)
non_ascii_line = st.text(
    alphabet=st.sampled_from(_ASCII + _NON_ASCII) | st.characters(),
    max_size=30).filter(lambda line: not line.isascii())
any_line = ascii_line | non_ascii_line


def reference_bag(lines) -> dict[str, int]:
    """Tokens counted line by line with the oracle's regex."""
    counts: dict[str, int] = {}
    for line in lines:
        for token in _TOKEN.findall(line):
            counts[token] = counts.get(token, 0) + 1
    return counts


def old_token_distance(added, deleted) -> float:
    """The cosine distance summed over generators, as first written."""
    if not added and not deleted:
        return 0.0
    if not added or not deleted:
        return 1.0
    dot = sum(count * deleted.get(token, 0) for token, count in added.items())
    norm = math.sqrt(sum(c * c for c in added.values()))
    norm *= math.sqrt(sum(c * c for c in deleted.values()))
    similarity = dot / norm
    return min(1.0, max(0.0, 1.0 - similarity))


def assert_same_bag(lines) -> None:
    bag, want = tokenize(lines), reference_bag(lines)
    assert bag == want
    assert list(bag) == list(want)  # first occurrence order


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(ascii_line, max_size=8))
@example(["a_b\x0bc\x0cd\x1ce\x1df\x1eg\x1fh", "x9 = y.z(0)", "__", ""])
def test_ascii_tokens_match_the_regex(lines):
    assert_same_bag(lines)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(non_ascii_line, min_size=1, max_size=4))
@example(["café naïve x²y ٣٣ a«b c"])
def test_non_ascii_tokens_match_the_regex(lines):
    assert_same_bag(lines)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(ascii_line, min_size=1, max_size=4), non_ascii_line,
       st.lists(ascii_line, max_size=4))
def test_mixed_lines_match_the_regex(before, line, after):
    assert_same_bag([*before, line, *after])


bags = st.dictionaries(st.sampled_from("abcdefgh"),
                       st.integers(1, 9) | st.integers(2**53 - 2, 2**64),
                       max_size=6)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(bags, bags)
@example({}, {})
@example({"a": 1}, {})
@example({}, {"a": 2**60})
@example({"a": 1, "b": 2}, {"c": 3})
@example({"a": 2**53 + 1, "b": 3}, {"a": 2**53 - 1, "b": 2**60})
def test_token_distance_equals_generator_sums(added, deleted):
    assert token_distance(added, deleted) == old_token_distance(added, deleted)


def _log(added, deleted) -> list[str]:
    """One commit changing one file, as `git log -p -U0` prints it."""
    header = "\x00" + "a" * 40 + "\x01A\x01a@x\x011600000000\x01"
    hunk = f"@@ -1,{len(deleted)} +1,{len(added)} @@"
    return [header, "diff --git f f", hunk,
            *("-" + line for line in deleted), *("+" + line for line in added)]


log_lines = st.lists(any_line.filter(lambda line: "\n" not in line),
                     max_size=4)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(log_lines, log_lines)
@example(["}", ""], [])
@example([], ["  ;"])
@example(["x"], [])
@example([], ["é"])
def test_parsed_distance_equals_oracle(added, deleted):
    records = list(_parse_log(_log(added, deleted)))
    if not added and not deleted:
        assert records == []
        return
    (record,) = records
    assert (record.lines_added, record.lines_deleted) == (
        len(added), len(deleted))
    assert record.cos_distance == cos_distance(added, deleted)
