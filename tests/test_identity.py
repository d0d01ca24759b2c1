"""Identity resolution: merging rules, canonical picks, alias files."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from busfactor import (RawAuthor, parse_alias_file, resolve_identities,
                       token_set_ratio)
from busfactor import identity
from busfactor.errors import EmptyAuthorSet, UnknownAuthor
from busfactor.identity import normalize_email, normalize_name

from . import oracles


def resolve(*authors, **kwargs):
    return resolve_identities(list(authors), **kwargs)


def test_identical_emails_merge():
    a = RawAuthor("Jane D", "jane@corp.com")
    b = RawAuthor("Jane Doe", "jane@corp.com")
    idmap = resolve(a, b)
    assert idmap.canonical(a) is idmap.canonical(b)
    assert len(idmap) == 1


def test_email_case_is_ignored():
    a = RawAuthor("Jane", "Jane@Corp.COM")
    b = RawAuthor("Jane", "jane@corp.com")
    idmap = resolve(a, b)
    assert len(idmap) == 1


def test_similar_names_merge():
    a = RawAuthor("John Smith", "js@one.com")
    b = RawAuthor("smith, john", "john.smith@two.com")
    assert token_set_ratio(a.name, b.name) == 100
    idmap = resolve(a, b)
    assert len(idmap) == 1


def test_diacritics_do_not_block_a_merge():
    a = RawAuthor("José García", "jg@one.com")
    b = RawAuthor("Jose Garcia", "garcia@two.com")
    idmap = resolve(a, b)
    assert len(idmap) == 1


def test_dissimilar_names_distinct_emails_stay_apart():
    a = RawAuthor("Ada Core", "ada@one.com")
    b = RawAuthor("Bert Low", "bert@two.com")
    idmap = resolve(a, b)
    assert len(idmap) == 2
    assert idmap.canonical(a) != idmap.canonical(b)


def test_shared_local_part_merges():
    a = RawAuthor("Ada", "acore@work.com")
    b = RawAuthor("A. Core", "acore@home.net")
    idmap = resolve(a, b)
    assert len(idmap) == 1


def test_short_local_part_does_not_merge():
    # two-character local parts are too generic to act as evidence
    a = RawAuthor("Ada Core", "ac@work.com")
    b = RawAuthor("Bert Low", "ac@home.net")
    idmap = resolve(a, b)
    assert len(idmap) == 2


def test_merging_is_transitive():
    a = RawAuthor("Ada Core", "ada@one.com")
    b = RawAuthor("Ada Core", "ada.core@two.com")   # name match with a
    c = RawAuthor("A. C.", "ada.core@three.com")    # local part match with b
    idmap = resolve(a, b, c)
    assert len(idmap) == 1
    assert idmap.canonical(a) is idmap.canonical(c)


def test_threshold_controls_fuzzy_merging():
    a = RawAuthor("J Doe", "j1@one.com")
    b = RawAuthor("John Doe", "j2@two.com")
    score = token_set_ratio(a.name, b.name)
    assert score == 77
    assert len(resolve(a, b, similarity_threshold=90)) == 2
    assert len(resolve(a, b, similarity_threshold=77)) == 1


def test_similarity_zero_merges_everything():
    a = RawAuthor("Ada Core", "ada@one.com")
    b = RawAuthor("Bert Low", "bert@two.com")
    assert len(resolve(a, b, similarity_threshold=0)) == 1


def test_canonical_representative_has_most_records():
    light = RawAuthor("Jane D", "jane@corp.com")
    heavy = RawAuthor("Jane Doe", "jane@corp.com")
    idmap = resolve(light, heavy, weights={light: 2, heavy: 30})
    dev = idmap.canonical(light)
    assert dev.canonical_name == "Jane Doe"
    assert dev.members == frozenset({light, heavy})


def test_canonical_tie_breaks_by_email():
    a = RawAuthor("Pat Kim", "a@corp.com")
    z = RawAuthor("Pat Kim", "z@corp.com")
    idmap = resolve(a, z, weights={a: 5, z: 5})
    assert idmap.canonical(z).canonical_email == "a@corp.com"


def test_unknown_author_raises(two_dev_repo):
    idmap = resolve(RawAuthor("Ada Core", "ada@fixture.test"))
    with pytest.raises(UnknownAuthor):
        idmap.canonical(RawAuthor("Stranger", "who@where"))


def test_empty_author_set_raises():
    with pytest.raises(EmptyAuthorSet):
        resolve_identities([])


def test_alias_file_forces_merge(tmp_path):
    alias_path = tmp_path / "aliases"
    alias_path.write_text(
        "# corporate rename\n"
        "old@legacy.com -> new@corp.com   # keep\n",
        encoding="utf-8")
    aliases = parse_alias_file(alias_path)
    assert aliases == {"old@legacy.com": "new@corp.com"}

    a = RawAuthor("Completely Different", "old@legacy.com")
    b = RawAuthor("Someone Else", "new@corp.com")
    idmap = resolve(a, b, aliases=aliases)
    assert len(idmap) == 1


def test_alias_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("this line has no arrow\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_alias_file(bad)


@pytest.mark.parametrize("line", [" -> x@y", "a@x -> ", "->"])
def test_alias_file_rejects_empty_side(tmp_path, line):
    # an empty raw side would merge every author without an email
    bad = tmp_path / "bad"
    bad.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed alias line"):
        parse_alias_file(bad)


def test_empty_alias_email_rejected():
    ann, zed = RawAuthor("Ann Lee", ""), RawAuthor("Zed Quo", "")
    assert len(resolve(ann, zed)) == 2
    for aliases in ({"": "x@y"}, {"a@x": ""}):
        with pytest.raises(ValueError, match="non-empty"):
            resolve(ann, zed, aliases=aliases)


def test_no_author_in_two_identities():
    authors = [
        RawAuthor("Ada Core", "ada@one.com"),
        RawAuthor("ada core", "other@two.com"),
        RawAuthor("Bert Low", "bert@three.com"),
        RawAuthor("Bert Low", "bert@four.com"),
    ]
    idmap = resolve_identities(authors)
    seen = {}
    for author in authors:
        dev = idmap.canonical(author)
        for member in dev.members:
            assert seen.setdefault(member, dev) is dev


def test_lookup_total_over_input_authors():
    authors = [RawAuthor(f"Dev {c}", f"{c*3}@x.test") for c in "abcde"]
    idmap = resolve_identities(authors)
    assert idmap.authors() == set(authors)
    for author in authors:
        assert author in idmap


def test_normalizers():
    assert normalize_name("  José  GARCÍA ") == "jose garcia"
    assert normalize_email(" MiXeD@CaSe.Org ") == "mixed@case.org"


# --- partition against the brute-force oracle -------------------------------

GOLDEN_CORPUS = [
    RawAuthor("John Smith", "js@one.com"),
    RawAuthor("Smith, John", "john.smith@two.com"),
    RawAuthor("José García", "jg@one.com"),
    RawAuthor("Garcia, Jose", "GARCIA@TWO.COM"),
    RawAuthor("Zoë Ünal", "zoe@three.org"),
    RawAuthor("Unal, Zoe", "z.unal@four.org"),
    RawAuthor("Dev Person1", "p1@devs.test"),
    RawAuthor("Dev Person2", "p2@devs.test"),
    RawAuthor("Dev Person12", "p12@devs.test"),
    RawAuthor("dependabot[bot]",
              "49699333+dependabot[bot]@users.noreply.github.com"),
    RawAuthor("renovate[bot]", "bot@renovateapp.com"),
    RawAuthor("github-actions[bot]",
              "41898282+github-actions[bot]@users.noreply.github.com"),
    RawAuthor("J", "j@x.test"),
    RawAuthor("K", "k@y.test"),
    RawAuthor("J Doe", "jd@z.test"),
    RawAuthor("John Doe", "john@doe.test"),
    RawAuthor("Ada_Core", "ada@core.test"),
    RawAuthor("Ada Core", "a.core@elsewhere.test"),
    RawAuthor("---", "dash@x.test"),
    RawAuthor("", "anonymous@x.test"),
    RawAuthor("Bert Low", "bert@low.test"),
]


def partition(idmap) -> set[frozenset]:
    return {dev.members for dev in idmap.developers()}


@pytest.mark.parametrize("threshold, groups", [
    (0, 2), (77, 13), (90, 14), (100, 16)])
def test_partition_matches_oracle_on_golden_corpus(threshold, groups):
    idmap = resolve_identities(GOLDEN_CORPUS, similarity_threshold=threshold)
    assert partition(idmap) == oracles.identity_partition(GOLDEN_CORPUS,
                                                          threshold)
    assert len(idmap) == groups


def test_numbered_names_still_merge_at_default():
    idmap = resolve_identities(GOLDEN_CORPUS)
    one, two = GOLDEN_CORPUS[6:8]
    assert token_set_ratio(one.name, two.name) == 91
    assert idmap.canonical(one) is idmap.canonical(two)


_NAME_PARTS = ["ada", "Ada", "Lovelace", "lovelace1", "Löve", "love",
               "J", "j", "x", "jo", "John", "Jöhn", "smith", "Smith,",
               "dev", "person1", "person2", "o_neil", "o-neil", "2",
               "bot", "[bot]", "ab", "ba", "abc"]
_names = st.lists(st.sampled_from(_NAME_PARTS), min_size=0, max_size=3).map(
    " ".join)
_emails = st.sampled_from(["", "a@x.test", "abc@y.test", "abc@z.test",
                           "ab@x.test", "q@w.test"])
_raw_authors = st.lists(
    st.tuples(_names, _emails).filter(any).map(lambda pair: RawAuthor(*pair)),
    min_size=1, max_size=8)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(authors=_raw_authors, threshold=st.integers(0, 100))
def test_partition_matches_oracle(authors, threshold):
    idmap = resolve_identities(authors, similarity_threshold=threshold)
    assert partition(idmap) == oracles.identity_partition(authors, threshold)


def test_only_pairs_that_can_merge_are_scored(monkeypatch):
    # No two names share a token, so every pair meets the character
    # bound; only the numbered pairs come close enough to be scored.
    names = ["Alexandria1", "Alexandria2", "Bartholomew3", "Bartholomew4",
             "Konstantinos5", "Konstantinos6", "Wilhelmina Zhou",
             "Quincy Oduya", "Priya Raman", "Thaddeus Kowalczyk",
             "Ingrid Bjornsdottir", "Mateo Fuentes", "Yuki Tanaka",
             "Olumide Adeyemi", "Svetlana Petrova", "Hamish Mcleod"]
    authors = [RawAuthor(name, f"dev{i}@corp.test")
               for i, name in enumerate(names)]
    merging = sum(token_set_ratio(a, b) >= 90
                  for i, a in enumerate(names) for b in names[i + 1:])
    assert merging == 3

    calls = []

    def counted(a, b):
        calls.append((a, b))
        return token_set_ratio(a, b)
    monkeypatch.setattr(identity, "token_set_ratio", counted)
    idmap = resolve_identities(authors, similarity_threshold=90)
    assert len(calls) == merging
    assert len(idmap) == len(names) - merging


def _scored_token_sets(monkeypatch) -> dict[tuple[frozenset, frozenset], int]:
    """Record each token_set_ratio call: its pair of token sets, in the
    order in which they were scored, and the score."""
    scored = {}

    def counted(a, b):
        score = token_set_ratio(a, b)
        scored[oracles.name_tokens(a), oracles.name_tokens(b)] = score
        return score
    monkeypatch.setattr(identity, "token_set_ratio", counted)
    return scored


_WORDS = _NAME_PARTS + ["O'Neil", "Zoë", "zoe", "Ünal", "García", "garcia",
                        "Fami", "Sivopa", "Gupa", "Dadiso", "Bepi", "Budope"]


@st.composite
def _spellings(draw) -> str:
    """A name as people type it: words in either order, joined by
    punctuation, or a name without any word."""
    words = draw(st.lists(st.sampled_from(_WORDS), max_size=3))
    if draw(st.booleans()):
        words.reverse()
    joined = draw(st.sampled_from([" ", ", ", "-", ". ", " & "])).join(words)
    return joined or draw(st.sampled_from(["", "---", "(.)"]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(names=st.lists(_spellings(), min_size=1, max_size=30),
       threshold=st.integers(0, 100))
def test_every_pair_that_can_merge_is_scored(names, threshold):
    # Names are compared in the order in which their normalized forms
    # sort. A pair that reaches the threshold has its two token sets
    # scored in that order, or merges unscored: its token sets are
    # equal, the threshold is 0 and every name merges, or the two token
    # sets already merged when scored in the other order.
    authors = [RawAuthor(name, f"dev{i}@corp.test")
               for i, name in enumerate(names)]
    with pytest.MonkeyPatch.context() as patch:
        scored = _scored_token_sets(patch)
        idmap = resolve_identities(authors, similarity_threshold=threshold)
    assert len(idmap) == len(idmap.developers())
    spelled = {normalize_name(a.name): a for a in authors}
    plain = sorted(spelled.keys() - {""})
    for i, a in enumerate(plain):
        for b in plain[i + 1:]:
            if oracles.name_score(a, b) < threshold:
                continue
            pair = (oracles.name_tokens(a), oracles.name_tokens(b))
            if pair not in scored:
                assert (pair[0] == pair[1] or threshold == 0
                        or scored.get(pair[::-1], -1) >= threshold), (a, b)
                assert idmap.canonical(spelled[a]) is idmap.canonical(
                    spelled[b])


def _generated_corpus(size: int, seed: int) -> list[RawAuthor]:
    """People with random two-word names, some of whom also commit as
    "Last, First", with an accent, with a typo or with an initial."""
    rng = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"
    accents = {"a": "á", "e": "é", "o": "ö", "u": "ü"}

    def word(shortest: int, longest: int) -> str:
        return "".join(rng.choice(letters) for _ in range(
            rng.randint(shortest, longest))).capitalize()

    names = []
    while len(names) < size:
        first, last = word(2, 7), word(3, 9)
        names.append(f"{first} {last}")
        variant = rng.randrange(6)
        if variant == 0:
            names.append(f"{last}, {first}")
        elif variant == 1:
            names.append(f"{first} {''.join(accents.get(c, c) for c in last)}")
        elif variant == 2:
            k = rng.randrange(len(last))
            names.append(f"{first} {last[:k]}{rng.choice(letters)}"
                         f"{last[k + 1:]}")
        elif variant == 3:
            names.append(f"{first[0]}. {last}")
    return [RawAuthor(name, f"user{i}@corp{i}.test")
            for i, name in enumerate(names[:size])]


@pytest.mark.parametrize("threshold", [1, 50, 77, 90, 100])
def test_partition_matches_oracle_on_generated_corpus(threshold):
    corpus = _generated_corpus(200, seed=threshold)
    idmap = resolve_identities(corpus, similarity_threshold=threshold)
    assert partition(idmap) == oracles.identity_partition(corpus, threshold)


def test_equal_token_sets_merge_unscored(monkeypatch):
    people = ["Wilhelmina Zhou", "Quincy Oduya", "Priya Raman",
              "Thaddeus Kowalczyk", "Ingrid Bjornsdottir", "Mateo Fuentes"]
    authors = []
    for i, name in enumerate(people):
        first, last = name.split()
        authors += [RawAuthor(name, f"{first.lower()}@one.test"),
                    RawAuthor(f"{last}, {first}", f"dev{i}@two.test")]
    scored = _scored_token_sets(monkeypatch)
    idmap = resolve_identities(authors)
    assert scored == {}
    assert len(idmap) == len(people)
    for i in range(0, len(authors), 2):
        assert idmap.canonical(authors[i]) is idmap.canonical(authors[i + 1])


def test_token_sets_are_scored_in_sorted_order():
    # token_set_ratio is not symmetric: "fami sivopa" scores 45 against
    # "gupa dadiso", which scores 55 against it. "sivopa fami" sorts
    # after "gupa dadiso", so at 50 the pair merges through it.
    assert token_set_ratio("fami sivopa", "gupa dadiso") == 45
    assert token_set_ratio("gupa dadiso", "sivopa fami") == 55
    authors = [RawAuthor("Fami Sivopa", "f1@x.test"),
               RawAuthor("Gupa Dadiso", "g@y.test"),
               RawAuthor("Sivopa Fami", "f2@z.test")]
    assert len(resolve_identities(authors, similarity_threshold=50)) == 1
    assert len(resolve_identities(authors[:2], similarity_threshold=50)) == 2
