"""Deterministic synthetic repositories for the busfactor benchmark.

Each workload is built from a seed in one `git fast-import` stream with
pinned author and committer dates, so one seed always gives one HEAD
hash. The generator keeps its own model of every file (one entry per
line: text and author), so it knows the answers the program should
find: commit and record counts, HEAD files and line counts, who owns
lines at HEAD, and which raw spellings belong to which person. Every
generated line carries a unique token, which makes each diff (and so
`git blame`) unambiguous and lets the model predict blame exactly.

Author names are pronounceable and never numbered: numbered names such
as "Dev Person1" / "Dev Person2" score 91 on the token-set ratio and
would be merged into one developer by fuzzy identity matching.
"""
from __future__ import annotations

import os
import random
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_DOMAINS = ("example.org", "example.net", "example.com")
_WORDS = tuple(c1 + v1 + c2 + v2
               for c1 in "bdgkmprst" for v1 in "aeio"
               for c2 in "lnrv" for v2 in "ua")  # 288 code words
_START_YEAR = 2012
_YEAR_S = 365.2425 * 86400
_START_EPOCH = 1325376000  # 2012-01-01T00:00:00Z


@dataclass(frozen=True)
class Workload:
    """Input sizes and the rig limits one session passes to the CLI."""
    name: str
    commits: int
    files: int
    people: int
    years: int
    dirs: int              # files spread round-robin over this many dirs
    lines_per_file: int    # target length; edits keep files near it
    max_edit: int          # most lines one hunk deletes or adds
    files_per_commit: int  # a commit edits 1..files_per_commit files
    affinity: float        # chance an edit stays in the author's own files
    core_share: float      # share of commits by person 0 (0 = Zipf weights)
    alias_share: float     # share of people who also commit as "Last, First"
    rig_samples: int
    rig_max_g: int
    exact_max_g: int


# Why each workload exists is stated in BENCHMARK.json and bench/README.md.
# Sizes are set so that one session, set-up included, takes 3-6 s on 2
# CPUs, which gives 6-12 sessions in a 44 s run. Each rig query does
# enough work that its time is not mostly interpreter start-up.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="deep-history",
        commits=1500, files=24, people=20, years=12, dirs=4,
        lines_per_file=40, max_edit=10, files_per_commit=3, affinity=0.6,
        core_share=0.0, alias_share=0.0,
        rig_samples=2000, rig_max_g=6, exact_max_g=4),
    Workload(
        name="wide-tree",
        commits=300, files=120, people=40, years=4, dirs=12,
        lines_per_file=20, max_edit=5, files_per_commit=3, affinity=0.85,
        core_share=0.0, alias_share=0.0,
        rig_samples=50, rig_max_g=20, exact_max_g=2),
    Workload(
        name="many-identities",
        commits=600, files=40, people=96, years=6, dirs=5,
        lines_per_file=30, max_edit=4, files_per_commit=2, affinity=0.5,
        core_share=0.4, alias_share=0.2,
        rig_samples=100, rig_max_g=3, exact_max_g=1),
)}


def name_pool(size: int = 300) -> list[tuple[str, str]]:
    """Fixed (first, last) names: pronounceable, unique, digit-free.

    First names are CVCV and last names CVCVCV words drawn with strides
    coprime to the number of candidates, so no two people share a first
    or a last name. The benchmark's tests check that no two full names
    come near the fuzzy-merge threshold.
    """
    c, v = len(_CONSONANTS), len(_VOWELS)

    def word(index: int, syllables: int) -> str:
        letters = []
        for _ in range(syllables):
            index, ci = divmod(index, c)
            index, vi = divmod(index, v)
            letters += [_CONSONANTS[ci], _VOWELS[vi]]
        return "".join(letters).capitalize()

    first_space, last_space = (c * v) ** 2, (c * v) ** 3
    return [(word(i * 1931 % first_space, 2), word(i * 7919 % last_space, 3))
            for i in range(size)]


@dataclass
class Planted:
    """What the generator put into a repository: the expected answers."""
    head: str
    commits: int
    records: int
    files_in_history: int
    head_lines: dict[str, int]
    spellings: dict[int, set[tuple[str, str]]]  # person -> (name, email)
    authors_used: int          # distinct raw spellings in history
    people_present: int        # people with at least one commit
    people_at_head: int        # people owning a line at HEAD
    people_per_year: dict[int, int] = field(default_factory=dict)
    first_year: int = _START_YEAR
    last_year: int = _START_YEAR


@dataclass
class _Person:
    first: str
    last: str
    email: str
    commits: int
    alias_commits: int = 0

    @property
    def spelling(self) -> tuple[str, str]:
        return (f"{self.first} {self.last}", self.email)

    @property
    def alias_spelling(self) -> tuple[str, str]:
        return (f"{self.last}, {self.first}", self.email.upper())


def _commit_counts(w: Workload) -> list[int]:
    """Commits per person: Zipf-like, everyone at least one, and the
    same for every seed so that input sizes do not vary with the seed."""
    zipf = [1.0 / (k + 1) ** 0.8 for k in range(w.people)]
    if w.core_share:
        rest = sum(zipf[1:])
        zipf = [w.core_share] + [(1.0 - w.core_share) * z / rest
                                 for z in zipf[1:]]
    scale = w.commits / sum(zipf)
    counts = [max(1, round(z * scale)) for z in zipf]
    counts[0] += w.commits - sum(counts)
    return counts


def _people(w: Workload, shape: random.Random,
            text: random.Random) -> list[_Person]:
    pool = name_pool()
    chosen = text.sample(range(len(pool)), w.people)
    people = []
    for index, commits in zip(chosen, _commit_counts(w)):
        first, last = pool[index]
        email = f"{first.lower()}.{last.lower()}@{_DOMAINS[index % len(_DOMAINS)]}"
        people.append(_Person(first, last, email, commits))
    # Second spellings go to people with at least two commits, so that
    # each of them really appears under both.
    eligible = [p for p in people if p.commits >= 2]
    for person in shape.sample(eligible, round(w.alias_share * w.people)):
        person.alias_commits = max(1, round(0.4 * person.commits))
    return people


class _Model:
    """Line-level model of the tree: per file, a list of [text, person]."""

    def __init__(self, shape: random.Random, text: random.Random):
        self.rng = shape
        self.text = text
        self.files: dict[str, list[tuple[str, int]]] = {}
        self.serial = 0

    def new_lines(self, count: int, person: int) -> list[tuple[str, int]]:
        out = []
        for _ in range(count):
            self.serial += 1
            words = " ".join(self.text.choice(_WORDS)
                             for _ in range(self.rng.randint(3, 10)))
            out.append((f"    {words} x{self.serial}", person))
        return out

    def edit(self, path: str, person: int, w: Workload) -> None:
        lines = self.files[path]
        rng = self.rng
        size = len(lines)
        deleted = rng.randint(0, min(w.max_edit, max(0, size - 3)))
        added = rng.randint(0 if deleted else 1, w.max_edit)
        if size > 1.5 * w.lines_per_file:
            added = rng.randint(0, deleted) if deleted else 0
            deleted = max(deleted, 1)
        elif size < w.lines_per_file // 2:
            added = max(added, deleted + 1)
        at = rng.randint(0, size - deleted)
        lines[at:at + deleted] = self.new_lines(added, person)

    def content(self, path: str) -> bytes:
        return "".join(text + "\n" for text, _ in self.files[path]).encode()


def _stream(w: Workload, seed: int) -> tuple[bytes, Planted]:
    # The seed picks names, file names and line text; who edits which
    # file when, and by how many lines, is fixed per workload, so that
    # the work the program does hardly differs between seeds.
    rng = random.Random(f"{w.name}:shape")
    text = random.Random(f"{w.name}:{seed}")
    people = _people(w, rng, text)
    paths = [f"d{k % w.dirs:02d}/{text.choice(_WORDS)}_{k:03d}.txt"
             for k in range(w.files)]
    own: dict[int, list[str]] = {p: [] for p in range(w.people)}
    for path in paths:
        for person in rng.sample(range(w.people), 3):
            own[person].append(path)

    order = [k for k, person in enumerate(people) for _ in range(person.commits)]
    rng.shuffle(order)
    left = [person.commits for person in people]
    model = _Model(rng, text)
    pending = list(paths)  # files not created yet
    chunks: list[bytes] = []
    records = 0
    used: set[tuple[str, str]] = set()
    active: dict[int, set[int]] = {}
    step = w.years * _YEAR_S / w.commits
    for i in range(w.commits):
        person = order[i]
        spelling = people[person].spelling
        # Exactly alias_commits of the person's commits use the alias.
        if rng.random() * left[person] < people[person].alias_commits:
            people[person].alias_commits -= 1
            spelling = people[person].alias_spelling
        left[person] -= 1
        used.add(spelling)
        epoch = int(_START_EPOCH + (i + 0.9 * rng.random()) * step)
        year = datetime.fromtimestamp(epoch, timezone.utc).year
        active.setdefault(year, set()).add(person)

        # Creation phase: spread file creation over the first commits.
        create = -(-len(pending) // max(1, w.commits // 5 - i)) if pending else 0
        touched = pending[:create]
        del pending[:create]
        for path in touched:
            model.files[path] = model.new_lines(w.lines_per_file, person)
        if not touched:
            existing = own[person] if rng.random() < w.affinity else paths
            choices = [p for p in existing if p in model.files] or list(model.files)
            count = min(len(choices), rng.randint(1, w.files_per_commit))
            touched = rng.sample(choices, count)
            for path in touched:
                model.edit(path, person, w)
        records += len(touched)

        name, email = spelling
        message = f"change {text.choice(_WORDS)} {text.choice(_WORDS)}\n".encode()
        head = (f"commit refs/heads/main\nmark :{i + 1}\n"
                f"author {name} <{email}> {epoch} +0000\n"
                f"committer {name} <{email}> {epoch} +0000\n"
                f"data {len(message)}\n").encode()
        chunks.append(head + message)
        for path in sorted(touched):
            data = model.content(path)
            chunks.append(f"M 100644 inline {path}\ndata {len(data)}\n".encode()
                          + data)
        chunks.append(b"\n")

    at_head = {person for lines in model.files.values() for _, person in lines}
    spellings = {p: {s for s in (people[p].spelling, people[p].alias_spelling)
                     if s in used}
                 for p in range(w.people)}
    planted = Planted(
        head="",
        commits=w.commits,
        records=records,
        files_in_history=len(model.files),
        head_lines={p: len(lines) for p, lines in model.files.items()},
        spellings={p: s for p, s in spellings.items() if s},
        authors_used=len(used),
        people_present=sum(1 for s in spellings.values() if s),
        people_at_head=len(at_head),
        people_per_year={y: len(ps) for y, ps in sorted(active.items())},
        first_year=_START_YEAR,
        last_year=_START_YEAR + w.years - 1,
    )
    return b"".join(chunks), planted


def origin_url(workload: str) -> str:
    """Remote URL set in each generated repo, so the program's repo
    fingerprint does not depend on where the checkout lives."""
    return f"https://example.invalid/busfactor-bench/{workload}.git"


def build_repo(workload: str, seed: int, path: str, env: dict) -> Planted:
    """Create the workload's repository at `path` and return its facts."""
    w = WORKLOADS[workload]
    stream, planted = _stream(w, seed)

    def git(*args: str, data: bytes | None = None) -> str:
        proc = subprocess.run(["git", "-C", path, *args], input=data,
                              capture_output=True, env=env, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"git {args[0]} failed: "
                               f"{proc.stderr.decode(errors='replace')}")
        return proc.stdout.decode()

    os.makedirs(path)
    git("init", "-q", "-b", "main")
    git("config", "remote.origin.url", origin_url(workload))
    git("fast-import", "--quiet", data=stream)
    planted.head = git("rev-parse", "HEAD").strip()
    return planted
