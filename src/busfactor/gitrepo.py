"""Extraction of commit history and blame data from a local git clone.

All git access goes through the command-line client, and every git
command runs through one runner, `_git`, which spawns it, decodes its
stdout and checks its exit code. History is read in one streaming
`git log` pass with zero-context patches so that line counts match
`git log --numstat` while the changed lines themselves are available
for tokenization.

Given a `LineReplay`, the same pass replays each file's hunks to track
who owns each of its lines. On a history that is one line of commits
the replayed owners are `git blame`'s, and `extract_blame` takes them
for every file but those a rename or a binary change may have touched;
it runs `git blame` on each other file, in a pool of threads. Both
passes read authors through .mailmap and diff with the same pinned
algorithm.
"""
from __future__ import annotations

import io
import os
import re
from collections import Counter
from contextlib import closing, contextmanager
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    EmptyRepository,
    GitInvocationFailure,
    InvalidGlob,
    NotARepository,
    UnknownRevision,
    UnsupportedCommit,
)
from .metrics import holds_token, token_distance, tokenize
from .records import INSTANTS, BlameSnapshot, RawAuthor, RecordColumns

_FIELD_SEP = "\x01"
_COMMIT_MARK = "\x00"
# Pretty format: NUL marker, then hash/name/email/author-epoch/parents;
# name and email through .mailmap, as `git blame` gives them.
_LOG_FORMAT = "%x00%H%x01%aN%x01%aE%x01%at%x01%P"

_BLAME_WORKERS = min(8, os.cpu_count() or 1)

# The diff of both the history and the blame pass, so that they see the
# same changed lines: Myers with its indent heuristic, on the blobs as
# committed.
_DIFF_FLAGS = ("--diff-algorithm=myers", "--indent-heuristic", "--no-textconv")

# Variables that point git at another repository than the one named,
# as a git hook inherits them: `git rev-parse --local-env-vars`.
_REPOSITORY_VARS = frozenset((
    "GIT_ALTERNATE_OBJECT_DIRECTORIES", "GIT_COMMON_DIR", "GIT_CONFIG",
    "GIT_CONFIG_COUNT", "GIT_CONFIG_PARAMETERS", "GIT_DIR", "GIT_GRAFT_FILE",
    "GIT_IMPLICIT_WORK_TREE", "GIT_INDEX_FILE", "GIT_INTERNAL_SUPER_PREFIX",
    "GIT_NO_REPLACE_OBJECTS", "GIT_OBJECT_DIRECTORY", "GIT_PREFIX",
    "GIT_REPLACE_REF_BASE", "GIT_SHALLOW_FILE", "GIT_WORK_TREE"))


def _git(repo_path: str, *args: str,
         ok_codes: Sequence[int] = (0,)) -> Iterator[str]:
    """Run one git command and yield its stdout lines, newlines stripped.

    The only place that spawns git and decodes its output. Lines are
    split at "\n" only: a lone "\r" or a form feed is part of a line in
    git's output. A missing binary, or an exit code outside ok_codes
    once stdout has been read to the end, raises GitInvocationFailure;
    a reader that stops early kills git and gets no error.

    stderr goes to a temporary file that is read once git has exited: a
    pipe drained only after stdout ends would block git as soon as its
    warnings filled the pipe.
    """
    import subprocess
    import tempfile
    cmd = ["git", "-C", str(repo_path), "-c", "core.quotepath=false", *args]
    env = {k: v for k, v in os.environ.items() if k not in _REPOSITORY_VARS}
    with tempfile.TemporaryFile() as stderr:
        try:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    stderr=stderr, env=env)
        except OSError as exc:
            raise GitInvocationFailure(" ".join(cmd), -1, str(exc)) from None
        with proc, io.TextIOWrapper(proc.stdout, encoding="utf-8",
                                    errors="replace", newline="\n") as stdout:
            try:
                for line in stdout:
                    yield line.rstrip("\n")
            except GeneratorExit:
                proc.kill()
                raise
        if proc.returncode not in ok_codes:
            stderr.seek(0)
            raise GitInvocationFailure(
                " ".join(args), proc.returncode,
                stderr.read().decode("utf-8", errors="replace"))


def resolve_revision(repo_path: str, revision: str) -> str:
    """Resolve a revision name to its full commit hash.

    The one probe of a repository: raises NotARepository when repo_path
    has no git metadata, EmptyRepository when HEAD has no commit yet,
    and UnknownRevision for any other name that does not resolve.
    """
    if not os.path.isdir(repo_path):
        raise NotARepository(f"not a directory: {repo_path}")
    try:
        return "\n".join(_git(repo_path, "rev-parse", "--verify", "--quiet",
                               f"{revision}^{{commit}}")).strip()
    except GitInvocationFailure as exc:
        if exc.returncode == 128:
            raise NotARepository(f"no git repository at {repo_path}") from None
        if exc.returncode != 1:
            raise
    if revision == "HEAD":
        raise EmptyRepository(f"repository at {repo_path} has no commits")
    raise UnknownRevision(f"cannot resolve revision {revision!r}")


_FULL_HASH = re.compile(r"[0-9a-f]{40}|[0-9a-f]{64}")


def _commit_of(repo_path: str, revision: str) -> str:
    """The full hash of a revision; one that already is a full hash, as
    `resolve_revision` gives it, is taken without probing again."""
    if _FULL_HASH.fullmatch(revision):
        return revision
    return resolve_revision(repo_path, revision)


@contextmanager
def _rejections_of(repo_path: str, revision: str):
    """Raise what `resolve_revision` raises for a revision when git fails
    on it unprobed: UnknownRevision for a name that is no commit (git
    exits 128), NotARepository outside a repository. A failure with any
    other cause propagates as it is."""
    try:
        yield
    except GitInvocationFailure:
        resolve_revision(repo_path, revision)
        raise


def repo_fingerprint(repo_path: str, commit: str) -> str:
    """Stable identifier for a working copy at a commit: origin URL or
    path, plus the commit hash (as `resolve_revision` gives it)."""
    source = "\n".join(_git(repo_path, "config", "--get", "remote.origin.url",
                             ok_codes=(0, 1))).strip()
    return f"{source or os.path.abspath(repo_path)}@{commit}"


# --- history extraction ---

# An escape in a C-quoted name: "\" and a key of _C_CHARS or 3 octal digits
_C_ESCAPE = r"\\([0-7]{3}|.)"
_C_CHARS = {"a": "\a", "b": "\b", "t": "\t", "n": "\n", "v": "\v",
            "f": "\f", "r": "\r", '"': '"', "\\": "\\"}


def _section_path(line: str) -> str:
    # "diff --git <path> <path>": under --no-renames and --no-prefix both
    # names are the one path, so the line after "diff --git " splits into
    # two halves of equal length. git C-quotes a name holding '"', '\\'
    # or a control character; under core.quotepath=false it escapes only
    # those ASCII characters.
    name = line[11:11 + (len(line) - 12) // 2]
    if name.startswith('"'):
        name = re.sub(_C_ESCAPE,
                      lambda m: _C_CHARS.get(m[1]) or chr(int(m[1], 8)),
                      name[1:-1])
    return name


# "@@ -<start>[,<count>] +<start>[,<count>] @@"; a count left out is 1
_HUNK = re.compile(r"@@ -\d+(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


class LineReplay:
    """Each file's line owners, replayed from the patches of the history
    pass, for `extract_blame` to take instead of blaming the file.

    Pass one to `extract_history`. Once it returns, `revision` is the
    commit the log was read at and `files` maps each path whose owners
    the replay proves to the author of each of its lines. A history
    that fails part way leaves `revision` None and `files` empty.

    A hunk replaces the lines it deletes with one owner per line it
    adds. When the logged history is one line of commits ending at the
    revision, `git blame` walks the same diffs back from the revision,
    so the replayed owners are blame's for every file, except a file
    - with a binary section, which shows no hunks, or
    - created by a commit that also deleted a file, where blame would
      follow a rename.
    On any other history the replay proves nothing: the log leaves out
    merges, or diffs them against their first parent only, while blame
    diffs a merge against every parent.
    """

    def __init__(self):
        self._reset()

    def _reset(self) -> None:
        self.revision: str | None = None
        self.files: dict[str, list[RawAuthor]] = {}
        # path -> owner per line, None for a path unproven until it is
        # deleted; None for every path once the history is not one line
        self._owners: dict[str, list[RawAuthor] | None] | None = {}
        self._created: list[str] = []  # paths the current commit created
        self._deletes = False  # whether the current commit deleted a file
        self._last = ""  # the commit logged before, "" before the root

    def _commit(self, hash_: str, parents: str) -> None:
        self._end_commit()
        if parents != self._last:
            self._owners = None
        self._last = hash_

    def _end_commit(self) -> None:
        if self._deletes and self._owners is not None:
            self._owners.update(dict.fromkeys(self._created))
        self._created, self._deletes = [], False

    def _section(self, path: str, status: str, hunks: list[str] | None,
                 author: RawAuthor) -> None:
        """One file section: its path, "new" or "deleted" for a file the
        commit created or deleted, and its hunk headers (None when it is
        binary)."""
        if self._owners is None:
            return
        if status == "deleted":  # a file made here later starts afresh
            self._owners.pop(path, None)
            self._deletes = True
            return
        if status == "new":
            self._created.append(path)
            self._owners[path] = []
        owners = self._owners.get(path)
        if owners is None:
            return
        if hunks is None:
            self._owners[path] = None
            return
        for header in hunks:
            old, start, new = _HUNK.match(header).groups()
            old = 1 if old is None else int(old)
            new = 1 if new is None else int(new)
            at = int(start) - 1 if new else int(start)
            owners[at:at + old] = [author] * new

    def _finish(self, revision: str) -> None:
        self._end_commit()
        if self._owners is not None and self._last == revision:
            self.files = {path: owners
                          for path, owners in self._owners.items()
                          if owners is not None}
        self.revision = revision


def extract_history(repo_path: str, revision: str = "HEAD",
                    include_merges: bool = False,
                    replay: LineReplay | None = None) -> RecordColumns:
    """One change record per (commit, modified text file) pair, as
    columns read whole; iterating them gives each as a ChangeRecord.

    Covers the full history reachable from a revision, oldest first
    (author-date order under topological constraints).
    Merge commits are skipped unless include_merges is set, in which
    case their diff is taken against the first parent. Binary files
    and submodule pointer bumps are skipped. Authors are taken through
    the repository's .mailmap, as `git blame` takes them. A commit that
    no record can hold raises UnsupportedCommit.

    A LineReplay passed as replay holds each file's line owners at the
    revision once the columns return; without one, no owners are
    tracked.
    """
    commit = _commit_of(repo_path, revision)
    # Flags, not -c: each overrides every config key that feeds it, so
    # `_parse_log` reads uncoloured zero-context hunks under bare paths,
    # in git's own file order.
    args = ["log", "--reverse", "--author-date-order", "--no-renames",
            "-p", "-U0", "--inter-hunk-context=0", "--no-color",
            "--no-prefix", f"-O{os.devnull}", *_DIFF_FLAGS,
            f"--pretty=format:{_LOG_FORMAT}",
            "--diff-merges=first-parent" if include_merges else "--no-merges",
            f"{commit}^{{commit}}", "--"]  # a tree's log would be empty
    if replay is not None:
        replay._reset()
    lines = _git(repo_path, *args)
    # closed at once when the parse fails, so git is killed and reaped
    with _rejections_of(repo_path, revision), closing(lines):
        columns = _parse_log(lines, replay)
    if replay is not None:
        replay._finish(commit)
    return columns


def _parse_log(lines: Iterable[str],
               replay: LineReplay | None = None) -> RecordColumns:
    """The change records in the lines of `git log -p -U0` in
    _LOG_FORMAT, as columns; each commit and file section also goes to
    the replay, if any.

    A file section runs from its "diff --git" line to the next one, the
    next commit header or the end of the stream, and gives a record when
    it changed lines of a file that is no submodule (gitlink). Tables
    and commits are numbered in order of first appearance among the
    records, as `RecordColumns.from_records` numbers them.
    """
    paths: dict[str, int] = {}
    commits: list[tuple] = []  # (hash, author key, instant, merge, sequence)
    rows: list[tuple] = []  # (commit, path, added, deleted, cos)
    header: tuple = ()  # the current commit's, appended at its first record
    author: RawAuthor | None = None  # the current commit's, for the replay
    sequence = 0
    path: str | None = None
    added: list[str] = []
    deleted: list[str] = []
    hunks: list[str] | None = []  # None for a binary section
    status = ""  # "new" or "deleted" for a file created or deleted
    gitlink = False
    in_hunks = False
    # The trailing mark ends the last section like any other.
    for line in chain(lines, [_COMMIT_MARK]):
        if in_hunks:
            # With -U0 a hunk holds only +/-/backslash lines, so content
            # that looks like "--- x", "+++ y" or "@@" stays content.
            if line.startswith("+"):
                added.append(line[1:])
                continue
            if line.startswith("-"):
                deleted.append(line[1:])
                continue
            if line.startswith("@@"):
                hunks.append(line)
                continue
            if line.startswith("\\"):
                continue
            in_hunks = False
        if line.startswith(("diff --git ", _COMMIT_MARK)):
            if path is not None:
                # A mode-only, empty-file or binary change has no changed
                # lines.
                if not gitlink and (added or deleted):
                    if not commits or commits[-1] is not header:
                        commits.append(header)  # the commit's first record
                    if added and deleted:
                        distance = token_distance(tokenize(added),
                                                  tokenize(deleted))
                    else:  # `token_distance`'s rule for an empty bag
                        distance = float(holds_token(added or deleted))
                    rows.append((len(commits) - 1,
                                 paths.setdefault(path, len(paths)),
                                 len(added), len(deleted), distance))
                if replay is not None:
                    replay._section(path, status, hunks, author)
            path, added, deleted, hunks, status, gitlink = (
                None, [], [], [], "", False)
            if line.startswith("diff --git "):
                path = _section_path(line)
            elif line != _COMMIT_MARK:
                hash_, name, email, epoch, parents = line[1:].split(_FIELD_SEP)
                if not name and not email:
                    raise UnsupportedCommit(f"commit {hash_}: author name "
                                            "and email are both empty")
                instant = int(epoch) * 1_000_000
                if instant not in INSTANTS:
                    raise UnsupportedCommit(f"commit {hash_}: author date "
                                            f"{epoch} lies outside years "
                                            "1-9999")
                header = (hash_, (name, email), instant,
                          len(parents.split()) > 1, sequence)
                if replay is not None:  # its check passed just above
                    author = RawAuthor._make((name, email))
                    replay._commit(hash_, parents)
                sequence += 1
        elif line.startswith("@@"):
            in_hunks = True
            hunks.append(line)
        # Preamble of a file section (between "diff --git" and first hunk).
        elif line.startswith("Binary files "):
            hunks = None
        else:
            if line.endswith(" 160000"):
                # index, new/deleted file mode or old/new mode of a gitlink
                gitlink = True
            if line.startswith(("new file mode ", "deleted file mode ")):
                status = line.split(" ", 1)[0]
    hashes, keys, instants, merges, sequences = (
        tuple(zip(*commits)) or ((),) * 5)
    authors: dict[tuple[str, str], int] = {}
    commit_author = [authors.setdefault(key, len(authors)) for key in keys]
    return RecordColumns(list(map(RawAuthor._make, authors)), list(paths),
                         commit_author, instants, merges, sequences,
                         *(tuple(zip(*rows)) or ((),) * 5), hashes=hashes)


# --- blame extraction ---

_TEXT_BLOB_MODES = ("100644", "100755")

# The empty tree's id in the SHA-1 and the SHA-256 object format, keyed
# by hash length; git knows it without the object being stored.
_EMPTY_TREE = {
    40: "4b825dc642cb6eb9a060e54bf8d69288fbee4904",
    64: "6ef19b41225c5369f1c104d45d8d85efa9b057b53b14b4b9b939dd74decc5321",
}


def _list_text_files(repo_path: str, commit: str, scope: str) -> list[str]:
    """Non-empty regular text files at a commit (a full hash), within a
    scope.

    One diff against the empty tree gives each file's mode (raw entries,
    ":<old mode> <new mode> ...", then the path) and its line count
    (numstat entries, "-" for binary files).
    """
    args = ["diff", "--raw", "--numstat", "-z", "--no-renames",
            _EMPTY_TREE[len(commit)], commit]
    if scope:
        args += ["--", f":(literal){scope}"]  # a prefix, as in `paths_in`
    modes: dict[str, str] = {}
    added: dict[str, str] = {}
    # -z output: a path holding "\n" is whole again once lines are joined
    fields = iter("\n".join(_git(repo_path, *args)).split("\0")[:-1])
    for field in fields:
        if field.startswith(":"):
            modes[next(fields)] = field.split(" ")[1]
        else:
            count, _, rest = field.split("\t", 2)
            added[rest] = count
    return sorted(path for path, mode in modes.items()
                  if mode in _TEXT_BLOB_MODES
                  and added[path] != "-" and int(added[path]) > 0)


def _blame_file(repo_path: str, revision: str, path: str,
                ) -> dict[RawAuthor, int]:
    """Lines owned per author in one file."""
    counts: dict[tuple[str, str], int] = {}
    name = ""
    email = ""
    # An empty --ignore-revs-file clears a configured blame.ignoreRevsFile
    for line in _git(repo_path, "blame", "--line-porcelain",
                     "--ignore-revs-file=", *_DIFF_FLAGS, revision, "--", path):
        if line.startswith("\t"):
            counts[name, email] = counts.get((name, email), 0) + 1
        elif line.startswith("author "):
            name = line[len("author "):]
        elif line.startswith("author-mail <") and line.endswith(">"):
            email = line[len("author-mail <"):-1]
    if ("", "") in counts:
        raise UnsupportedCommit(f"{path}: a line at {revision} has an author "
                                "whose name and email are both empty")
    return {RawAuthor(name=name, email=email): n
            for (name, email), n in counts.items()}


def extract_blame(repo_path: str, revision: str = "HEAD",
                  path_filter: str | None = None,
                  exclude_globs: Sequence[str] = (),
                  replay: LineReplay | None = None) -> BlameSnapshot:
    """Blame every text file at a revision that lies in the directory
    path_filter and matches none of exclude_globs (`paths_in`).

    Returns, per file, the number of lines each raw author owns: a
    line belongs to the author of the commit that last changed it
    (plain blame, no copy/move detection). When the filters leave
    nothing blame-able, the snapshot lists no file.

    A LineReplay that `extract_history` filled at this revision gives
    the owners of each file it proves; `git blame` runs for the other
    files only, in a pool of threads started only for them.
    """
    commit = _commit_of(repo_path, revision)
    scope = normalize_scope(path_filter)
    replayed = (replay.files if replay is not None
                and replay.revision == commit else {})
    with _rejections_of(repo_path, revision):
        listed = _list_text_files(repo_path, commit, scope)
        paths = list(filter(paths_in(scope, exclude_globs), listed))
        owners = {path: dict(Counter(replayed[path]))
                  for path in paths if path in replayed}
        unproven = [path for path in paths if path not in owners]
        if unproven:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=_BLAME_WORKERS) as pool:
                owners.update(zip(unproven, pool.map(
                    lambda p: _blame_file(repo_path, commit, p), unproven)))
    return BlameSnapshot(revision=commit,
                         files={path: owners[path] for path in paths})


# --- path filtering ---

# One token of a path glob: "**/", "**", "*", "?", a character class,
# or any other character. A "]" right after "[" or a negating "!" or "^"
# is a member; a class without its closing "]" is unterminated.
_GLOB_TOKEN = r"(?s)\*\*/|\*\*|\*|\?|\[([!^]?)(\]?[^\]]*)(\]?)|."
# `*` and `?` do not cross `/`; `**` spans directories, and `**/` also
# matches zero directories.
_WILDCARDS = {"**/": r"(?:.*/)?", "**": r".*", "*": r"[^/]*", "?": r"[^/]"}
# A member of a class, or a range of two, as `re` reads a class
_CLASS_ITEM = r"(?s)(.)(?:-(.))?"


def _glob_to_regex(pattern: str) -> re.Pattern:
    """Translate a path glob to a regex; a leading `/` is dropped."""
    if not pattern or pattern.isspace():
        raise InvalidGlob("empty pattern")
    pattern = pattern.lstrip("/")
    out = []
    for token in re.finditer(_GLOB_TOKEN, pattern):
        text, negate, members, close = token.group(0, 1, 2, 3)
        if text in _WILDCARDS:
            out.append(_WILDCARDS[text])
        elif members is not None:
            if not close:
                raise InvalidGlob(
                    f"unterminated character class in {pattern!r}")
            # "!" or "^" negates. Each member is escaped, so that a
            # backslash, "[", "&&" or "--" means only itself to `re`.
            body = "".join(re.escape(lo) + ("-" + re.escape(hi) if hi else "")
                           for lo, hi in re.findall(_CLASS_ITEM, members))
            if members.startswith("]"):  # a member to `re` as written
                body = body[1:]
            out.append("[" + "^" * len(negate) + body + "]")
        else:
            out.append(re.escape(text))
    try:
        return re.compile("^" + "".join(out) + "$")
    except re.error as exc:
        raise InvalidGlob(f"cannot compile pattern {pattern!r}: {exc}")


def normalize_scope(scope: str | None) -> str:
    """A directory scope as a bare repo-relative path; "" is the whole tree.

    "./src/", "/src" and "src" all name "src"; ".", "./" and "/" name
    the whole tree.
    """
    cleaned = (scope or "").strip("/")
    while cleaned.startswith("./"):
        cleaned = cleaned[2:].lstrip("/")
    return "" if cleaned == "." else cleaned


def paths_in(scope: str | None = None,
             exclude_globs: Iterable[str] = ()) -> Callable[[str], bool]:
    """The one rule of which paths are analysed: whether a path lies in
    a directory scope (any spelling `normalize_scope` takes) and matches
    none of the exclusion globs. Raises InvalidGlob for a bad glob."""
    scope = normalize_scope(scope)
    prefix = scope + "/"
    excluded = [_glob_to_regex(pattern) for pattern in exclude_globs]

    def analysed(path: str) -> bool:
        return ((not scope or path == scope or path.startswith(prefix))
                and not (excluded and any(rx.match(path) for rx in excluded)))
    return analysed


def filter_snapshot(blame: BlameSnapshot, scope: str | None = None,
                    exclude_globs: Sequence[str] = ()) -> BlameSnapshot:
    """Restrict a blame snapshot to a directory prefix minus exclusions."""
    analysed = paths_in(scope, exclude_globs)
    return blame.replace(files={path: lines for path, lines
                                in blame.files.items() if analysed(path)})
