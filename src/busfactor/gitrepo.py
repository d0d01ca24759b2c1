"""Extraction of commit history and blame data from a local git clone.

All git access goes through the command-line client, and every git
command runs through one runner, `_git`, which spawns it, decodes its
stdout and checks its exit code. History is read in one streaming
`git log` pass with zero-context patches so that line counts match
`git log --numstat` while the changed lines themselves are available
for tokenization.
"""
from __future__ import annotations

import io
import os
import re
from contextlib import contextmanager
from datetime import datetime, timezone
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import (
    EmptyRepository,
    GitInvocationFailure,
    InvalidGlob,
    NotARepository,
    NoTextFiles,
    UnknownRevision,
)
from .metrics import token_distance, tokenize
from .records import BlameSnapshot, ChangeRecord, CommitMeta, RawAuthor

_FIELD_SEP = "\x01"
_COMMIT_MARK = "\x00"
# Pretty format: NUL marker, then hash/name/email/author-epoch/parents.
_LOG_FORMAT = "%x00%H%x01%an%x01%ae%x01%at%x01%P"

_BLAME_WORKERS = min(8, os.cpu_count() or 1)


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
    with tempfile.TemporaryFile() as stderr:
        try:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr)
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

def _parse_header(line: str, sequence: int) -> CommitMeta:
    hash_, name, email, epoch, parents = line[1:].split(_FIELD_SEP)
    return CommitMeta(hash_, RawAuthor(name, email),
                      datetime.fromtimestamp(int(epoch), tz=timezone.utc),
                      len(parents.split()) > 1, sequence)


def _strip_diff_path(header_line: str) -> str | None:
    # "--- a/path" / "+++ b/path" / "--- /dev/null"; git appends "\t" to
    # names holding a space. It C-quotes names holding '"', '\\' or a
    # control character; under core.quotepath=false it escapes only those
    # ASCII characters, each in an escape that Python string literals share.
    # The "a/" or "b/" prefix is pinned by `extract_history`.
    value = header_line[4:].rstrip("\t")
    if value.startswith('"'):
        import ast
        value = ast.literal_eval(value)
    return None if value == "/dev/null" else value[2:]


def extract_history(repo_path: str, revision: str = "HEAD",
                    include_merges: bool = False) -> Iterator[ChangeRecord]:
    """Yield one ChangeRecord per (commit, modified text file) pair.

    Covers the full history reachable from a revision, oldest first
    (author-date order under topological constraints).
    Merge commits are skipped unless include_merges is set, in which
    case their diff is taken against the first parent. Binary files
    and submodule pointer bumps are skipped.
    """
    commit = _commit_of(repo_path, revision)
    # Colour, path prefixes and the diff algorithm are pinned: `_parse_log`
    # reads plain "a/" and "b/" paths, and the changed lines are the same,
    # whatever the user's diff.noprefix, color.ui or diff.algorithm.
    args = ["log", "--reverse", "--author-date-order", "--no-renames",
            "-p", "-U0", "--no-color", "--src-prefix=a/", "--dst-prefix=b/",
            "--diff-algorithm=myers", f"--pretty=format:{_LOG_FORMAT}",
            "--diff-merges=first-parent" if include_merges else "--no-merges",
            f"{commit}^{{commit}}", "--"]  # a tree's log would be empty
    with _rejections_of(repo_path, revision):
        yield from _parse_log(_git(repo_path, *args))


def _parse_log(lines: Iterable[str]) -> Iterator[ChangeRecord]:
    """Change records from the lines of `git log -p -U0` in _LOG_FORMAT.

    A file section runs from its "diff --git" line to the next one, the
    next commit header or the end of the stream, and gives a record when
    it changed lines of a file that is no submodule (gitlink).
    """
    commit: CommitMeta | None = None
    sequence = 0
    path: str | None = None  # post-image path, unless the file was deleted
    added: list[str] = []
    deleted: list[str] = []
    gitlink = False
    in_hunks = False
    # The trailing "diff --git " ends the last section like any other.
    for line in chain(lines, ["diff --git "]):
        if in_hunks:
            # With -U0 a hunk holds only +/-/backslash lines, so content
            # that looks like "--- x", "+++ y" or "@@" stays content.
            if line.startswith("+"):
                added.append(line[1:])
                continue
            if line.startswith("-"):
                deleted.append(line[1:])
                continue
            if line.startswith(("@@", "\\")):
                continue
            in_hunks = False
        if line.startswith(("diff --git ", _COMMIT_MARK)):
            # A mode-only, empty-file or binary change has no changed lines.
            if path is not None and not gitlink and (added or deleted):
                yield ChangeRecord(commit, path, len(added), len(deleted),
                                   token_distance(tokenize(added),
                                                  tokenize(deleted)))
            path, added, deleted, gitlink = None, [], [], False
            if line.startswith(_COMMIT_MARK):
                commit = _parse_header(line, sequence)
                sequence += 1
        elif line.startswith("@@"):
            in_hunks = True
        # Preamble of a file section (between "diff --git" and first hunk).
        elif line.startswith("--- "):
            path = _strip_diff_path(line)
        elif line.startswith("+++ "):
            path = _strip_diff_path(line) or path
        elif line.endswith(" 160000"):
            # index, new/deleted file mode or old/new mode of a gitlink
            gitlink = True


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
        args += ["--", f":(literal){scope}"]  # a prefix, as in `in_scope`
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
    # An empty --ignore-revs-file clears the user's blame.ignoreRevsFile.
    for line in _git(repo_path, "blame", "--line-porcelain",
                     "--ignore-revs-file=", revision, "--", path):
        if line.startswith("\t"):
            counts[name, email] = counts.get((name, email), 0) + 1
        elif line.startswith("author "):
            name = line[len("author "):]
        elif line.startswith("author-mail <") and line.endswith(">"):
            email = line[len("author-mail <"):-1]
    return {RawAuthor(name=name, email=email): n
            for (name, email), n in counts.items()}


def extract_blame(repo_path: str, revision: str = "HEAD",
                  path_filter: str | None = None) -> BlameSnapshot:
    """Blame every text file at a revision.

    Returns, per file, the number of lines each raw author owns: a
    line belongs to the author of the commit that last changed it
    (plain blame, no copy/move detection). Raises NoTextFiles when the
    filter matches nothing blame-able.
    """
    from concurrent.futures import ThreadPoolExecutor
    commit = _commit_of(repo_path, revision)
    scope = normalize_scope(path_filter)
    with _rejections_of(repo_path, revision):
        paths = _list_text_files(repo_path, commit, scope)
        if not paths:
            detail = f"under {scope!r} " if scope else ""
            raise NoTextFiles(f"no text files {detail}at revision {revision}")
        with ThreadPoolExecutor(max_workers=_BLAME_WORKERS) as pool:
            attributions = list(pool.map(
                lambda p: _blame_file(repo_path, commit, p), paths))
    files = {path: owners
             for path, owners in zip(paths, attributions) if owners}
    if not files:
        raise NoTextFiles(f"no blame-able lines at revision {revision}")
    return BlameSnapshot(revision=commit, files=files)


# --- path filtering ---

def _glob_to_regex(pattern: str) -> re.Pattern:
    """Translate a path glob to a regex.

    `*` and `?` do not cross `/`; `**` spans directories, and a
    leading `**/` also matches zero directories.
    """
    if not pattern or pattern.isspace():
        raise InvalidGlob("empty pattern")
    pattern = pattern.lstrip("/")
    out = []
    i = 0
    n = len(pattern)
    while i < n:
        ch = pattern[i]
        if ch == "*":
            if pattern[i:i + 2] == "**":
                i += 2
                if pattern[i:i + 1] == "/":
                    i += 1
                    out.append(r"(?:.*/)?")  # **/ matches zero or more dirs
                else:
                    out.append(r".*")
            else:
                out.append(r"[^/]*")
                i += 1
        elif ch == "?":
            out.append(r"[^/]")
            i += 1
        elif ch == "[":
            j = i + 1
            if j < n and pattern[j] in "!]":
                j += 1
            while j < n and pattern[j] != "]":
                j += 1
            if j >= n:
                raise InvalidGlob(f"unterminated character class in {pattern!r}")
            cls = pattern[i + 1:j].replace("\\", "\\\\")
            if cls.startswith("!"):
                cls = "^" + cls[1:]
            out.append(f"[{cls}]")
            i = j + 1
        else:
            out.append(re.escape(ch))
            i += 1
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


def in_scope(path: str, scope: str) -> bool:
    """Whether a path lies in a scope from `normalize_scope`."""
    return not scope or path == scope or path.startswith(scope + "/")


def compile_globs(patterns: Iterable[str]) -> list[re.Pattern]:
    return [_glob_to_regex(p) for p in patterns]


def path_matches(path: str, compiled: Sequence[re.Pattern]) -> bool:
    return any(rx.match(path) for rx in compiled)


def filter_snapshot(blame: BlameSnapshot, scope: str | None = None,
                    exclude_globs: Sequence[str] = ()) -> BlameSnapshot:
    """Restrict a blame snapshot to a directory prefix minus exclusions."""
    compiled = compile_globs(exclude_globs)
    scope = normalize_scope(scope)
    files = {path: lines for path, lines in blame.files.items()
             if in_scope(path, scope) and not path_matches(path, compiled)}
    return BlameSnapshot(revision=blame.revision, files=files)
