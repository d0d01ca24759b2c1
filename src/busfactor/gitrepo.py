"""Extraction of commit history and blame data from a local git clone.

All git access goes through the command-line client. History is read
in one streaming `git log` pass with zero-context patches so that line
counts match `git log --numstat` while the changed lines themselves
are available for tokenization.
"""
from __future__ import annotations

import io
import os
import re
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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

if TYPE_CHECKING:
    import subprocess

_FIELD_SEP = "\x01"
_COMMIT_MARK = "\x00"
# Pretty format: NUL marker, then hash/name/email/author-epoch/parents.
_LOG_FORMAT = "%x00%H%x01%an%x01%ae%x01%at%x01%P"

_BLAME_WORKERS = min(8, os.cpu_count() or 1)


def _spawn(repo_path: str, args: Sequence[str], stderr) -> subprocess.Popen:
    """Start one git command with stdout piped as bytes.

    The only place that spawns git: a missing binary (OSError) becomes
    GitInvocationFailure like any failed command. Callers decode, and
    split lines at "\n" only: a lone "\r" or a form feed is part of a
    line in git's output.
    """
    import subprocess
    cmd = ["git", "-C", str(repo_path), "-c", "core.quotepath=false", *args]
    try:
        return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr)
    except OSError as exc:
        raise GitInvocationFailure(" ".join(cmd), -1, str(exc)) from None


def _git(repo_path: str, *args: str, ok_codes: Sequence[int] = (0,)) -> str:
    """Run one git command and return stdout, raising on failure."""
    import subprocess
    proc = _spawn(repo_path, args, subprocess.PIPE)
    stdout, stderr = proc.communicate()
    if proc.returncode not in ok_codes:
        raise GitInvocationFailure(" ".join(args), proc.returncode,
                                   stderr.decode("utf-8", errors="replace"))
    return stdout.decode("utf-8", errors="replace")


def _git_stream(repo_path: str, *args: str) -> Iterator[str]:
    """Stream stdout lines of one git command (newlines stripped).

    stderr goes to a temporary file that is read once git has exited: a
    pipe drained only after stdout ends would block git as soon as its
    warnings filled the pipe.
    """
    import tempfile
    with tempfile.TemporaryFile() as stderr:
        proc = _spawn(repo_path, args, stderr)
        stdout = io.TextIOWrapper(proc.stdout, encoding="utf-8",
                                  errors="replace", newline="\n")
        try:
            for line in stdout:
                yield line.rstrip("\n")
        finally:
            stdout.close()
            returncode = proc.wait()
            if returncode != 0:
                stderr.seek(0)
                raise GitInvocationFailure(
                    " ".join(args), returncode,
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
        return _git(repo_path, "rev-parse", "--verify", "--quiet",
                    f"{revision}^{{commit}}").strip()
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
    source = _git(repo_path, "config", "--get", "remote.origin.url",
                  ok_codes=(0, 1)).strip()
    return f"{source or os.path.abspath(repo_path)}@{commit}"


# --- history extraction ---

def _parse_header(line: str, sequence: int) -> CommitMeta:
    hash_, name, email, epoch, parents = line[1:].split(_FIELD_SEP)
    return CommitMeta(hash_, RawAuthor(name, email),
                      datetime.fromtimestamp(int(epoch), tz=timezone.utc),
                      len(parents.split()) > 1, sequence)


class _FileDiff:
    """Accumulates one file section of a commit's patch."""

    def __init__(self):
        self.old_path: str | None = None
        self.new_path: str | None = None
        self.binary = False
        self.gitlink = False
        self.added: list[str] = []
        self.deleted: list[str] = []

    @property
    def path(self) -> str | None:
        # Post-image path, unless the file was deleted.
        if self.new_path is not None:
            return self.new_path
        return self.old_path

    def to_record(self, commit: CommitMeta) -> ChangeRecord | None:
        if self.binary or self.gitlink or self.path is None:
            return None
        if not self.added and not self.deleted:
            return None  # mode-only or empty-file change
        return ChangeRecord(commit, self.path, len(self.added),
                            len(self.deleted),
                            token_distance(tokenize(self.added),
                                           tokenize(self.deleted)))


def _strip_diff_path(header_line: str, prefix: str) -> str | None:
    # "--- a/path" / "+++ b/path" / "--- /dev/null"; git appends "\t" to
    # names holding a space. It C-quotes names holding '"', '\\' or a
    # control character; under core.quotepath=false it escapes only those
    # ASCII characters, each in an escape that Python string literals share.
    value = header_line[4:].rstrip("\t")
    if value.startswith('"'):
        import ast
        value = ast.literal_eval(value)
    if value == "/dev/null":
        return None
    return value[len(prefix):] if value.startswith(prefix) else value


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
    args = ["log", "--reverse", "--author-date-order", "--no-renames",
            "-p", "-U0", f"--pretty=format:{_LOG_FORMAT}",
            "--diff-merges=first-parent" if include_merges else "--no-merges",
            f"{commit}^{{commit}}", "--"]  # a tree's log would be empty
    with _rejections_of(repo_path, revision):
        yield from _parse_log(_git_stream(repo_path, *args))


def _parse_log(lines: Iterable[str]) -> Iterator[ChangeRecord]:
    """Change records from the lines of `git log -p -U0` in _LOG_FORMAT."""
    commit: CommitMeta | None = None
    current: _FileDiff | None = None
    in_hunks = False
    sequence = 0

    def flush():
        nonlocal current
        record = current.to_record(commit) if current and commit else None
        current = None
        return record

    for line in lines:
        if line.startswith(_COMMIT_MARK):
            record = flush()
            if record:
                yield record
            commit = _parse_header(line, sequence)
            sequence += 1
            in_hunks = False
            continue
        if commit is None:
            continue
        if line.startswith("diff --git "):
            record = flush()
            if record:
                yield record
            current = _FileDiff()
            in_hunks = False
            continue
        if current is None:
            continue
        if line.startswith("@@"):
            in_hunks = True
            continue
        if in_hunks:
            # With -U0 hunk bodies hold only +/-/backslash lines.
            if line.startswith("+"):
                current.added.append(line[1:])
            elif line.startswith("-"):
                current.deleted.append(line[1:])
            continue
        # Preamble of a file section (between "diff --git" and first hunk).
        if line.startswith("--- "):
            current.old_path = _strip_diff_path(line, "a/")
        elif line.startswith("+++ "):
            current.new_path = _strip_diff_path(line, "b/")
        elif line.startswith("Binary files ") or line.startswith("GIT binary patch"):
            current.binary = True
        elif "160000" in line and re.match(
                r"(index \S+ 160000|old mode 160000|new mode 160000"
                r"|new file mode 160000|deleted file mode 160000)", line):
            current.gitlink = True

    record = flush()
    if record:
        yield record


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
    fields = iter(_git(repo_path, *args).split("\0")[:-1])
    for field in fields:
        if field.startswith(":"):
            modes[next(fields)] = field.split(" ")[1]
        else:
            count, _, rest = field.split("\t", 2)
            added[rest] = count
    return sorted(path for path, mode in modes.items()
                  if mode in _TEXT_BLOB_MODES
                  and added[path] != "-" and int(added[path]) > 0)


_AUTHOR_RE = re.compile(r"^author (.*)$")
_MAIL_RE = re.compile(r"^author-mail <(.*)>$")


def _blame_file(repo_path: str, revision: str, path: str,
                ) -> dict[RawAuthor, int]:
    """Lines owned per author in one file."""
    counts: dict[tuple[str, str], int] = {}
    name = ""
    email = ""
    for line in _git(repo_path, "blame", "--line-porcelain", revision,
                     "--", path).split("\n"):
        if line.startswith("\t"):
            counts[name, email] = counts.get((name, email), 0) + 1
            continue
        m = _AUTHOR_RE.match(line)
        if m:
            name = m.group(1)
            continue
        m = _MAIL_RE.match(line)
        if m:
            email = m.group(1)
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
