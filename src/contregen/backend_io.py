"""All file and network I/O: data-file readers, the atomic writer, the
append-only JSONL cache, and POST with bounded retries. Corpora, query sets,
article dumps, fixture tables, traces, config files and prompt templates are
read, and every output written, only here; a bad input file is a DataError
naming it (``path:line``, counting blank lines, for JSONL), as is one that is
missing, a directory, unreadable or not UTF-8. Callers check the shape of
each record.

A JSONL file is read a block of lines at a time (``read_jsonl_blocks``). A
well-formed line, ASCII without a ``\\u`` escape and holding one JSON object
that ends at its newline, costs one call of the decoder's C scanner; any
other line is read by ``jsonl_record``, the per-line contract that
``read_jsonl`` applies to every line.

Every other parse goes through ``_parse_json``: a JSONL line outside that
form, a cache line, a snapshot and a whole JSON file alike. It is
``json.loads``, except that a value nested deeper than the recursion limit,
or an integer longer than Python converts, is a ValueError like any other
bad JSON, and so a data error naming its file; the long integer's message
keeps its digit counts and drops json.loads's advice to call
``sys.set_int_max_str_digits``, which a data file's author cannot follow.

Both caches key their entries with ``JsonlCache.digest``, the sha256 of the
JSON array of the key parts, written without building a JSON encoder.
``JsonlCache.digest_prefix`` binds a key's leading parts and a known head of
its last part once, and returns a key function that hashes only the rest.

Each cache file may have a snapshot beside it (``llm.jsonl.snapshot``): the
file's length and sha256 and the entries of exactly those bytes, which a
cache takes instead of parsing the file when both still match.

``requests`` is imported only when a POST is made, so a run that calls no
network backend never loads it."""

from __future__ import annotations

import contextlib
import errno
import fcntl
import hashlib
import json
import logging
import os
import stat
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, BinaryIO, Callable, Iterator, Optional, TextIO

from contregen.errors import CacheCorruptionError, DataError, MalformedRecordError, ReplayMissError

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)


def _open_text(path: str | Path, what: str, newline: Optional[str] = None,
               missing_ok: bool = False):
    """path opened as UTF-8 text, bytes that are not UTF-8 escaped (see
    _strict_utf8); what names the file in errors. A missing file is None
    when missing_ok, else a DataError."""
    try:
        return open(path, "r", encoding="utf-8", errors="surrogateescape",
                    newline=newline)
    except FileNotFoundError:
        if missing_ok:
            return None
        raise DataError(f"{what} not found: {path}")
    except OSError as exc:  # a directory, no read permission, ...
        raise DataError(f"cannot read {what} {path}: {exc.strerror}")


def _strict_utf8(text: str) -> str:
    """text read with errors="surrogateescape", checked: UnicodeDecodeError
    if it held bytes that are not UTF-8. Costs nothing on ASCII text."""
    if not text.isascii():
        text.encode("utf-8", "surrogateescape").decode("utf-8")
    return text


_scan_once = json.JSONDecoder().scan_once  # the scanner json.loads runs, with its defaults
_ascii_json_str = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it


def _key_text(parts) -> str:
    """The JSON array of a cache key's parts, as json.dumps(list(parts),
    ensure_ascii=True) writes it (see JsonlCache.digest)."""
    material = ", ".join([
        _ascii_json_str(part) if type(part) is str
        else int.__repr__(part) if type(part) is int
        else json.dumps(part) for part in parts])
    return f"[{material}]"


def _parse_json(text: str):
    """json.loads(text): the same value, or the same error. A value nested
    deeper than the recursion limit is a ValueError too, not a RecursionError,
    and an integer longer than Python converts keeps json.loads's message up to
    "value has N digits", without its advice to call sys.set_int_max_str_digits."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nested too deeply") from None
    except ValueError as exc:
        message, advice, _ = str(exc).partition("; use sys.set_int_max_str_digits()")
        if not advice:
            raise
        raise ValueError(message) from None


def jsonl_record(path: str | Path, line_no: int, line: str,
                 required: AbstractSet[str]) -> Optional[dict]:
    """The object on line line_no of a JSONL file, or None when the line is
    blank; a line that is not a JSON object carrying every required key is a
    MalformedRecordError."""
    if line.isspace():  # a line is never empty, so this is `not line.strip()`
        return None
    try:
        record = _parse_json(_strict_utf8(line))
    except UnicodeDecodeError as exc:
        raise MalformedRecordError(str(path), line_no, f"not UTF-8 text ({exc.reason})")
    except ValueError as exc:  # too deep or too long is no JSONDecodeError
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        raise MalformedRecordError(str(path), line_no, f"invalid JSON ({reason})")
    if not isinstance(record, dict) or not record.keys() >= required:
        raise MalformedRecordError(str(path), line_no, (
            f"record must carry {' and '.join(sorted(required))}" if required
            else "record must be a JSON object"))
    return record


# The characters read_jsonl_blocks reads per block, about: a few lines. Blocks
# of 64 KB were no faster, and kept more parsed objects alive at once.
_JSONL_BLOCK = 1 << 12


def read_jsonl_blocks(path: str | Path) -> Iterator[tuple[int, list[str], list[Optional[dict]]]]:
    """A JSONL file a block of lines at a time: the first line's number, the
    lines, and for each line its object when the line is well-formed, else
    None. A well-formed line is ASCII without a \\u escape, so no string in
    its object holds a NUL or a character beyond ASCII, and holds a JSON
    object that ends at the line's "\\n"; it costs one scanner call, and its
    object is the one jsonl_record gives when it carries the required keys.
    A caller reads each other line through jsonl_record, in order, so no
    line's error comes before those of the lines above it."""
    scan = _scan_once
    with _open_text(path, "input file") as fh:
        first = 1
        while lines := fh.readlines(_JSONL_BLOCK):
            records: list[Optional[dict]] = []
            for line in lines:
                record = None
                # a one-character search first: it is far cheaper than "\\u" in line
                if line.isascii() and ("\\" not in line or "\\u" not in line):
                    try:
                        value, end = scan(line, 0)
                    except (StopIteration, ValueError, RecursionError):
                        pass  # jsonl_record gives the error
                    else:
                        if end == len(line) - 1 and line[end] == "\n" and type(value) is dict:
                            record = value
                records.append(record)
            yield first, lines, records
            first += len(lines)


def read_jsonl(path: str | Path,
               required: AbstractSet[str] = frozenset()) -> Iterator[tuple[int, dict]]:
    """(physical line number, object) for each nonblank line of a JSONL file; a line
    that is not a JSON object carrying every required key is a MalformedRecordError."""
    for first, lines, records in read_jsonl_blocks(path):
        for line_no, record in enumerate(records, first):
            if record is None or not record.keys() >= required:
                record = jsonl_record(path, line_no, lines[line_no - first], required)
            if record is not None:
                yield line_no, record


def read_text(path: str | Path, what: str) -> str:
    """The whole of a UTF-8 text file; what names the file in errors."""
    with _open_text(path, what) as fh:
        text = fh.read()
    try:
        return _strict_utf8(text)
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8 text ({exc.reason})")


def read_json(path: str | Path, what: str):
    """The JSON value of a whole file; what names the file in errors."""
    try:
        return _parse_json(read_text(path, what))
    except ValueError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}")


@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose contents replace path when the block ends
    without an error: it writes a temporary sibling, renamed over path then, and
    removed on any failure, creating parent directories. A target that exists
    and is not a regular file (/dev/stdout, a FIFO, a symlink) is written in
    place, as far as the block got: a rename would replace it. An OSError in
    the block, or a path that cannot be written, is a DataError naming it."""
    path = Path(path)
    try:
        if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
            with open(path, "w", encoding="utf-8") as fh:
                yield fh
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except FileExistsError:  # the parent is a regular file, not a directory
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR)) from None
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:  # a directory, a path through a regular file, a full disk, ...
        raise DataError(f"cannot write output file {path}: {exc.strerror}") from exc


def atomic_write(path: str | Path, text: str) -> None:
    """Write text to path through atomic_writer."""
    with atomic_writer(path) as fh:
        fh.write(text)


# The read size of a cache file hashed to check its snapshot, or searched
# back for the start of its last line.
_CHUNK = 1 << 20


def _last_line_start(fh: BinaryIO, end: int) -> int:
    """Where the last line of fh, a file of end bytes, starts: end itself
    when the file is empty or ends with a newline."""
    pos, step = end, 1  # the last byte alone first: almost always a newline
    while pos:
        step = min(pos, step)
        fh.seek(pos - step)
        newline = fh.read(step).rfind(b"\n")
        if newline >= 0:
            return pos - step + newline + 1
        pos -= step
        step = _CHUNK
    return 0


def _is_torn(line: bytes) -> bool:
    """Whether an unterminated last line is an append cut short: neither
    blank nor JSON, as a cache's load reads it."""
    try:  # UnicodeDecodeError is a ValueError
        text = line.decode("utf-8")
        if not text.isspace():
            _parse_json(text)
    except ValueError:
        return True
    return False


class JsonlCache:
    """Append-only JSONL file of {"key", <context fields>, <value field>} lines.

    A key is appended at most once. A missing file is created by the first
    append; one that cannot be read (a directory, a path through a regular
    file) is a DataError naming it. A bad line inside the file is a hard
    error; an unterminated final line that does not parse as JSON (an append
    cut short) is dropped with a warning, while one that parses but holds a
    bad entry is a hard error too.
    Subclasses give the key function, which passes its key parts to digest,
    and the record shape: the value field, its decoder (which rejects a
    value of the wrong type) and the replay-miss message; the caller of
    lookup gives the context fields recorded beside the value. A strict
    cache (replay) never computes: a miss is a ReplayMissError. An append
    that cannot be written, or that waits LOCK_WAIT_S for another writer's
    lock, is a DataError naming the file, and the entry is not kept.

    A snapshot beside the file (its name plus ".snapshot") is ASCII JSON of
    {"bytes", "sha256", "entries"}: a byte length, the sha256 of that many
    bytes, and the {key: value} entries a full parse of those bytes gives.
    The load takes the entries from it, through decode like a line's, when
    the file has exactly that length and digest; a snapshot that is missing,
    stale, unreadable or bad in any way is passed over for the full parse.
    Only a non-strict cache writes one, at close(), when its entries are not
    those of a valid snapshot (it appended, or it parsed the file). It
    describes the bytes this cache kept of what it read, then appended,
    hashed as they went; a cut puts the file back to those bytes. So an
    append by another writer makes it match no file, and deleting it costs
    one full parse.

    The first put opens the file for appending and keeps the handle until
    close(), or until an append fails, when the next put opens it again.
    Each append holds an exclusive ``flock`` on the file while it writes, so
    no other writer that locks is inside an append then, and it decides from
    the file as it finds it under the lock: an unterminated last line that
    parses (or is blank) gets a newline before the new line, and one that
    does not (another writer's append, cut short by a crash) is cut off
    first. The line is flushed before the lock is released; a write that
    fails truncates the file back to where it began, under the same lock, and
    whatever of it a failed truncate leaves is cut off by the next append.
    The lock is advisory, and a network file system may not honour it.
    """

    value_field: str
    decode: Callable[[object], object]
    miss_message: str  # formatted with the context fields

    def __init__(self, path: str | Path, strict: bool = False) -> None:
        self.path = Path(path)
        self.strict = strict
        self._entries: dict[str, object] = {}
        self._lock = threading.Lock()
        # key -> [its lock, the callers holding or waiting for it] while a miss computes
        self._flights: dict[str, list] = {}
        self._fh: Optional[BinaryIO] = None  # the append handle, opened by the first put
        self._snapshot = self.path.with_name(f"{self.path.name}.snapshot")
        # The length of the bytes this cache kept and appended, and their
        # sha256, for the snapshot close() writes; neither for a strict cache.
        self._hash = None if strict else hashlib.sha256()
        self._size = 0
        self._snapshot_due = False  # the entries are not those of a valid snapshot
        self._load()

    def _load(self) -> None:
        fh = _open_text(self.path, "cache file", newline="\n", missing_ok=True)
        if fh is None:
            return
        with fh:
            if not self._load_snapshot(fh.buffer):
                fh.seek(0)
                self._parse(fh)

    def _load_snapshot(self, raw) -> bool:
        """Whether the entries came from a snapshot of exactly the bytes of
        raw, the cache file opened for reading; on False nothing is set."""
        try:
            snapshot = read_json(self._snapshot, "cache snapshot")
        except DataError:  # missing, unreadable, not JSON
            return False
        size = os.fstat(raw.fileno()).st_size
        if not (isinstance(snapshot, dict) and isinstance(snapshot.get("entries"), dict)
                and snapshot.get("bytes") == size):
            return False
        hasher = hashlib.sha256()
        while chunk := raw.read(_CHUNK):
            hasher.update(chunk)
        if hasher.hexdigest() != snapshot.get("sha256"):
            return False
        decode = self.decode
        try:
            self._entries = {key: decode(value) for key, value in snapshot["entries"].items()}
        except (ValueError, TypeError):
            return False
        if self._hash is not None:
            self._hash, self._size = hasher, size
        return True

    def _parse(self, fh: TextIO) -> None:
        """Load every line of fh, the cache file, counting and hashing the
        bytes of each line it keeps for the snapshot when this cache may write
        one. A torn final line is neither kept nor counted; the next append
        cuts it off."""
        hasher = self._hash
        self._snapshot_due = True
        for line_no, line in enumerate(fh, start=1):
            if not line.isspace():
                try:  # UnicodeDecodeError is a ValueError
                    entry = _parse_json(_strict_utf8(line))
                except ValueError as exc:
                    if line.endswith("\n"):
                        raise CacheCorruptionError(
                            f"{self.path}:{line_no}: unreadable cache entry ({exc})")
                    logger.warning("%s:%d: dropping torn final line", self.path, line_no)
                    return
                try:  # an append cut short never parses, so this line is whole
                    key = entry["key"]
                    if not isinstance(key, str):  # no lookup could reach it
                        raise TypeError(f"key {key!r} is not a string")
                    self._entries[key] = self.decode(entry[self.value_field])
                except (ValueError, KeyError, TypeError) as exc:
                    raise CacheCorruptionError(
                        f"{self.path}:{line_no}: unreadable cache entry ({exc})")
            if hasher is not None:
                data = line.encode("utf-8", "surrogateescape")
                self._size += len(data)
                hasher.update(data)

    @staticmethod
    def digest(*parts) -> str:
        """The sha256 hex digest of json.dumps(list(parts), ensure_ascii=True),
        the one definition of both caches' keys. A str or a plain int part is
        written directly (encode_basestring_ascii, int.__repr__), which gives
        the text json.dumps gives without building an encoder per call; a part
        of any other type, such as a bool or a str subclass, is written by
        json.dumps itself, so no key can change."""
        return hashlib.sha256(_key_text(parts).encode()).hexdigest()

    @staticmethod
    def digest_prefix(*parts) -> Callable[[object], str]:
        """key, where key(last) is digest(*parts[:-1], last), hashing the str
        head parts[-1] once, here: a plain str last part that starts with it
        has only its rest escaped and hashed (JSON escapes a str one character
        at a time, so the digest is the same); any other is hashed whole."""
        *leading, head = parts
        state = hashlib.sha256(_key_text(parts)[:-2].encode())  # up to the head's closing quote
        def key(last) -> str:
            if type(last) is not str or not last.startswith(head):
                return JsonlCache.digest(*leading, last)
            hasher = state.copy()
            hasher.update(f"{_ascii_json_str(last[len(head):])[1:]}]".encode())
            return hasher.hexdigest()
        return key

    def get(self, key: str):
        return self._entries.get(key)

    def put(self, key: str, value, **context):
        """The value the cache holds for key: value, appended with the context
        fields beside it, or an earlier put's value when that one landed first."""
        with self._lock:
            if key in self._entries:
                return self._entries[key]
            # a lone surrogate cannot be UTF-8; it can stand only inside a
            # JSON string, where backslashreplace writes it as its \u escape
            data = json.dumps({"key": key, **context, self.value_field: value},
                              ensure_ascii=False).encode("utf-8", "backslashreplace") + b"\n"
            try:
                if self._fh is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._fh = self.path.open("a+b")
                data = self._append(self._fh, data)
            except BaseException as exc:
                # closing the handle releases the lock, after any bytes it still buffers
                self._drop_handle()
                if not isinstance(exc, OSError):
                    raise
                # a directory, a full disk, no write permission, ...
                raise DataError(f"cannot write cache file {self.path}: {exc.strerror}") from exc
            self._entries[key] = value
            if self._hash is not None:  # the bytes the handle wrote
                self._hash.update(data)
                self._size += len(data)
                self._snapshot_due = True
            return value

    @staticmethod
    def _append(fh: BinaryIO, data: bytes) -> bytes:
        """Append data, one line, to fh, the append handle, under an exclusive
        flock, after ending or cutting off an unterminated last line; the bytes
        written. Waiting LOCK_WAIT_S for the lock is a TimeoutError, and a write
        that fails is truncated off before its OSError propagates; on an error
        the caller closes fh, which releases the lock."""
        deadline = time.monotonic() + LOCK_WAIT_S
        while True:  # one flock call when no other writer holds the lock
            with contextlib.suppress(BlockingIOError):
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            if time.monotonic() >= deadline:
                raise TimeoutError(errno.ETIMEDOUT,
                                   f"another writer held its lock for {LOCK_WAIT_S:g} s")
            time.sleep(0.01)
        end = fh.seek(0, os.SEEK_END)
        start = _last_line_start(fh, end)
        if start < end:  # no writer is inside an append, so this line is whole or torn
            fh.seek(start)
            if _is_torn(fh.read(end - start)):
                fh.truncate(start)
                end = start
            else:
                data = b"\n" + data
        try:
            fh.write(data)
            fh.flush()
        except OSError:
            with contextlib.suppress(OSError):  # else the next append cuts it off
                fh.truncate(end)
            raise
        fcntl.flock(fh, fcntl.LOCK_UN)
        return data

    def _drop_handle(self) -> None:
        """Close the append handle, if open, under the caller's lock, which
        also releases its file lock. Every landed line was flushed, so a close
        that fails loses nothing."""
        fh, self._fh = self._fh, None
        if fh is not None:
            with contextlib.suppress(OSError):
                fh.close()

    def close(self) -> None:
        """Close the append handle, and write the snapshot if one is due; a
        later put opens the file again."""
        with self._lock:
            self._drop_handle()
            if self._snapshot_due and self._hash is not None:
                self._snapshot_due = False
                snapshot = {"bytes": self._size, "sha256": self._hash.hexdigest(),
                            "entries": self._entries}
                with contextlib.suppress(DataError):  # a shortcut only: the file has it all
                    atomic_write(self._snapshot, json.dumps(snapshot))

    def lookup(self, key: str, context: dict, compute: Callable, *args):
        """The cached value for key. On a miss a strict cache raises
        ReplayMissError; otherwise compute(*args) is put, with the context
        fields beside it, and returned. Concurrent misses on one key compute
        once: the first caller computes while the others wait, then return
        the value it kept; if its computation raises, the next one computes."""
        value = self.get(key)
        if value is not None:
            return value
        if self.strict:
            raise ReplayMissError(self.miss_message.format(**context))
        with self._lock:
            flight = self._flights.setdefault(key, [threading.Lock(), 0])
            flight[1] += 1
        try:
            with flight[0]:
                value = self._entries.get(key)  # not self.get, which tracers count per lookup
                if value is None:
                    value = self.put(key, compute(*args), **context)
                return value
        finally:
            with self._lock:
                flight[1] -= 1
                if not flight[1]:
                    del self._flights[key]


# The longest a cache put waits for another writer's lock on the file.
LOCK_WAIT_S = 10.0

# Attempts a backend call makes before it fails, and the longest sleep a
# Retry-After header can ask for, so that a call's sleeps stay bounded by
# (ATTEMPTS - 1) times this.
ATTEMPTS = 3
RETRY_AFTER_MAX_S = 10.0


def _retry_after_s(value: Optional[str]) -> Optional[float]:
    """The wait a Retry-After header value asks for, in seconds (delta-seconds
    or an HTTP date); None when absent or unparseable."""
    if value is None:
        return None
    value = value.strip()
    if value.isdigit():
        return float(value)
    import email.utils  # deferred like requests: only a throttled POST needs it

    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    return when.timestamp() - time.time()


def post_with_retries(session: requests.Session, url: str, payload: dict, headers: dict,
                      timeout: float,
                      error: Callable[[str], Exception]) -> requests.Response:
    """The first HTTP 200 response to a JSON POST. Connection errors and HTTP
    429, 500, 502, 503 and 504 are retried, ATTEMPTS attempts in all, sleeping
    0.5 s, 1 s, 2 s, ... between them, and any other status fails at once; a
    429 or 503 carrying Retry-After sleeps what it asks instead, at most
    RETRY_AFTER_MAX_S. On failure raises error(reason of the last attempt)."""
    import requests  # deferred: only network backends pay for loading it

    reason = "no attempt made"
    for attempt in range(ATTEMPTS):
        if attempt:
            time.sleep(delay)
        delay = 0.5 * 2 ** attempt
        try:
            response = session.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            reason = str(exc)
            continue
        if response.status_code == 200:
            return response
        reason = f"HTTP {response.status_code}"
        if response.status_code not in (429, 500, 502, 503, 504):
            break
        if response.status_code in (429, 503):
            asked = _retry_after_s(response.headers.get("Retry-After"))
            if asked is not None:
                delay = min(max(asked, 0.0), RETRY_AFTER_MAX_S)
    raise error(reason)


__all__ = ["JsonlCache", "atomic_write", "atomic_writer", "jsonl_record", "post_with_retries",
           "read_json", "read_jsonl", "read_jsonl_blocks", "read_text"]
