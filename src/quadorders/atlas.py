"""Grid census: classify Z + n*O_K over rectangles of (d, n) with checkpointed output.

Rows stream to CSV or JSONL in (d, n) order, one checkpoint per task of consecutive d,
so an interrupted scan can resume and produce a byte-identical file.  The scan splits
its fields into tasks, four per worker and at most _TASK_CELLS rows unless one field's
alone is more, and runs them in-process, straight into the file, or on forked workers, at
most one per task: worker k of `jobs` runs tasks k, k + jobs, ... into a spool of its own,
an unlinked file in the output's directory, and the parent copies each task out of its
spool in task order, so the output is independent of the worker count.  Every worker
is killed and waited for when the scan ends, however it ends, and no spool outlives it.
A task sets each of its fields up once, takes its rows, in record order, from classify_field
(under --verify, checked by checked_columns) and renders them through one row template per
field, d, D and h_maximal in place, in segments of at most _SEGMENT_ROWS rows: a process holds
at most a segment's rows, whatever its n window's width; a spool keeps its rows until the scan ends.
On an exception the file is cut back to its last checkpoint.
report and scan --resume read a scan file through one reader, _scan_file: it checks
64 KiB blocks of whole lines by one regex search from line end to line end, built from
the writer's row template, for a line not in that one spelling, and decodes only a
refused line, to name it: read against the same template, literal text first and then
each field's text, it names the line and, past the literal text, the field and its text.
"""

from __future__ import annotations

import json
import os
import re
import signal
import time
from contextlib import ExitStack, contextmanager, nullcontext
from itertools import chain, islice
from math import isqrt
from typing import BinaryIO, Callable, Iterator, NamedTuple, NoReturn

from .arith import InternalConsistencyError, check_window, window_plan
from .classgroup import class_number
from .classify import ClassificationRecord, classify_field
from .oracle import oracle_verdicts
from .pell import FundamentalUnit, fundamental_unit
from .quadfield import FieldContext, make_field

FIELD_NAMES = ClassificationRecord._fields
_COLUMN = {name: i for i, name in enumerate(FIELD_NAMES)}  # a column's index, by name
CSV_HEADER = ",".join(FIELD_NAMES)
_BOOL_FIELDS = ("ideal_preserving", "locally_associated", "associated", "hfd")
_BLOCK_SIZE = 1 << 16  # bytes read, spooled or copied at once; a read block runs on to a line end
_TASK_CELLS = 1 << 14  # rows of a scan task at most, unless one field's alone is more
_SEGMENT_ROWS = 1 << 12  # rows a field is rendered in at a time
_FLAG_WORDS = {"csv": ("0", "1"), "jsonl": ("false", "true")}  # a flag's spelling, by value
_INTEGER = "-?[1-9][0-9]*|0"  # an integer's spelling: no +, space, underscore or leading zero


def _row_template(fmt: str, **fixed: int) -> str:
    """The row spelling of fmt as a template: the fixed fields in place, %d for each other
    integer and %s for each other flag's word.  Field order, separators and keys are here."""
    values = [str(fixed.get(name, "%s" if name in _BOOL_FIELDS else "%d")) for name in FIELD_NAMES]
    if fmt == "csv":
        return ",".join(values)
    return "{%s}" % ",".join(f'"{name}":{x}' for name, x in zip(FIELD_NAMES, values))


_CSV_ROW = _row_template("csv").replace("%s", "%d")  # a bool renders as 0 or 1
# the end of a row whose hfd flag, the last field, is set: the template past its last integer
_HFD_ROW_END = {f: _row_template(f).rpartition("%d")[2] % w[1] + "\n" for f, w in _FLAG_WORDS.items()}


class ScanVerificationError(RuntimeError):
    """An oracle disagreed with a closed-form classification during --verify."""


class ScanFileError(ValueError):
    """A scan file line that is not in the form scan writes: corrupt data, not bad usage."""


class ScanConfig(NamedTuple):
    d_min: int
    d_max: int
    n_max: int
    out: str
    n_min: int = 2
    fmt: str = "csv"
    resume: bool = False
    jobs: int = 1
    verify: bool = False


class Checkpoint(NamedTuple):
    last_d: int
    rows: int
    hfd: int


class ScanSummary(NamedTuple):
    records: int
    hfd: int
    elapsed: float


class HfdReport(NamedTuple):
    total: int
    per_d: dict[int, int]


def record_to_csv_row(rec: tuple) -> str:
    """A record, or a bare row in its field order, as one CSV line without the newline."""
    return _CSV_ROW % rec


def record_to_json_obj(rec: tuple) -> dict:
    """A record, or a bare row in its field order, as a dict keyed by field name."""
    return dict(zip(FIELD_NAMES, rec))


def checked_columns(F: FieldContext, U: FundamentalUnit, row: tuple) -> dict:
    """{name: (row's value in that column, verdict)} for each oracle_verdicts name, row a record
    or a bare row in its column order; the verdict is None at n = 1 or past the bound."""
    verdicts = oracle_verdicts(F, U, row[1])  # the one reader of the verdicts
    return {name: (row[_COLUMN[name]], got) for name, got in verdicts.items()}


def compared(flag: object, verdict: object) -> str:  # in the JSONL spelling, as in a row
    return f"closed-form={json.dumps(flag)} oracle={json.dumps(verdict)}"


def _verified(F: FieldContext, U: FundamentalUnit, rows: Iterator[tuple]) -> Iterator[tuple]:
    """rows, checked by checked_columns: a verdict neither None nor the row's value raises."""
    for row in rows:
        for name, (flag, got) in checked_columns(F, U, row).items():
            if got != flag and got is not None:
                at = f"d={F.d}, n={row[1]}"
                raise ScanVerificationError(f"{name} mismatch at {at}: {compared(flag, got)}")
        yield row


def _scan_one_d(
    d: int, n_min: int, n_max: int, fmt: str, verify: bool
) -> Iterator[tuple[str, int]]:
    """One d's rows in segments of at most _SEGMENT_ROWS newline-ended rows, each with its
    hfd count."""
    F = make_field(d)
    U = fundamental_unit(F)
    h = class_number(F, U).h
    rows = classify_field(F, U, h, n_min, n_max)
    rows = _verified(F, U, rows) if verify else rows
    template, word = _row_template(fmt, d=d, D=F.D, h_maximal=h) + "\n", _FLAG_WORDS[fmt]
    for lo in range(n_min, n_max + 1, _SEGMENT_ROWS):
        segment = "".join([template % (n, m, L, word[ip], word[la], word[assoc], h_order, word[hfd])
                           for _, n, _, m, L, ip, la, assoc, _, h_order, hfd
                           in islice(rows, _SEGMENT_ROWS)])
        # the hfd rows past the n = 1 row, which is not counted
        yield segment, segment.count(_HFD_ROW_END[fmt], segment.index("\n") + 1 if lo == 1 else 0)


def _write_task(task: tuple[list[int], int, int, str, bool], fh: BinaryIO) -> int:
    """Write a task's rows, its fields' segments in d order, to fh; return its hfd count."""
    ds, n_min, n_max, fmt, verify = task
    hfd = 0
    for d in ds:
        for segment, hfd_d in _scan_one_d(d, n_min, n_max, fmt, verify):
            fh.write(segment.encode())
            hfd += hfd_d
    return hfd


def _work(tasks: list[tuple], spool: BinaryIO, fd: int, inherited: list[int]) -> NoReturn:
    """A forked worker's life: it closes the pipe ends it inherited, then writes each of its
    tasks' rows to the end of spool and, once they are flushed, sends the spool's length and
    the task's hfd count, or the exception that ends the run, to fd as one pickle.  It
    leaves by os._exit, so no buffer or exit hook of the parent's runs twice."""
    import pickle  # loaded only where a scan forks

    code = 1
    try:
        for end in inherited:
            os.close(end)
        with open(fd, "wb") as pipe:

            def send(reply: tuple | Exception) -> None:
                pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
                pipe.flush()

            try:
                for task in tasks:
                    hfd = _write_task(task, spool)
                    spool.flush()
                    send((spool.tell(), hfd))
            except Exception as exc:
                send(exc)
        code = 0
    finally:
        os._exit(code)


@contextmanager
def _forked(tasks: list[tuple], jobs: int, out: BinaryIO) -> Iterator[Callable[[int], int]]:
    """A function that writes task i's rows to out and returns its hfd count, called for
    each task in turn, with the tasks run by `jobs` forked workers.

    Before worker k is forked, the parent opens its spool, an unlinked file in out's
    directory, and its pipe.  Worker k runs tasks k, k + jobs, ... into its spool and sends
    a message after each, so no worker waits for the parent to take its rows.  In task i's
    turn the parent reads its worker's next message, raises the exception it may carry, or
    copies the task's bytes, from where that worker's task before ended, out of the spool.
    A worker whose pipe ends first raises RuntimeError naming it and its wait status.  On
    leaving, every worker is killed and waited for, and every spool and pipe is closed.
    """
    import pickle  # both loaded only where a scan forks
    from tempfile import TemporaryFile

    directory = os.path.dirname(os.path.abspath(out.name))
    pids: list[int | None] = []  # worker k's pid, until it is waited for
    spools: list[BinaryIO] = []
    pipes: list[BinaryIO] = []  # worker k's read end
    copied = [0] * jobs  # the bytes of worker k's spool copied so far

    def copy(i: int) -> int:
        k = i % jobs
        try:
            reply = pickle.load(pipes[k])
        except (EOFError, pickle.UnpicklingError):
            pid, status = os.waitpid(pids[k], 0)
            pids[k] = None
            code = os.waitstatus_to_exitcode(status)
            why = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit code {code}"
            raise RuntimeError(
                f"scan worker {k} (pid {pid}) ended before task {i}: wait status {status} ({why})"
            ) from None
        if isinstance(reply, Exception):
            raise reply
        end, hfd = reply
        for at in range(copied[k], end, _BLOCK_SIZE):
            out.write(os.pread(spools[k].fileno(), min(_BLOCK_SIZE, end - at), at))
        copied[k] = end
        return hfd

    with ExitStack() as stack:
        try:
            for k in range(jobs):
                spools.append(stack.enter_context(TemporaryFile(dir=directory, buffering=_BLOCK_SIZE)))
                r, w = os.pipe()
                pipes.append(stack.enter_context(open(r, "rb")))
                try:
                    if (pid := os.fork()) == 0:
                        _work(tasks[k::jobs], spools[k], w, [pipe.fileno() for pipe in pipes])
                finally:
                    os.close(w)
                pids.append(pid)
            yield copy
        finally:
            for pid in pids:
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def checkpoint_path(out: str) -> str:
    return out + ".checkpoint"


def _write_checkpoint(path: str, ck: Checkpoint) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(f"d={ck.last_d}\nrows={ck.rows}\nhfd={ck.hfd}\n")
    os.replace(tmp, path)


def read_checkpoint(path: str) -> Checkpoint:
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        fields = dict(line.split("=", 1) for line in lines if line)
        return Checkpoint(int(fields["d"]), int(fields["rows"]), int(fields["hfd"]))
    except (KeyError, ValueError) as exc:
        raise RuntimeError(f"malformed checkpoint file {path}") from exc


def _squarefree_range(d_min: int, d_max: int) -> list[int]:
    """The squarefree d in [d_min, d_max] other than 0 and 1, by a sieve on the p^2 multiples."""
    keep = bytearray([1]) * (d_max - d_min + 1)
    for p in range(2, isqrt(max(-d_min, d_max, 0)) + 1):  # p^2 <= the window's largest |d|
        q = p * p
        keep[-d_min % q :: q] = bytes(len(range(-d_min % q, len(keep), q)))
    return [d for d, k in zip(range(d_min, d_max + 1), keep) if k and d not in (0, 1)]


def _resume_offset(cfg: ScanConfig, ds: list[int], ck: Checkpoint) -> int:
    """The byte length of cfg.out's checkpointed prefix, read once, a block at a time.

    Resume refuses (ValueError) a file of another format, a checkpoint whose row
    count is not this window's, and a prefix whose first and last rows are not
    (d, n) = (ds[0], n_min) and (ck.last_d, n_max); with the count those pin
    the (d, n) window, so a resumed scan never appends to another window's rows.
    Rows past the checkpoint are neither read nor checked: the scan overwrites them.
    """
    expected = sum(1 for d in ds if d <= ck.last_d) * (cfg.n_max - cfg.n_min + 1)
    with open(cfg.out, "rb") as fh:
        fmt, offset, blocks = _scan_file(fh, ck.rows)
        if fmt != cfg.fmt:
            raise ValueError(f"cannot resume {cfg.out}: it is not a {cfg.fmt} scan file")
        if ck.rows != expected:
            raise ValueError(
                f"cannot resume {cfg.out}: its checkpoint records {ck.rows} rows up to "
                f"d={ck.last_d}, this window has {expected}; resume with the original window"
            )

        def check(row: bytes, lineno: int, cell: tuple[int, int]) -> None:
            if (got := _cell(row)) != cell:
                raise ValueError(
                    f"cannot resume {cfg.out}: line {lineno} holds (d, n) = {got}, "
                    f"not this window's; resume with the original window"
                )

        first_line = 2 if fmt == "csv" else 1
        count = 0
        for block in blocks:
            if not count:
                check(block, first_line, (ds[0], cfg.n_min))
            count += block.count(b"\n")
            offset += len(block)
        if count < ck.rows:
            raise RuntimeError(f"output file {cfg.out} has {count} rows, checkpoint claims {ck.rows}")
        if count:
            last = block[block.rfind(b"\n", 0, -1) + 1 :]
            check(last, first_line + count - 1, (ck.last_d, cfg.n_max))
        return offset


def scan(cfg: ScanConfig) -> ScanSummary:
    t0 = time.perf_counter()
    if cfg.fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {cfg.fmt!r}")
    if cfg.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {cfg.jobs}")
    if cfg.n_min < 1:
        raise ValueError(f"n_min must be >= 1, got {cfg.n_min}")
    # a d window too wide to list, or an n window too large to sieve, is refused by its
    # bounds before a file is touched; an empty window (no squarefree d, or n_min > n_max)
    # scans no d: its file is written with no rows, and a resume refuses a checkpoint of any
    check_window(cfg.d_min, cfg.d_max, "d")
    ds = []
    if cfg.n_min <= cfg.n_max:
        check_window(cfg.n_min, cfg.n_max)
        ds = _squarefree_range(cfg.d_min, cfg.d_max)
    if ds:  # planned here, before a file is touched, so that forked workers inherit the plan
        window_plan(cfg.n_min, cfg.n_max)

    rows_written = 0
    hfd_count = 0
    mode = "w"
    ck_path = checkpoint_path(cfg.out)
    if cfg.resume and os.path.exists(ck_path) and os.path.exists(cfg.out):
        ck = read_checkpoint(ck_path)
        os.truncate(cfg.out, _resume_offset(cfg, ds, ck))
        rows_written, hfd_count = ck.rows, ck.hfd
        ds = [d for d in ds if d > ck.last_d]
        mode = "a"
    elif os.path.exists(ck_path):
        os.remove(ck_path)

    # tasks of consecutive d, each one block and one checkpoint: four per worker, of at
    # most _TASK_CELLS rows unless one field's alone is more; with jobs <= len(ds) there
    # are at least jobs tasks, so at most one worker per task, each forked worker taking
    # every jobs-th task; no d left (an empty or a finished window) is no task and no fork
    jobs, width = min(cfg.jobs, len(ds)), cfg.n_max - cfg.n_min + 1
    size = max(1, min(-(-len(ds) // (4 * jobs)), _TASK_CELLS // width)) if jobs else 1
    tasks = [(ds[i : i + size], cfg.n_min, cfg.n_max, cfg.fmt, cfg.verify)
             for i in range(0, len(ds), size)]
    # a task's rows are written in its turn, and the checkpoint follows them; on an
    # exception the file is cut back to the last checkpoint, so it never holds a part task
    kept = None  # the file's length at its last checkpoint
    try:
        with open(cfg.out, mode + "b") as fh:
            if mode == "w" and cfg.fmt == "csv":
                fh.write(CSV_HEADER.encode() + b"\n")
            fh.flush()
            kept = fh.tell()
            in_process = nullcontext(lambda i: _write_task(tasks[i], fh))
            with _forked(tasks, jobs, fh) if jobs > 1 else in_process as write:
                for i, (task_ds, *_) in enumerate(tasks):
                    hfd_count += write(i)
                    fh.flush()
                    rows_written += len(task_ds) * width
                    _write_checkpoint(ck_path, Checkpoint(task_ds[-1], rows_written, hfd_count))
                    kept = fh.tell()
    except BaseException:
        if kept is not None:
            os.truncate(cfg.out, kept)
        raise
    return ScanSummary(rows_written, hfd_count, time.perf_counter() - t0)


def _bad_line(fmt: str) -> Callable[[bytes], int]:
    """The offset in a block of its first line that is not a row in fmt's one spelling,
    ended by a bare LF, or the block's length if every line is one.

    ROW is the row template scan fills, escaped, with each %s a flag word of fmt and
    each %d an integer spelled as _INTEGER.  The search is for \n(?!ROW\n) in LF + block:
    the literal LF lets the regex engine skip from one line end to the next, and the
    lookahead keeps no backtracking state from one row to the next.
    """
    row = re.escape(_row_template(fmt)).replace("%d", "(?:%s)" % _INTEGER)
    row = row.replace("%s", "(?:%s)" % "|".join(_FLAG_WORDS[fmt]))
    search = re.compile(rb"\n(?!%s\n)" % row.encode()).search
    return lambda block: search(b"\n" + block).start()


def _refuse(line: bytes, lineno: int, fmt: str | None) -> NoReturn:
    """Raise the ScanFileError that names why a refused line is not a row of fmt (None for
    a first line that opens neither format): UTF-8, the bare LF, then the line read against
    _row_template(fmt), as the block search compiles it: the literal text, each field running
    to the next literal, then each field's text, an _INTEGER or a flag word.  A line that
    passes them all contradicts the block search, which refused it."""
    try:
        text = line.decode()
    except UnicodeDecodeError:
        raise ScanFileError(f"line {lineno}: not UTF-8") from None
    if text[-1:] != "\n" or text[-2:-1] in ("\r", ""):  # no LF, CRLF or blank
        why = "blank line" if text == "\n" else "does not end in a bare \\n"
        raise ScanFileError(f"line {lineno}: {why}")
    if fmt is None:
        raise ScanFileError(f"line {lineno}: neither the CSV header nor a JSONL object")
    pieces = re.split("(%[ds])", _row_template(fmt) + "\n")  # literal, kind, ..., kind, literal
    fields, at = [], len(pieces[0])
    for literal in pieces[2::2]:  # the text's one LF ends the last
        end = text.find(literal, at)
        if end < 0 or not text.startswith(pieces[0]):
            raise ScanFileError(f"line {lineno}: not in the spelling scan writes")
        fields.append(text[at:end])
        at = end + len(literal)
    spelled = {"%d": (re.compile(_INTEGER).fullmatch, "a canonical integer"),
               "%s": (_FLAG_WORDS[fmt].__contains__, " or ".join(_FLAG_WORDS[fmt]))}
    for name, kind, field in zip(FIELD_NAMES, pieces[1::2], fields):
        ok, what = spelled[kind]
        if not ok(field):
            raise ScanFileError(f"line {lineno}: field {name} is not {what}: {field!r}")
    raise InternalConsistencyError(f"line {lineno}: refused by the block search, by no line rule")


def _line_at(block: bytes, start: int) -> bytes:
    """The line of block that begins at start, with its LF if it has one."""
    end = block.find(b"\n", start)
    return block[start:] if end < 0 else block[start : end + 1]


def _cell(row: bytes) -> tuple[int, int]:
    """A row's (d, n), from its first two fields: `d,n,...` or `{"d":d,"n":n,...`."""
    d, n, _ = row.split(b",", 2)
    return int(d.rpartition(b":")[2]), int(n.rpartition(b":")[2])


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """fh's bytes as blocks of whole lines: _BLOCK_SIZE bytes at a time (fewer from a pipe),
    completed to the next line end; the last block ends with the file's unended last line,
    if it has one."""
    while block := fh.read(_BLOCK_SIZE):
        yield block + fh.readline()


def _scan_file(fh: BinaryIO, rows: int | None = None) -> tuple[str | None, int, Iterator[bytes]]:
    """A binary scan file's format and header length, from its first line, and its first
    `rows` rows (every row by default) as blocks of whole lines.

    A block whose lines are all rows in the format's one spelling, each ended by a bare
    LF, passes on one search; the first line that is not raises ScanFileError naming it,
    and why, by _refuse.  Lines past `rows` are never checked.  An empty file has no
    format and no rows.
    """
    blocks = _line_blocks(fh)
    first = next(blocks, b"")
    if first[:1] == b"{":  # a JSONL file's first line is its first row
        fmt, head = "jsonl", 0
    elif first.startswith(CSV_HEADER.encode() + b"\n"):
        fmt, head = "csv", len(CSV_HEADER) + 1
    elif first:
        _refuse(_line_at(first, 0), 1, None)
    else:
        return None, 0, iter(())

    def checked(left: int | None) -> Iterator[bytes]:
        bad_line = _bad_line(fmt)
        lineno = 2 if head else 1
        for block in chain([first[head:]], blocks):
            if left == 0:
                return
            lines = block.count(b"\n")
            if left is not None:
                if lines > left:
                    rest = block.split(b"\n", left)[-1]  # what follows the left-th line end
                    block, lines = block[: len(block) - len(rest)], left
                left -= lines
            start = bad_line(block)
            if start < len(block):
                _refuse(_line_at(block, start), lineno + block.count(b"\n", 0, start), fmt)
            if block:
                yield block
            lineno += lines

    return fmt, head, checked(rows)


def report_hfd(path: str) -> HfdReport:
    """Count hfd-true rows with n > 1, with a per-d breakdown, from a scan file."""
    per_d: dict[int, int] = {}
    with open(path, "rb") as fh:
        fmt, _, blocks = _scan_file(fh)
        mark = _HFD_ROW_END.get(fmt, "").encode()
        for block in blocks:
            end = block.find(mark)
            while end >= 0:
                d, n = _cell(block[block.rfind(b"\n", 0, end) + 1 : end])
                if n > 1:
                    per_d[d] = per_d.get(d, 0) + 1
                end = block.find(mark, end + 1)
    return HfdReport(sum(per_d.values()), per_d)
