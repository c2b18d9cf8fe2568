"""Output checks shared by the measured loop and the replays."""

from __future__ import annotations

import hashlib


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_checkpoint(path: str) -> dict[str, int]:
    with open(path) as fh:
        return {k: int(v) for k, v in (line.split("=", 1) for line in fh.read().split())}


def check_output(w, block, path, expected, rows, hfd, report_total) -> list[str]:
    """Problems with one block's output file, or [] when it is right.

    The file must hash to the digest recorded for the block, hold one row per
    cell, and report_hfd must read back the half-factorial count the writer
    counted.
    """
    problems = []
    if rows != w.cells(block):
        problems.append(f"{rows} rows, expected {w.cells(block)}")
    if report_total != hfd:
        problems.append(f"report_hfd total {report_total} != scan hfd {hfd}")
    digest = sha256(path)
    if digest != expected[f"{block[0]},{block[1]}"]:
        problems.append(f"output sha256 {digest} differs from the recorded digest")
    return problems


def check_scan(w, block, path, expected, summary, report) -> list[str]:
    """check_output for a file written by scan, plus its final checkpoint."""
    problems = check_output(w, block, path, expected, summary.records, summary.hfd, report.total)
    ck = read_checkpoint(path + ".checkpoint")
    want = {"d": w.fields(block)[-1], "rows": summary.records, "hfd": summary.hfd}
    if ck != want:
        problems.append(f"checkpoint {ck}, expected {want}")
    return problems
