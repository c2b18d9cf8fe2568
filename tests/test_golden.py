"""Golden output: the scan of a fixed window must stay byte-identical.

The digests were recorded from the scanner before the field arithmetic was
consolidated; any change to them is a change of output and needs a
documented reason.
"""

import hashlib

import pytest

from quadorders import ScanConfig, scan

WINDOW = dict(d_min=-199, d_max=199, n_min=1, n_max=300)
ROWS = 72_900
HFD = 497
DIGESTS = {
    "csv": "7cd6ee5c7926a095618498bd2e5a0ca3c0270151746ed7c1a9770918ebed6c8d",
    "jsonl": "5987e6bdf4679e37afdd31c0037fb2517e4e16fdcaf23139c9d271adf338eaaf",
}


@pytest.mark.parametrize("fmt", sorted(DIGESTS))
def test_golden_window_digest(tmp_path, fmt):
    out = tmp_path / f"golden.{fmt}"
    summary = scan(ScanConfig(out=str(out), fmt=fmt, **WINDOW))
    assert (summary.records, summary.hfd) == (ROWS, HFD)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[fmt]
