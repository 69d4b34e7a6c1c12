"""The benchmark's tracer counts one CSV item per data row.

``perfbench/tracing.py`` wraps ``iter_csv_stream`` where ``driftmon.cli``
and ``driftmon.datastreams`` look it up, and counts one item per yield;
its ``datastreams.iter_csv_stream.rows_per_s`` is right only while the
reader yields one row at a time, however many rows it parses at once.
"""

import importlib.util
from pathlib import Path

import numpy as np

import driftmon.cli
from driftmon.datastreams import BLOCK_BYTES
from driftmon.seeding import rng_from

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_the_tracer_counts_one_item_per_csv_row(tmp_path):
    path = tmp_path / "stream.csv"
    rng = rng_from(8)
    x = rng.standard_normal((3000, 8))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("f1,f2,f3,f4,f5,f6,f7,f8,label\n")
        for row, label in zip(x.tolist(), rng.integers(1, 4, 3000).tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")
    assert path.stat().st_size > 2 * BLOCK_BYTES

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rows = list(driftmon.cli.iter_csv_stream(path))
        stream = driftmon.cli.read_csv_stream(path)
    finally:
        tracer.uninstall()
    assert len(rows) == len(stream) == 3000
    assert np.array_equal(stream.x, x)
    stats = tracer.stats["datastreams.iter_csv_stream"]
    assert sum(stats.items.values()) == 2 * 3000
