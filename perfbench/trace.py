"""Bench-side tracing: spans recorded around calls into each layer.

Nothing here changes what a layer computes.  The wrappers time the
call, count what it did, and append one JSON line per span to
``$PERFBENCH_TRACE_DIR/spans-<pid>.jsonl`` when the call returns (the
extractor buffers its per-page spans and writes them with its batch
span).  Ray workers inherit the environment variable; every record is
on disk before the call's output reaches the driver, so the driver can
read a repetition's spans as soon as that repetition's output is
consumed.

Timestamps are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so spans from different processes share
one timeline.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import re
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc

from medical_and_charity_document_extraction_system_ray.pipelines import extraction
from medical_and_charity_document_extraction_system_ray.schema import KIND_HTML
from medical_and_charity_document_extraction_system_ray.stages import (
    SpanExtractor,
    classify_and_explode,
    reassemble_table,
)

TRACE_ENV = "PERFBENCH_TRACE_DIR"


def _emit(records: list[dict]) -> None:
    path = os.path.join(os.environ[TRACE_ENV], f"spans-{os.getpid()}.jsonl")
    with open(path, "a") as f:
        f.write("".join(json.dumps(r) + "\n" for r in records))


def _span(name: str, t0: float, **fields) -> dict:
    return {"name": name, "t0": t0, "t1": time.perf_counter(), "pid": os.getpid(), **fields}


def traced(name: str, fn, counts=None):
    """``fn`` with a span per call; ``counts(args, result)`` adds fields."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        _emit([_span(name, t0, **(counts(args, out) if counts else {}))])
        return out

    # keeps Ray Data's operator names ("MapBatches(classify_and_explode)")
    wrapper.__name__ = fn.__name__
    return wrapper


def _classify_counts(args, out: pa.Table) -> dict:
    return {"rows_out": len(out)}


def _reassemble_counts(args, out: pa.Table) -> dict:
    # the input is one shuffle group: a doc_id bucket under
    # extract_documents, a checkpoint partition under the commit stage
    return {"rows_in": len(args[0]), "bytes_in": args[0].nbytes}


def traced_data_writer(writer):
    """A checkpoint ``data_writer`` that also records the bytes written."""

    def write(data: pa.Table, tmp_dir: str) -> list[str]:
        t0 = time.perf_counter()
        names = writer(data, tmp_dir)
        nbytes = sum(os.path.getsize(os.path.join(tmp_dir, n)) for n in names)
        _emit([_span("state.checkpoint.write", t0, bytes=nbytes)])
        return names

    return write


class TracedSpanExtractor(SpanExtractor):
    """``SpanExtractor`` whose engine and resolver calls are timed.

    The wrappers replace the instance attributes only; the class and
    its batch logic are the library's."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending: list[dict] = []
        self._batch_id = None
        self.engine.process_image = self._timed("engines.band", self.engine.process_image)
        self.resolver.resolve = self._timed("sources.resolve", self.resolver.resolve)

    def _timed(self, name: str, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                self._pending.append(_span(name, t0, parent=self._batch_id, ok=ok))

        return call

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        self._batch_id = f"{os.getpid()}:{t0}"
        out = super().__call__(batch)
        slow = pc.or_(batch["is_scanned"], pc.equal(batch["kind"], KIND_HTML))
        record = _span(
            "stages.extract",
            t0,
            id=self._batch_id,
            rows=len(batch),
            slow_rows=pc.sum(slow).as_py() or 0,
            error_rows=len(out) - (pc.sum(out["success"]).as_py() or 0),
        )
        _emit(self._pending + [record])
        self._pending = []
        return out


@contextlib.contextmanager
def traced_pipeline():
    """Route ``pipelines.extraction`` through the traced stages.

    ``extract_spans``/``extract_documents`` look these names up in their
    module at call time, so the plans they build carry the wrappers."""
    saved = (
        extraction.classify_and_explode,
        extraction.SpanExtractor,
        extraction.reassemble_table,
    )
    extraction.classify_and_explode = traced(
        "stages.classify", classify_and_explode, _classify_counts
    )
    extraction.SpanExtractor = TracedSpanExtractor
    extraction.reassemble_table = traced_reassemble()
    try:
        yield
    finally:
        (
            extraction.classify_and_explode,
            extraction.SpanExtractor,
            extraction.reassemble_table,
        ) = saved


def traced_reassemble():
    return traced("stages.reassemble", reassemble_table, _reassemble_counts)


def drain(trace_dir: str) -> list[dict]:
    """Read and remove every span written so far."""
    records = []
    for path in glob.glob(os.path.join(trace_dir, "spans-*.jsonl")):
        with open(path) as f:
            records.extend(json.loads(line) for line in f)
        os.remove(path)
    return records


_UNIT_S = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP = re.compile(r"^\s*(?:Operator|Suboperator) \d+ (\S+?)(?:->\S*)?:")
_WALL = re.compile(r"Remote wall time: .*?([\d.]+)(ns|us|ms|s) total")


def op_wall_s(stats: str, prefix: str) -> float:
    """Total remote wall time of the operators whose name starts with
    ``prefix`` in ``Dataset.stats()`` output (sub-operators included)."""
    total, current = 0.0, ""
    for line in stats.splitlines():
        m = _OP.match(line)
        if m:
            current = m.group(1)
            continue
        m = _WALL.search(line)
        if m and current.startswith(prefix):
            total += float(m.group(1)) * _UNIT_S[m.group(2)]
    return total


def _p50_ms(spans: list[dict]) -> float:
    return 1e3 * statistics.median(s["t1"] - s["t0"] for s in spans) if spans else 0.0


def layer_metrics(records: list[dict], window_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced repetition whose timed job took
    ``window_s`` seconds."""
    by = {}
    for r in records:
        by.setdefault(r["name"], []).append(r)
    dur = lambda rs: sum(r["t1"] - r["t0"] for r in rs)  # noqa: E731
    engine = by.get("engines.band", [])
    resolve = by.get("sources.resolve", [])
    extract = by.get("stages.extract", [])
    classify = by.get("stages.classify", [])
    reassemble = by.get("stages.reassemble", [])
    writes = by.get("state.checkpoint.write", [])

    busy = dur(extract)
    actors = len({r["pid"] for r in extract})
    task_s = [r["t1"] - r["t0"] for r in extract]
    group_rows = [r["rows_in"] for r in reassemble]
    return {
        "engines.band.ms_p50": _p50_ms(engine),
        "engines.band.calls": len(engine),
        "engines.band.failed": sum(not r["ok"] for r in engine),
        "sources.resolve.ms_p50": _p50_ms(resolve),
        "sources.resolve.calls": len(resolve),
        "stages.extract.busy_s": busy,
        "stages.extract.batches": len(extract),
        "stages.extract.slow_rows": sum(r["slow_rows"] for r in extract),
        "stages.extract.error_rows": sum(r["error_rows"] for r in extract),
        "stages.extract.pool_util": busy / (actors * window_s) if actors else 0.0,
        "stages.extract.idle_s": actors * window_s - busy,
        "stages.extract.task_max_over_mean": (
            max(task_s) / statistics.fmean(task_s) if task_s else 0.0
        ),
        "stages.classify.busy_s": dur(classify),
        "stages.classify.spans_out": sum(r["rows_out"] for r in classify),
        "stages.reassemble.busy_s": dur(reassemble),
        "stages.reassemble.calls": len(reassemble),
        "functions.segments.shuffle_rows": sum(group_rows),
        "functions.segments.shuffle_bytes": sum(r["bytes_in"] for r in reassemble),
        "functions.segments.bucket_max_over_mean": (
            max(group_rows) / statistics.fmean(group_rows) if group_rows else 0.0
        ),
        "state.checkpoint.commit_busy_s": dur(writes) + (dur(reassemble) if writes else 0.0),
        "state.checkpoint.write_bytes": sum(r["bytes"] for r in writes),
    }
