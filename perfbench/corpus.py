"""Seeded corpora for the three benchmark workloads.

Every document comes from the package's public fixture generator
(``fixtures.generate.make_document``); a workload is a *selection* of
generated documents, so a seed reproduces the same inputs byte for
byte.  The program under test only ever sees the parquet files written
by :func:`write_corpus`.

- ``scan_heavy``: documents that classify as scanned, 7 spans each, at
  least half of them ``media``.  Nearly all work is resolve ->
  preprocess -> OCR; the media noise levels 0/8/18 send the
  enhance/denoise/binarize auto-dispatch down each branch.
- ``text_heavy``: small (1-8 span) documents on the direct path; their
  ``html`` spans go through the boilerplate strip and their ``media``
  spans are never OCR'd.  No OCR runs, so Arrow, classify/explode, the
  ``doc_id`` bucket shuffle and the python reassembly loop dominate.
- ``mixed_checkpointed``: the default fixture mix (the special cases
  0-4, then lognormal 60/40 text/media-dominant documents) with the
  number of OCR'd pages fixed, plus one giant direct-path document of
  about 100x the mean span count.  The giant is
  text-dominant on purpose: a scanned giant of ~500 pages would cost
  several seconds of OCR per repetition on a one-core host and swamp
  the commit path this workload exists to measure.
"""

from __future__ import annotations

import hashlib
import os
import statistics

import pyarrow as pa
import pyarrow.parquet as pq

from medical_and_charity_document_extraction_system_ray.fixtures import (
    make_document,
    media_ground_truth,
    media_noise_sigma,
    parse_mem_ref,
)
from medical_and_charity_document_extraction_system_ray.oracle import (
    classify_document,
)
from medical_and_charity_document_extraction_system_ray.schema import (
    DOCUMENTS_SCHEMA,
    KIND_HTML,
    KIND_MEDIA,
)

WORKLOADS = ("scan_heavy", "text_heavy", "mixed_checkpointed")

# documents per timed repetition (full size, smoke size); sized so one
# repetition takes 4-6 s on a 4-CPU host
SIZES = {
    "scan_heavy": (24, 6),
    "text_heavy": (8000, 300),
    "mixed_checkpointed": (32, 12),
}

# files per corpus: the checkpoint runner groups files into partitions,
# so with its default of 16 partitions each file is one partition.
# Every partition is its own read in the commit job, and with eight
# files a mixed_checkpointed repetition took ~11 s on a 4-CPU host.
NUM_FILES = 4

# share of documents the correctness gate compares with the oracle,
# chosen by doc_id hash; below 1 only where the oracle pass is costly
GATE_SHARE = {"scan_heavy": 0.5, "text_heavy": 0.25, "mixed_checkpointed": 1.0}

GIANT_FACTOR = 100
# pages of scanned (OCR'd) documents in the mixed_checkpointed corpus
# (full size, smoke size)
MIXED_OCR_SPANS = (64, 16)
# pages per scan_heavy document: one size, so every seed does the same
# amount of OCR and seeds differ only in content
SCAN_SPANS = 7


def _media_share(doc: dict) -> float:
    spans = doc["spans"]
    return sum(s["kind"] == KIND_MEDIA for s in spans) / len(spans)


def _select(prefix: str, n: int, accept) -> list[dict]:
    """First ``n`` generated documents (generic index range, so no
    fixture special case applies) that satisfy ``accept``."""
    docs, i = [], 0
    while len(docs) < n:
        doc = make_document(f"{prefix}-{i:07d}", 5 + i)
        if accept(doc):
            docs.append(doc)
        i += 1
    return docs


def _mixed(prefix: str, n: int, ocr_spans: int) -> list[dict]:
    """``n`` documents of the default fixture mix (special cases 0-4,
    then generic documents in index order) with the OCR work pinned:
    scanned documents are taken while their pages fit ``ocr_spans``
    exactly, direct-path documents fill the rest.  Without the pin, the
    number of OCR'd pages among 32 lognormal documents moved a run's
    ``docs_per_s`` by up to a third from seed to seed."""
    docs = [make_document(f"{prefix}-{i:07d}", i) for i in range(5)]
    ocr = sum(len(d["spans"]) for d in docs if classify_document(d["spans"]))
    generic = (make_document(f"{prefix}-{i:07d}", i) for i in range(5, 5 + 1000 * n))
    for doc in generic:
        if ocr == ocr_spans:
            break
        if classify_document(doc["spans"]) and ocr + len(doc["spans"]) <= ocr_spans:
            docs.append(doc)
            ocr += len(doc["spans"])
    generic = (make_document(f"{prefix}-{i:07d}", i) for i in range(5, 5 + 1000 * n))
    direct = (d for d in generic if not classify_document(d["spans"]))
    docs += [next(direct) for _ in range(n - len(docs))]
    if ocr != ocr_spans or len(docs) != n:
        raise RuntimeError("mixed corpus selection did not converge")
    return docs


def _giant(prefix: str, target_spans: int) -> dict:
    """One direct-path document of ``target_spans`` pages, concatenated
    from generated text-dominant documents.  Offsets are renumbered;
    media refs keep their source ``(doc_id, offset)``, which the media
    resolver synthesizes from the ref alone."""
    spans, k = [], 0
    while len(spans) < target_spans:
        src = make_document(f"{prefix}-src-{k:05d}", 5 + k)
        k += 1
        if classify_document(src["spans"]):
            continue
        for s in sorted(src["spans"], key=lambda s: s["offset"]):
            spans.append(dict(s, offset=len(spans)))
    doc = {"doc_id": f"{prefix}-giant", "spans": spans[:target_spans]}
    if classify_document(doc["spans"]):
        raise RuntimeError("giant document classified as scanned")
    return doc


def make_corpus(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The workload's documents for ``seed``."""
    n = SIZES[workload][1 if smoke else 0]
    prefix = f"{workload[:4]}{seed}"
    if workload == "scan_heavy":
        return _select(
            prefix,
            n,
            lambda d: len(d["spans"]) == SCAN_SPANS
            and classify_document(d["spans"])
            and _media_share(d) >= 0.5,
        )
    if workload == "text_heavy":
        return _select(
            prefix,
            n,
            lambda d: len(d["spans"]) <= 8 and not classify_document(d["spans"]),
        )
    if workload == "mixed_checkpointed":
        docs = _mixed(prefix, n, MIXED_OCR_SPANS[1 if smoke else 0])
        mean = statistics.fmean(len(d["spans"]) for d in docs)
        return docs + [_giant(prefix, round(GIANT_FACTOR * mean))]
    raise ValueError(f"unknown workload {workload!r}")


def write_corpus(docs: list[dict], out_dir: str, num_files: int = NUM_FILES) -> list[str]:
    """Write ``docs`` round-robin into ``num_files`` parquet files."""
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for f in range(num_files):
        path = os.path.join(out_dir, f"docs-{f:03d}.parquet")
        part = docs[f::num_files]
        pq.write_table(pa.Table.from_pylist(part, schema=DOCUMENTS_SCHEMA), path)
        files.append(path)
    return files


def in_gate(doc_id: str, share: float) -> bool:
    """Fixed hash sample: the same doc_id is always in or out."""
    h = int.from_bytes(hashlib.sha256(doc_id.encode()).digest()[:4], "big")
    return h < share * 2**32


def shape(docs: list[dict]) -> dict:
    """Workload shape: sizes, media/html/scanned shares, skew, and the
    noise levels of the media pages that go through OCR."""
    counts = [len(d["spans"]) for d in docs]
    spans = [s for d in docs for s in d["spans"]]
    scanned = [d for d in docs if classify_document(d["spans"])]
    ocr_media = [
        parse_mem_ref(s["media_ref"])
        for d in scanned
        for s in d["spans"]
        if s["kind"] == KIND_MEDIA
    ]
    noise = sorted({media_noise_sigma(*ref) for ref in ocr_media})
    mean = statistics.fmean(counts)
    return {
        "docs": len(docs),
        "spans": len(spans),
        "media_share": round(sum(s["kind"] == KIND_MEDIA for s in spans) / len(spans), 4),
        "html_share": round(sum(s["kind"] == KIND_HTML for s in spans) / len(spans), 4),
        "scanned_share": round(len(scanned) / len(docs), 4),
        "ocr_media_spans": len(ocr_media),
        "media_noise_levels": noise,
        "mean_spans": round(mean, 3),
        "max_spans": max(counts),
        "max_over_mean": round(max(counts) / mean, 2),
    }


def media_exact_share(docs: list[dict], results: dict[str, dict]) -> float | None:
    """Share of OCR'd media pages whose extracted text equals the text
    printed on them (``media_ground_truth``): the engine's accuracy on
    the workload, context only."""
    hit = total = 0
    for d in docs:
        r = results.get(d["doc_id"])
        if r is None or not r["is_scanned"]:
            continue
        for s in r["spans"]:
            if s["kind"] != KIND_MEDIA:
                continue
            total += 1
            hit += s["text"] == media_ground_truth(*parse_mem_ref(s["media_ref"]))
    return round(hit / total, 4) if total else None
