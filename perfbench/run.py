"""Extraction benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scan_heavy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The flagship job runs through the library's public entry points with
their default knobs: ``pipelines.extract_documents`` over
``sources.readers.read_documents`` (``scan_heavy``, ``text_heavy``) and
``state.run_with_checkpoints(extract_spans, finalize_fn=reassemble_table)``
(``mixed_checkpointed``).  Each run:

1. generates the workload's corpus from ``--seed`` (``corpus.py``) and
   writes it as parquet, the only input the program sees;
2. runs the single-process oracle over the gate sample (untimed for
   the job; its own rate is reported as ``oracle.docs_per_s``);
3. sets up a local Ray session plus a warm-up job twice and reports the
   median as ``setup_s`` (once with ``--trace 1``);
4. repeats the timed job until ``--seconds`` have passed (at least
   three times), checks every repetition's output against the oracle
   and reports medians.  ``mixed_checkpointed`` follows the last
   repetition with a resume leg and checks it.

With ``--trace 1`` the untraced repetitions are followed by traced
ones (``trace.py``) and the result holds the per-layer metrics, the
traced and untraced rates and the overhead between them.

Context (host, versions, workload shape, quartiles, per-repetition
values) goes to stdout one line before the result.  Everything the run
writes stays under ``perfbench/.work`` and ``perfbench/.ray``, which
are removed at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

# import the program first: without it the run fails before any output
from medical_and_charity_document_extraction_system_ray import oracle  # noqa: E402
from medical_and_charity_document_extraction_system_ray.kernels.html import (  # noqa: E402
    strip_boilerplate,
)
from medical_and_charity_document_extraction_system_ray.kernels.preprocess import (  # noqa: E402
    PreprocessConfig,
    preprocess_image_array,
)
from medical_and_charity_document_extraction_system_ray.pipelines import (  # noqa: E402
    extract_documents,
    extract_spans,
)
from medical_and_charity_document_extraction_system_ray.schema import (  # noqa: E402
    KIND_HTML,
    KIND_MEDIA,
)
from medical_and_charity_document_extraction_system_ray.sources.media_resolver import (  # noqa: E402
    MediaResolver,
)
from medical_and_charity_document_extraction_system_ray.sources.readers import (  # noqa: E402
    read_documents,
)
from medical_and_charity_document_extraction_system_ray.stages import (  # noqa: E402
    reassemble_table,
)
from medical_and_charity_document_extraction_system_ray.state import (  # noqa: E402
    checkpoint,
)

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402
import ray  # noqa: E402
import ray.data  # noqa: E402

from perfbench import corpus, trace  # noqa: E402

# The library's default actor pool is max(2, 7/8 of the session CPUs)
# actors of one CPU each, and the read/classify/shuffle tasks need CPUs
# beside it: a 1- or 2-CPU session never schedules the whole pool and
# hangs.  Smaller hosts therefore get a 4-CPU session (oversubscribed),
# the same size as the repository's test session.
MIN_SESSION_CPUS = 4
OBJECT_STORE_BYTES = 512 * 2**20
# A setup costs ~8 s and a shutdown ~2 s on a 4-CPU host; two setups
# and three repetitions keep one run near 40 s, so 70 runs (22 per
# workload plus a few) fit in under an hour
SETUPS = 2
MIN_REPS = 3
KERNEL_SAMPLE = 24
# AF_UNIX paths are limited to 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
MAX_RAY_TEMP_LEN = 107 - 64

WORK = os.path.join(HERE, ".work")
RAY_TEMP = os.path.join(HERE, ".ray")


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


# ---------------------------------------------------------------- host --


def nproc() -> int:
    """CPUs this process may run on (``nproc`` without OMP_NUM_THREADS)."""
    return len(os.sched_getaffinity(0))


def host_context(session_cpus: int) -> dict:
    return {
        "nproc": nproc(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pa.__version__,
        "session_cpus": session_cpus,
        "object_store_mb": OBJECT_STORE_BYTES // 2**20,
    }


def _proc_table() -> dict[int, tuple[int, int]]:
    """pid -> (ppid, rss bytes) for every live process."""
    page = os.sysconf("SC_PAGE_SIZE")
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table[int(name)] = (int(fields[1]), int(fields[21]) * page)
    return table


def descendants(root: int) -> dict[int, int]:
    """pid -> rss bytes for ``root`` and every process below it."""
    table = _proc_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, stack = {}, [root]
    while stack:
        pid = stack.pop()
        if pid in table:
            out[pid] = table[pid][1]
            stack.extend(children.get(pid, []))
    return out


class RssSampler:
    """Peak summed RSS of this process tree while the ``with`` block runs."""

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, sum(descendants(os.getpid()).values()))
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# ------------------------------------------------------------- session --


class Session:
    """A local Ray session; ``close`` shuts it down and waits until every
    process it started has exited, killing those still alive after
    ``timeout_s`` (a straggler once held a run up for 30 s)."""

    def __init__(self, cpus: int, temp_dir: str | None):
        paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if ROOT not in paths:
            os.environ["PYTHONPATH"] = os.pathsep.join([ROOT] + [p for p in paths if p])
        # no usage-stats reporting: the benchmark talks to nothing but
        # its own local session
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        kwargs = {"_temp_dir": temp_dir} if temp_dir else {}
        ray.init(
            address="local",
            num_cpus=cpus,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            **kwargs,
        )
        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def close(self, timeout_s: float = 5.0) -> None:
        pids = set(descendants(os.getpid())) - {os.getpid()}
        ray.shutdown()
        deadline = time.monotonic() + timeout_s
        while pids and time.monotonic() < deadline:
            pids = {p for p in pids if _alive(p)}
            time.sleep(0.05)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout_s
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        waited, _ = os.waitpid(pid, os.WNOHANG)
        if waited == pid:
            return False
    except ChildProcessError:
        pass  # not our child: reaped by its own parent or init
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def ray_temp_dir() -> str | None:
    if len(RAY_TEMP) <= MAX_RAY_TEMP_LEN:
        return RAY_TEMP
    print(
        f"perfbench: checkout path too long for Ray sockets under {RAY_TEMP}; "
        "using Ray's default temp dir",
        file=sys.stderr,
    )
    return None


# ---------------------------------------------------------------- gate --


def _key(row: dict) -> tuple:
    return (
        row["is_scanned"],
        row["processing_method"],
        row["page_count"],
        row["total_characters"],
        row["total_words"],
        row["average_confidence"],
        row["text"],
        row["engine"],
        row["language"],
        tuple((s["kind"], s["text"], s["media_ref"], s["offset"]) for s in row["spans"]),
    )


class Gate:
    """Oracle comparison for one corpus: every document must come out
    exactly once, and the hash-sampled ones must equal
    ``oracle.extract_table`` in their span sequence and aggregates."""

    def __init__(self, docs: list[dict], share: float):
        self.ids = [d["doc_id"] for d in docs]
        sample = [d for d in docs if corpus.in_gate(d["doc_id"], share)]
        t0 = time.perf_counter()
        results = oracle.extract_table(sample)
        self.oracle_docs_per_s = len(sample) / (time.perf_counter() - t0)
        self.results = {r["doc_id"]: r for r in results}
        self.expected = {r["doc_id"]: _key(r) for r in results}

    def mismatches(self, out: pa.Table) -> int:
        got_ids = out["doc_id"].to_pylist()
        bad = len(got_ids) - len(set(got_ids)) + len(set(self.ids) ^ set(got_ids))
        sampled = out.filter(pc.is_in(out["doc_id"], pa.array(list(self.expected))))
        for row in sampled.to_pylist():
            bad += _key(row) != self.expected[row["doc_id"]]
        return bad


def table_keys(out: pa.Table) -> dict[str, tuple]:
    return {r["doc_id"]: _key(r) for r in out.to_pylist()}


# ---------------------------------------------------------------- jobs --


class DocumentsJob:
    """``extract_documents(read_documents(corpus))``, consumed in full."""

    def __init__(self, path: str):
        self.path = path

    def run(self, tracer: "Tracer | None" = None) -> dict:
        t0 = time.perf_counter()
        ds = extract_documents(read_documents(self.path))
        batches, first = [], None
        for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
            if first is None:
                first = time.perf_counter() - t0
            batches.append(b)
        wall = time.perf_counter() - t0
        if tracer is not None:
            stats = ds.stats()
            tracer.layer_extra = {
                "sources.read.busy_s": trace.op_wall_s(stats, "ReadParquet"),
                "pipelines.extraction.repartition_s": trace.op_wall_s(stats, "Repartition"),
            }
        out = pa.concat_tables(batches)
        return {"out": out, "docs": len(out), "wall_s": wall, "first_s": first}


class CheckpointJob:
    """``run_with_checkpoints`` into partitioned parquet, reassembly
    folded into the commit shuffle; ``resume`` deletes half of the
    committed partitions and reruns."""

    def __init__(self, files: list[str], out_dir: str):
        self.files = files
        self.out_dir = out_dir

    def _run(self, tracer, on_done=None) -> dict:
        if tracer is not None:
            kwargs = {
                "finalize_fn": trace.traced_reassemble(),
                "data_writer": trace.traced_data_writer(
                    checkpoint.resolve_data_writer("parquet")
                ),
                "reader_fn": tracer.reader,
            }
        else:
            kwargs = {"finalize_fn": reassemble_table}
        return checkpoint.run_with_checkpoints(
            self.files, self.out_dir, extract_spans, on_partition_done=on_done, **kwargs
        )

    def output(self) -> pa.Table:
        parts = sorted(
            n for n in os.listdir(self.out_dir) if n.startswith("part-") and not n.endswith(".tmp")
        )
        tables = [pq.read_table(os.path.join(self.out_dir, n)) for n in parts]
        return pa.concat_tables([t for t in tables if t.num_rows])

    def run(self, tracer: "Tracer | None" = None) -> dict:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        first = None
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.run_t0 = t0

        def on_done(_pid: int) -> None:
            nonlocal first
            if first is None:
                first = time.perf_counter() - t0

        self._run(tracer, on_done)
        wall = time.perf_counter() - t0
        out = self.output()
        return {"out": out, "docs": len(out), "wall_s": wall, "first_s": first}

    def resume(self) -> dict:
        """Delete the odd-numbered partitions, rerun, and report which
        partitions ran and how long it took."""
        deleted = sorted(checkpoint.load_manifest(self.out_dir))[1::2]
        for pid in deleted:
            os.remove(os.path.join(self.out_dir, "_manifest", f"part-{pid:05d}.json"))
            shutil.rmtree(os.path.join(self.out_dir, f"part-{pid:05d}"))
        t0 = time.perf_counter()
        res = self._run(None)
        wall = time.perf_counter() - t0
        return {"deleted": deleted, "res": res, "wall_s": wall, "out": self.output()}


class Tracer:
    """Driver-side half of the trace: the checkpoint ``reader_fn`` seam
    and the per-repetition numbers taken outside the workers."""

    def __init__(self):
        self.run_t0 = None
        self.first_read = None
        self.layer_extra: dict[str, float] = {}

    def reader(self, files: list[str]) -> ray.data.Dataset:
        if self.first_read is None:
            self.first_read = time.perf_counter()
        return ray.data.read_parquet(files)


# ------------------------------------------------------------- kernels --


def kernel_samples(docs: list[dict]) -> dict[str, float]:
    """Per-page p50 of the preprocess and html kernels on a fixed
    sample of the workload's own media and html spans (driver, before
    any Ray session, median of three calls per page)."""
    media = [s for d in docs for s in d["spans"] if s["kind"] == KIND_MEDIA][:KERNEL_SAMPLE]
    html = [s for d in docs for s in d["spans"] if s["kind"] == KIND_HTML][:KERNEL_SAMPLE]
    resolver, config = MediaResolver(), PreprocessConfig.for_document_type("general")

    def per_call_ms(fn, arg) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn(arg)
            times.append(time.perf_counter() - t0)
        return 1e3 * statistics.median(times)

    pre = [per_call_ms(lambda img: preprocess_image_array(img, config),
                       resolver.resolve(s["media_ref"])) for s in media]
    strip = [per_call_ms(strip_boilerplate, s["text"]) for s in html]
    return {
        "kernels.preprocess.ms_p50": statistics.median(pre) if pre else 0.0,
        "kernels.html.ms_p50": statistics.median(strip) if strip else 0.0,
    }


# ----------------------------------------------------------------- run --


def quiesce(cpus: int, timeout_s: float = 60.0) -> None:
    """Wait until the previous job's actors are gone.  Ray Data drops its
    actor pool by reference counting, so handles caught in driver-side
    reference cycles keep the actors (and their CPUs) alive until the
    next garbage collection; a job started meanwhile waits for CPUs and
    was measured taking 2-4x as long."""
    gc.collect()
    deadline = time.monotonic() + timeout_s
    while ray.available_resources().get("CPU", 0) < cpus and time.monotonic() < deadline:
        time.sleep(0.05)


def run_reps(job, gate: Gate, cpus: int, seconds: float, min_reps: int,
             traced: bool) -> list[dict]:
    """Repeat the timed job until ``seconds`` have passed and at least
    ``min_reps`` repetitions ran; gate each repetition."""
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        tracer = Tracer() if traced else None
        quiesce(cpus)
        if traced:
            with trace.traced_pipeline():
                rep = job.run(tracer)
        else:
            with RssSampler() as rss:
                rep = job.run()
            rep["peak_rss_mb"] = rss.peak / 2**20
        out = rep.pop("out")
        rep["mismatch_docs"] = gate.mismatches(out)
        if traced:
            rep["layers"] = trace.layer_metrics(trace.drain(os.environ[trace.TRACE_ENV]), rep["wall_s"])
            rep["layers"].update(tracer.layer_extra)
            if tracer.first_read is not None:
                rep["layers"]["state.checkpoint.fingerprint_s"] = tracer.first_read - tracer.run_t0
        reps.append(rep)
    if isinstance(job, CheckpointJob):
        quiesce(cpus)
        reps[-1].update(check_resume(job, out))
        if traced:
            trace.drain(os.environ[trace.TRACE_ENV])  # resume-leg spans
    return reps


def check_resume(job: CheckpointJob, full_out: pa.Table) -> dict:
    """Resume leg after the last repetition: exactly the deleted
    partitions re-execute, the rest are skipped, and the final output
    equals the uninterrupted run's ``full_out``."""
    res = job.resume()
    rerun, skipped = res["res"]["executed"], res["res"]["skipped"]
    others = sorted(set(range(res["res"]["partitions"])) - set(res["deleted"]))
    return {
        "resume_s": res["wall_s"],
        "partitions_executed": len(rerun),
        "partitions_skipped": len(skipped),
        "resume_ok": rerun == res["deleted"]
        and skipped == others
        and table_keys(res["out"]) == table_keys(full_out),
    }


def setup(cpus: int, temp_dir: str | None, warm_path: str) -> tuple[Session, float]:
    """Ray session start plus the warm-up pipeline: ``extract_documents``
    over one of the corpus files, which spawns the worker processes and
    imports the timed repetitions then reuse."""
    t0 = time.perf_counter()
    session = Session(cpus, temp_dir)
    try:
        DocumentsJob(warm_path).run()
    except BaseException:
        session.close()
        raise
    return session, time.perf_counter() - t0


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """Returns (context, result) for one run."""
    cpus = max(nproc(), MIN_SESSION_CPUS)
    context = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(traced), "host": host_context(cpus)}
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir)
    os.environ[trace.TRACE_ENV] = trace_dir

    docs = corpus.make_corpus(workload, seed, smoke)
    files = corpus.write_corpus(docs, os.path.join(work, "corpus"))
    context["shape"] = corpus.shape(docs)
    gate = Gate(docs, corpus.GATE_SHARE[workload])
    context["gate_docs"] = len(gate.expected)
    context["media_exact_share"] = corpus.media_exact_share(docs, gate.results)
    kernels = kernel_samples(docs) if traced else {}

    if workload == "mixed_checkpointed":
        job = CheckpointJob(files, os.path.join(work, "out"))
    else:
        job = DocumentsJob(os.path.join(work, "corpus"))
    min_reps = 1 if smoke else MIN_REPS
    temp_dir = ray_temp_dir()

    setup_s = []
    session = None
    try:
        for i in range(1 if traced else SETUPS):
            if session is not None:
                session.close()
                session = None
            session, s = setup(cpus, temp_dir, files[0])
            setup_s.append(s)
        plain = run_reps(job, gate, cpus, seconds, min_reps, traced=False)
        traced_reps = (
            run_reps(job, gate, cpus, seconds, min_reps, traced=True) if traced else []
        )
    finally:
        if session is not None:
            session.close()
        shutil.rmtree(work, ignore_errors=True)
        if temp_dir:
            shutil.rmtree(temp_dir, ignore_errors=True)

    reps = plain + traced_reps
    failed = sum(r["mismatch_docs"] for r in reps)
    resume_ok = all(r.get("resume_ok", True) for r in reps)
    failed += sum(not r.get("resume_ok", True) for r in reps)
    context.update({
        "setup_s": setup_s,
        "oracle_docs_per_s": gate.oracle_docs_per_s,
        "mismatch_docs": sum(r["mismatch_docs"] for r in reps),
        "resume_ok": resume_ok,
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "docs_per_s": quartiles([r["docs"] / r["wall_s"] for r in plain]),
        "first_result_s": quartiles([r["first_s"] for r in plain]),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in plain]),
    })

    if not traced:
        metrics = {
            "docs_per_s": (statistics.median(r["docs"] / r["wall_s"] for r in plain), "1/s"),
            "first_result_s": (median_of(plain, "first_s"), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (median_of(plain, "peak_rss_mb"), "MB"),
        }
    else:
        metrics = layer_result(workload, traced_reps, plain, kernels, gate)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["docs"] for r in reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return context, result


UNITS = (
    ("ms_p50", "ms"), ("docs_per_s", "1/s"), ("_s", "s"), ("_bytes", "bytes"),
    ("pool_util", "ratio"), ("_over_mean", "ratio"), ("overhead_frac", "ratio"),
)


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def layer_result(workload, traced_reps, plain, kernels, gate) -> dict:
    names = traced_reps[0]["layers"].keys()
    values = {n: statistics.median(r["layers"].get(n, 0.0) for r in traced_reps) for n in names}
    values.setdefault("sources.read.busy_s", 0.0)
    values.setdefault("pipelines.extraction.repartition_s", 0.0)
    values.setdefault("state.checkpoint.fingerprint_s", 0.0)
    ckpt = workload == "mixed_checkpointed"
    resumed = traced_reps[-1]
    values["state.checkpoint.partitions_executed"] = resumed["partitions_executed"] if ckpt else 0
    values["state.checkpoint.partitions_skipped"] = resumed["partitions_skipped"] if ckpt else 0
    values["state.checkpoint.resume_s"] = resumed["resume_s"] if ckpt else 0.0
    values.update(kernels)
    untraced = statistics.median(r["docs"] / r["wall_s"] for r in plain)
    traced = statistics.median(r["docs"] / r["wall_s"] for r in traced_reps)
    values["oracle.docs_per_s"] = gate.oracle_docs_per_s
    values["trace.untraced_docs_per_s"] = untraced
    values["trace.traced_docs_per_s"] = traced
    values["trace.overhead_frac"] = untraced / traced - 1.0
    return {
        n: (v, unit_of(n)) for n, v in sorted(values.items())
    }


# --------------------------------------------------------------- smoke --


def smoke() -> int:
    """Run every workload at smoke size in both modes and check that the
    printed metric names and units are exactly those in BENCHMARK.json,
    and that layers.json maps exactly its per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = set(layers) == set(want[1])
    print("layers.json:", "ok" if ok else "MISMATCH")
    for w in spec["workloads"]:
        for mode in (0, 1):
            _, result = run_workload(w["name"], 1, 1.0, bool(mode), smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            good = got == want[mode] and result["correct"]
            ok &= good
            print(f"{w['name']} trace={mode}:", "ok" if good else
                  f"MISMATCH got={sorted(got.items())} correct={result['correct']}")
    print("smoke", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small sizes, every workload, check metric names")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    context, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"context": context}, default=float))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
