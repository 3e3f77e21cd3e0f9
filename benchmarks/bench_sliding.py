"""Query IV's sliding-window count on the in-process backend.

Figure 3's Query IV with eight Yahoo sources: each second's events dealt
round-robin over the sources, every source closing the epoch with its
own marker, 300 one-second epochs of 100 events (seed 101).  The
``Count10s`` vertex is ``SlidingAggregate``, whose marker step is one
fused kernel over per-key two-stacks records; it is most of a pass.

Run it with ``repro bench sliding --out-dir DIR``; it writes
``BENCH_sliding.json``.  Each repeat times one pass over the whole input
on a freshly built DAG and pipeline, batched (one ``push_batch`` per source
per epoch) and serial (one ``push`` per event), alternating, after a
``gc.collect()``.  The report gives every repeat, the median and the
quartiles, and the sha1 of the sink output, which must be the same in
both modes (the CI perf-smoke job pins it).
"""

from __future__ import annotations

import gc
import hashlib
import time

from repro.apps.yahoo.events import YahooWorkload
from repro.apps.yahoo.queries import query4_multi_source
from repro.bench.reporting import emit_bench_json, quartiles
from repro.compiler.inprocess import compile_inprocess
from repro.storm.recovery import split_epochs

CONFIG = dict(seconds=300, events_per_second=100, seed=101, sources=8)

REPEATS = 9


def make_epochs(workload, sources):
    epochs = []
    for block in split_epochs(workload.events()):
        marker, items = block[-1], block[:-1]
        epochs.append([
            (f"Yahoo{i}", items[i::sources] + [marker]) for i in range(sources)
        ])
    return epochs


def run_pass(workload, epochs, batched):
    dag = query4_multi_source(workload.make_database(), CONFIG["sources"])
    pipe = compile_inprocess(dag, batched=batched)
    gc.collect()
    t0 = time.perf_counter()
    if batched:
        for epoch in epochs:
            for source, block in epoch:
                pipe.push_batch(source, block)
    else:
        for epoch in epochs:
            for source, block in epoch:
                for event in block:
                    pipe.push(source, event)
    seconds = time.perf_counter() - t0
    digest = hashlib.sha1(repr(pipe.outputs("SINK")).encode()).hexdigest()
    return seconds, digest


def summary(seconds, n_events):
    q1, median, q3 = quartiles(seconds)
    return {
        "seconds": [round(s, 5) for s in seconds],
        "median_s": round(median, 5),
        "q1_s": round(q1, 5),
        "q3_s": round(q3, 5),
        "median_eps": round(n_events / median),
    }


def test_query4_sliding_pass():
    workload = YahooWorkload(
        seconds=CONFIG["seconds"],
        events_per_second=CONFIG["events_per_second"],
        seed=CONFIG["seed"],
    )
    epochs = make_epochs(workload, CONFIG["sources"])
    n_events = sum(len(block) for epoch in epochs for _, block in epoch)
    times = {True: [], False: []}
    digests = set()
    for _ in range(REPEATS):
        for batched in (True, False):
            seconds, digest = run_pass(workload, epochs, batched)
            times[batched].append(seconds)
            digests.add(digest)
    # Both modes, every repeat: one sink output.
    assert len(digests) == 1, digests
    batched, serial = summary(times[True], n_events), summary(times[False], n_events)
    print()
    for mode, row in (("batched", batched), ("serial", serial)):
        print(f"Query IV {mode}: median {row['median_s'] * 1e3:.1f} ms "
              f"(quartiles {row['q1_s'] * 1e3:.1f}-{row['q3_s'] * 1e3:.1f} ms, "
              f"{REPEATS} repeats), {row['median_eps']} ev/s")
    emit_bench_json("BENCH_sliding.json", {
        "query4_inprocess": {
            "config": CONFIG,
            "events": n_events,
            "repeats": REPEATS,
            "batched": batched,
            "serial": serial,
            "digest": digests.pop(),
        },
    })
