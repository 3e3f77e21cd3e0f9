"""Offline model training: the Smart-Homes REPTree set-up.

``train_predictor`` grows one REPTree per device type before the Figure 5
pipeline can run; at the perfbench fig6 configuration it is almost all
of that workload's set-up time.  This benchmark times it and records the
tree digest beside the timings, so a faster split search is only a win
if the trees are bit-identical (the digest is pinned in
``tests/test_reptree_golden.py`` and checked by the CI perf-smoke job).

Run it with ``repro bench training --out-dir DIR``; it writes
``BENCH_training.json``.  Each repeat is one full ``train_predictor``
call after a ``gc.collect()``; the report gives every repeat, the median
and the quartiles (spread, not a best-of-N minimum).
"""

from __future__ import annotations

import gc
import time

from repro.apps.smarthomes import predictor_digest, train_predictor
from repro.bench.reporting import emit_bench_json, quartiles

#: The perfbench ``fig6-inproc`` training configuration (seed 101).
CONFIG = dict(horizon=120, train_seconds=800, past=60, seed=101)

REPEATS = 7


def test_training_fig6_setup():
    seconds = []
    digests = set()
    for _ in range(REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        models = train_predictor(**CONFIG)
        seconds.append(time.perf_counter() - t0)
        digests.add(predictor_digest(models))
    # Training is seeded: every repeat must grow the same trees.
    assert len(digests) == 1, digests
    q1, median, q3 = quartiles(seconds)
    print()
    print(f"train_predictor({CONFIG}): median {median * 1e3:.1f} ms "
          f"(quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms, {REPEATS} repeats)")
    emit_bench_json("BENCH_training.json", {
        "training_fig6": {
            "config": CONFIG,
            "repeats": REPEATS,
            "seconds": [round(s, 4) for s in seconds],
            "median_s": round(median, 4),
            "q1_s": round(q1, 4),
            "q3_s": round(q3, 4),
            "trees": len(models),
            "nodes": sum(tree.n_nodes() for tree in models.values()),
            "digest": digests.pop(),
        },
    })
