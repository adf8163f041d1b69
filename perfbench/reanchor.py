#!/usr/bin/env python3
"""Re-measure the three baseline figures quoted in ROADMAP.md.

Usage, from the root of a checkout:  python3 perfbench/reanchor.py

Prints one JSON object: seconds for a full pass of search_d_transitive
(max_ground=3) over all 218 semigroups of order <= 4, best-of-3 seconds
for verify_smallest over every n = 3 partition and kind, and best-of-3
seconds for generating the SYM closure of the finest 10-block partition
and for its to_abstract.  Not part of the timed benchmark runs.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from relsem import _accel, from_partition, search_d_transitive, verify_smallest  # noqa: E402
from relsem.partitions import Partition, ProductKind, enumerate_partitions  # noqa: E402
from relsem.relations import GroundSet  # noqa: E402

import oracle  # noqa: E402
from workloads import RepresentCorpus  # noqa: E402


def best_of(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    corpus = [RepresentCorpus.semigroup(t) for t in oracle.semigroup_corpus(4)]
    start = time.perf_counter()
    for h in corpus:
        search_d_transitive(h, max_ground=3)
    corpus_s = time.perf_counter() - start

    jobs = [(p, kind) for p in enumerate_partitions(3) for kind in ProductKind]
    smallest_s = best_of(lambda: [verify_smallest(p, kind) for p, kind in jobs])

    finest = Partition.finest(GroundSet(10))
    generate_s = best_of(lambda: from_partition(finest, ProductKind.SYM))
    closure = from_partition(finest, ProductKind.SYM)
    to_abstract_s = best_of(closure.to_abstract)

    print(json.dumps({
        "backend": _accel.backend(),
        "corpus_search_pass_s": corpus_s,
        "corpus_targets": len(corpus),
        "verify_smallest_n3_s": smallest_s,
        "sym_k10_elements": len(closure),
        "sym_k10_generate_s": generate_s,
        "sym_k10_to_abstract_s": to_abstract_s,
    }))


if __name__ == "__main__":
    main()
