"""The four workloads: inputs from a seed, one job, and the checks of its outputs.

A job calls lcdkit's public functions through their modules (``tables.X``
rather than ``from tables import X``) so that the traced run's hooks see
every call.  ``job(run)`` runs the workload's job once; every job of a
run has the same inputs and the same items in the same order, so an item
is known by its position.  ``run.item`` times one item.  ``run.stage`` runs job work that is not an item, such as the corpus
enumeration; it counts in the job's wall time but not in item latency.
Outputs are reduced to plain data by ``summarize`` after the job and
checked by ``check`` against ``oracles``, which shares no code with lcdkit.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Sequence, Set, Tuple

from lcdkit import codes, conjecture, search, tables

import oracles


def random_full_rank(rng: random.Random, n: int, k: int) -> List[int]:
    while True:
        rows = [rng.getrandbits(n) for _ in range(k)]
        if oracles.rank(rows) == k:
            return rows


def gen1_text(n: int, rows: Sequence[int]) -> str:
    lines = [f"{n} {len(rows)}"]
    lines += ["".join("1" if (r >> i) & 1 else "0" for i in range(n))
              for r in rows]
    return "\n".join(lines) + "\n"


class Table:
    """Exhaustive d_lcd(n, k) for n <= N_MAX, one cell per item.

    The input is the whole space, so the seed is unused.  ``dlcd_table`` is
    a loop over ``dlcd_value``, so the job runs the cells directly: its wall
    time is the table's time to solution and each cell is an item.  At
    N_MAX = 10 the job takes about 0.55 s, so a 25 s run has about 40 jobs
    to take each cell's median from.
    """

    N_MAX = 10

    def __init__(self, seed: int) -> None:
        self.sizes = {"n_max": self.N_MAX, "cells": self.N_MAX
                      * (self.N_MAX + 1) // 2}

    def job(self, run) -> None:
        for n in range(1, self.N_MAX + 1):
            for k in range(1, n + 1):
                run.item((n, k), tables.dlcd_value, n, k)

    def summarize(self, key, out):
        return out

    def check(self, outputs: Dict) -> Set:
        want = oracles.table_expectations(self.N_MAX)
        return {key for key, d in outputs.items() if d != want[key]}


class Corpus:
    """All-one LCD corpus for lengths 4..LENGTH_MAX, then one certification each.

    The input is the whole space, so the seed is unused.
    ``all_one_lcd_codes`` stores each code's distance in its cache, so the
    items do not pay for the input's own distance.
    """

    LENGTH_MIN, LENGTH_MAX = 4, 10

    def __init__(self, seed: int) -> None:
        self.sizes = {"length_min": self.LENGTH_MIN,
                      "length_max": self.LENGTH_MAX}

    @staticmethod
    def _certify(code):
        cert = conjecture.certify_step_down(code)
        cert.verify()
        return code, cert

    def job(self, run) -> None:
        codes = []
        for n in range(self.LENGTH_MIN, self.LENGTH_MAX + 1):
            found = tables.all_one_lcd_codes(n)
            # One stage per next(): the length-10 enumeration is most of
            # the job, and a short step's median over the run's jobs is
            # less often thrown by a burst than one long step's.
            for j in itertools.count():
                code = run.stage((n, j), next, found, None)
                if code is None:
                    break
                codes.append(code)
        for i, code in enumerate(codes):
            run.item(i, self._certify, code)

    def summarize(self, key, out):
        if isinstance(key, tuple):
            return None if out is None else tuple(out.gen.rows)
        code, cert = out
        u, v = next(((e["u"], e["v"]) for e in cert.trace
                     if e.get("op") == "puncture_pair"), (0, 0))
        return (tuple(code.gen.rows), code.n, u, v,
                tuple(cert.output.gen.rows), cert.output.n)

    def check(self, outputs: Dict) -> Set:
        bad: Set = set()
        steps: Dict[int, list] = {}
        for key, got in outputs.items():
            if isinstance(key, tuple):
                steps.setdefault(key[0], []).append(key)
            elif not oracles.certificate_ok(*got):
                bad.add(key)
        for n, keys in steps.items():
            found = [outputs[key] for key in keys if outputs[key] is not None]
            if (len(found) != oracles.FROZEN_CORPUS_COUNTS[n]
                    or not all(oracles.corpus_code_ok(rows, n)
                               for rows in found)):
                bad.update(keys)
        return bad


class Analyze:
    """A seeded stream of GEN1 texts analysed as ``lcdkit analyze`` does.

    Two regimes pull the distance-engine choice in opposite directions:
    k in 14..18 (four each), where ``auto`` walks all 2^k codewords, and
    k > 26 with n - k in 10..12, where it uses the low-weight engine.  For
    n >= 40 and n - k <= 12 some two distinct 4-column sums of the
    parity-check matrix coincide (C(40, 4) > 2^12), so d <= 8 and the
    low-weight engine always succeeds.  The dimensions and the low-weight
    lengths are fixed and the seed draws the matrices, the full-walk
    lengths and the order, so job time varies little between seeds.

    A full walk's time doubles with each k, so item_p90 jumps wherever the
    90th percentile falls between two dimensions.  With 80 low-weight
    items, 0.9 of the 100 items ends in the middle of the k = 16 group
    (80 + 8 + 2 = 90), so p90 stands for that group's times.  k stops at
    18 so that no item takes more than about 50 ms and a run has many
    jobs to take each item's median from.
    """

    FULL_DIMS = tuple(range(14, 19))
    FULL_COPIES = 4
    LOW_REDUNDANCY = (10, 11, 12)
    LOW_COUNT = 80
    W_MAX = 8

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        specs = [(rng.randint(32, 60), k) for k in self.FULL_DIMS
                 for _ in range(self.FULL_COPIES)]
        # A low-weight item's time grows with n and sets item_p50, so
        # the lengths are spread evenly over 40..64 rather than drawn.
        for i in range(self.LOW_COUNT):
            n = 40 + i * 25 // self.LOW_COUNT
            specs.append((n, n - self.LOW_REDUNDANCY[i % 3]))
        rng.shuffle(specs)
        self.inputs = [(n, random_full_rank(rng, n, k)) for n, k in specs]
        self.texts = [gen1_text(n, rows) for n, rows in self.inputs]
        self.sizes = {"items": len(self.texts),
                      "full_dims": list(self.FULL_DIMS),
                      "low_redundancy": list(self.LOW_REDUNDANCY)}

    @staticmethod
    def _analyze(text: str) -> Tuple[int, int, int, int, str]:
        C = codes.parse_gen1(text)
        d = C.min_distance()
        label = C.parity_class().label
        return (C.n, C.k, d, C.hull_dimension(), label)

    def job(self, run) -> None:
        for i, text in enumerate(self.texts):
            run.item(i, self._analyze, text)

    def summarize(self, key, out):
        return out

    def check(self, outputs: Dict) -> Set:
        bad = set()
        for i, got in outputs.items():
            n, rows = self.inputs[i]
            full = len(rows) <= max(self.FULL_DIMS)
            want = oracles.analysis(rows, n, self.W_MAX, full)
            if got != want:
                bad.add(i)
        return bad


class Search:
    """``lcd_search`` runs to reachable targets, n 12..24, k 4..10.

    At the benchmark's first commit each target was reached by 40 trial
    seeds in at most 50 ms, with means of 1-17 ms.  The budget is far above
    that, so a run never stops on time and its seeded path is
    deterministic.  A search's time depends strongly on its search seed:
    with search seeds drawn from the run seed, the job's work (rank calls)
    spread by 0.10 and its p90 item by 0.31 (interquartile range over
    median, 10 run seeds), which is most of the benchmark's bound.  So copy
    c of every target uses search seed c, and the run seed draws only the
    order.  Eight copies give 112 items, so p90 has 11 beyond it and a
    job is short enough for a run to repeat it often.  (20, 6, 8) is left
    out: one search took up to 250 ms, a fifth of the whole job.
    """

    TARGETS = ((16, 6, 6), (18, 7, 6), (20, 8, 6), (22, 9, 6), (24, 10, 6),
               (12, 6, 4), (14, 7, 4), (16, 4, 7), (18, 5, 7), (20, 6, 7),
               (22, 7, 7), (24, 8, 7), (12, 4, 5), (14, 5, 5))
    COPIES = 8
    BUDGET_MS = 30000

    def __init__(self, seed: int) -> None:
        self.inputs = [(n, k, d, c) for n, k, d in self.TARGETS
                       for c in range(self.COPIES)]
        random.Random(seed).shuffle(self.inputs)
        self.sizes = {"items": len(self.inputs), "targets": len(self.TARGETS),
                      "budget_ms": self.BUDGET_MS}

    def job(self, run) -> None:
        for i, (n, k, d, seed) in enumerate(self.inputs):
            run.item(i, search.lcd_search, n, k, d, seed=seed,
                     budget_ms=self.BUDGET_MS)

    def summarize(self, key, out):
        return None if out is None else (tuple(out.gen.rows), out.n)

    def check(self, outputs: Dict) -> Set:
        bad = set()
        for i, got in outputs.items():
            n, k, d, _ = self.inputs[i]
            rows, length = got if got is not None else (None, 0)
            if not oracles.search_result_ok(rows, length, n, k, d):
                bad.add(i)
        return bad


WORKLOADS = {"table": Table, "corpus": Corpus, "analyze": Analyze,
             "search": Search}
