"""Seeded job lists for the benchmark workloads.

A job is the argv list of one ``hoisearch`` command. The program only ever
sees these lists; the seed stays on the benchmark side.

Each workload is a sequence of blocks. Every block holds the same strata in
the same counts: one job per slot, its parameters drawn from the seed within
a narrow range, and the block's order shuffled by the seed. The timing
metrics are taken over whole blocks, so every run measures the same mix of
job costs whatever the seed, and the median and the 90th percentile land
inside a stratum rather than on the step between two. An independent draw
per job would let one seed get three of the most expensive jobs in a row and
another none, which moves jobs per second by more than the bounds allow.

This module imports neither numpy nor hoisearch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Job:
    """One command: its argv without ``--out``, and the output format.

    ``fmt`` is ``"csv"`` or ``"json"`` for jobs that write ``--out`` and
    ``None`` for ``verify``, which is checked from its standard output.
    """

    argv: tuple[str, ...]
    fmt: str | None


class Draws(random.Random):
    """The seeded source of one job list.

    `deal` goes through a set of values in a seeded order, each value once
    before any value twice, so the mix of sizes in a run hardly depends on
    the seed.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._decks: dict[object, list] = {}

    def deal(self, key: object, values: tuple):
        deck = self._decks.setdefault(key, [])
        if not deck:
            deck.extend(self.sample(values, len(values)))
        return deck.pop()


Slot = Callable[[Draws], Job]


def _below(base: int, rng: Draws, share: float = 0.03) -> int:
    """An integer in ``[base (1 - share), base]``: close in cost to ``base``."""
    return int(round(base * (1.0 - share * rng.random())))


def _grover_search(base: int, fmt: str, share: float = 0.03) -> Slot:
    def make(rng: Draws) -> Job:
        argv = ("search", "--model", "quantum", "--strategy", "grover",
                "--n", str(_below(base, rng, share)), "--format", fmt)
        return Job(argv, fmt)
    return make


def _grover_sweep(base: int, fmt: str) -> Slot:
    def make(rng: Draws) -> Job:
        b = _below(base, rng)
        argv = ("sweep", "--model", "quantum", "--strategy", "grover",
                "--n", f"{b},{2 * b},{4 * b}", "--format", fmt)
        return Job(argv, fmt)
    return make


def _random_bound(model: str, n: int, h: int | None, k_max: int) -> Slot:
    def make(rng: Draws) -> Job:
        argv = ["bound", "--model", model, "--n", str(n)]
        if h is not None:
            argv += ["--h", str(h)]
        argv += ["--strategy", "random", "--seeds", f"{rng.randrange(2**31)},",
                 "--k-max", str(k_max)]
        return Job(tuple(argv), "csv")
    return make


def _dense_grover(ns: tuple[int, ...]) -> Slot:
    def make(rng: Draws) -> Job:
        argv = ("search", "--model", "quantum", "--strategy", "grover",
                "--n", str(rng.deal(make, ns)))
        return Job(argv, "csv")
    return make


def _synthetic_reflect(h: int, ns: tuple[int, ...]) -> Slot:
    def make(rng: Draws) -> Job:
        argv = ("search", "--model", "synthetic", "--h", str(h), "--strategy", "reflect",
                "--n", str(rng.deal(make, ns)))
        return Job(argv, "csv")
    return make


def _classical_bound(ns: tuple[int, ...]) -> Slot:
    def make(rng: Draws) -> Job:
        argv = ("bound", "--model", "classical", "--strategy", "reflect",
                "--n", str(rng.deal(make, ns)), "--format", "json")
        return Job(argv, "json")
    return make


def _verify(n_max: int) -> Slot:
    return lambda _rng: Job(("verify", "--n-max", str(n_max)), None)


# Slots of one block, as (count, slot). The comments give the approximate
# cost of one job on a 2-vCPU x86 machine with one BLAS thread; the counts
# put the median and the 90th percentile inside the marked strata, away from
# a step in cost.
WORKLOADS: dict[str, tuple[tuple[int, Slot], ...]] = {
    # The O(N^2 k) amplitude fast path (N > 32, no model is built). N spans
    # the 2 MiB per-core L2 boundary: the N x N amplitude array holds 2 MiB
    # at N = 512.
    "grover-amp": (
        (1, _grover_search(64, "csv")),
        (1, _grover_search(96, "json")),
        (1, _grover_search(128, "csv")),
        (1, _grover_search(192, "csv")),
        (1, _grover_search(256, "csv")),                  # 0.015 s
        (1, _grover_search(256, "json")),
        (1, _grover_sweep(64, "csv")),                    # 0.03 s
        (1, _grover_sweep(64, "json")),
        (3, _grover_search(384, "csv")),                  # 0.04 s, median
        (2, _grover_search(384, "json")),
        (2, _grover_search(512, "csv")),                  # 0.09 s
        (1, _grover_sweep(128, "csv")),                   # 0.11 s
        (1, _grover_sweep(128, "json")),
        (1, _grover_search(768, "csv")),                  # 0.25 s
        (2, _grover_search(1024, "csv")),                 # 0.5 s, p90
        (1, _grover_search(1024, "json")),
        # the largest job sets peak memory, so its size does not vary
        (1, _grover_search(1536, "csv", share=0.0)),      # 1.5 s
    ),
    # Many short jobs whose time goes to model construction and checks, the
    # dense lift, exact subset counts and per-job CLI costs; the dense side
    # of the quantum dense/fast-path selection. The two random-schedule
    # bound checks (criterion 5) keep Haar draws in models measured: at
    # quantum N = 16 (M = 256) the QR of the draws does most of the work.
    "small-mixed": (
        # 24 of the 35 jobs cost 3.5-4.8 ms, almost all of it per-job fixed
        # cost; the median lands three quarters of the way through them
        (9, _synthetic_reflect(2, (4, 5, 6))),
        (7, _synthetic_reflect(3, (6, 7, 8))),
        (8, _classical_bound((8, 12, 16, 20, 24))),
        (2, _dense_grover((4, 5, 6))),                    # 6-15 ms
        (1, _random_bound("quantum", 8, None, 8)),        # 10 ms, M = 64
        (2, _dense_grover((7, 8, 9))),                    # 25-57 ms
        (1, _verify(4)),                                  # 29 ms
        (1, _random_bound("quantum", 16, None, 16)),      # 0.12 s, M = 256, p90
        (1, _verify(5)),                                  # 0.12 s, p90
        (1, _dense_grover((12,))),                        # 0.17 s
        (1, _verify(6)),                                  # 0.16 s
        (1, _dense_grover((13, 14, 15, 16))),             # 0.2-0.5 s
    ),
    # Tiny jobs of every kind, for checking that every metric is emitted.
    "smoke": (
        (1, _verify(3)),
        (1, _dense_grover((4,))),
        (1, _grover_search(40, "json")),
        (1, _grover_sweep(36, "csv")),
        (1, _random_bound("quantum", 3, None, 3)),
        (1, _synthetic_reflect(2, (4,))),
    ),
}


def block_size(workload: str) -> int:
    return sum(count for count, _slot in WORKLOADS[workload])


class JobList:
    """The endless, seeded job sequence of one workload.

    ``jobs[i]`` is generated block by block on first use and kept, so a
    replay of the first ``n`` jobs sees exactly the same commands.
    """

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self._slots = WORKLOADS[workload]
        self._rng = Draws(seed)
        self._jobs: list[Job] = []
        self._add_block()

    def _add_block(self) -> None:
        self._jobs.extend(slot(self._rng) for count, slot in self._slots for _ in range(count))

    def __getitem__(self, index: int) -> Job:
        while len(self._jobs) <= index:
            self._add_block()
        return self._jobs[index]
