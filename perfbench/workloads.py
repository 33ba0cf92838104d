"""Seeded input documents and CLI commands for the benchmark workloads.

Every workload is a pool of CPT documents plus the command(s) one job runs
on each document:

* ``anxiety``: the bundled 24-row Anxiety CPT through ``prune``,
  ``divorce``, ``scm`` and ``ici --restarts 2`` at the default GA seed. It is
  the paper's own case and the only pool with the full 2^23 SCM scan; its GA
  fitness calls work on large arrays.
* ``network``: small Bayesian-network nodes (3 parents of cardinality 2-3,
  8-18 rows, binary child) through ``reproduce --restarts 1``, each GA run
  held to 100 generations. Half the
  nodes follow a planted ICI or SICI model plus noise, the rest have
  Dirichlet rows. Many small GA runs, SCM scans of at most 2^17.
* ``wide``: wide tables (6-8 parents of cardinality 2-4, 192-256 rows,
  2- or 3-state child) through ``prune`` then ``divorce``. No search
  applies, so all time goes to exact grouping fits and to io.

Each pool is a fixed list of base documents, drawn once from a constant
seed. The workload seed permutes every document's parents, jitters its
probabilities and, on ``network``, seeds the GA. Documents thus differ from seed to seed
while the quality means over a pool stay comparable across seeds: drawing
whole new tables per seed moved the pool means by 15-30% between seeds.
A job is deterministic: run again, it repeats the same work and writes the
same bytes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

REPRODUCE_METHODS = ("pruning", "divorcing", "scm", "ici", "sici")

# Scores the paper reports for the Anxiety CPT (exact methods, 4 dp) and the
# ceilings the acceptance tests put on the two GA searches at 10 restarts.
ANXIETY_EXACT = {"pruning": "0.6485", "divorcing": "0.5072", "scm": "1.2693"}
ANXIETY_CEILINGS = {"ici": 0.5720, "sici": 0.3900}

# (parent cardinalities, model kind): every 3-parent shape with at most 18
# rows, each planted as ICI, as SICI and twice with Dirichlet rows. Nodes
# with 4 parents were tried and left out: with one GA restart their job
# times moved by 40% from seed to seed, too much to measure within a run.
_NETWORK_POOL = tuple(
    (cards, kind)
    for kind in ("ici", "dirichlet", "sici", "dirichlet")
    for cards in ((2, 2, 2), (2, 2, 3), (2, 3, 3))
)
# (parent cardinalities, child cardinality)
_WIDE_POOL = (
    ((2, 2, 2, 3, 3, 3), 3),
    ((2, 2, 2, 2, 2, 2, 4), 2),
    ((2, 2, 2, 2, 3, 4), 3),
    ((2, 2, 2, 2, 2, 2, 2, 2), 2),
)
# A fixed budget of generations: with the default stall limit of 50 the
# searches ran 15.5-22 s per pass over the pool, depending on the seed alone.
_NETWORK_GA = ("--restarts", "1", "--max-generations", "100", "--stall", "100")
_TINY_GA = ("--restarts", "1", "--population", "16", "--max-generations", "4", "--stall", "2")


# The CLI subcommands one job runs, per workload.
STEPS = {
    "anxiety": ("prune", "divorce", "scm", "ici"),
    "network": ("reproduce",),
    "wide": ("prune", "divorce"),
}
# The approximation method each single-method command reports.
METHOD_OF = {"prune": "pruning", "divorce": "divorcing", "scm": "scm", "ici": "ici",
             "sici": "sici"}


@dataclass(frozen=True)
class Workload:
    """A pool of truth documents and the commands one job runs on each."""

    name: str
    docs: tuple[tuple[str, dict], ...]  # (stem, CPT document)
    warmup: tuple[str, dict]
    steps: tuple[str, ...]  # CLI subcommands of one job, in order
    ga_flags: tuple[str, ...]  # GA flags of the steps that search
    ga_seed: int

    @property
    def methods(self) -> tuple[str, ...]:
        """The methods one job reports, in the order it reports them."""
        if "reproduce" in self.steps:
            return REPRODUCE_METHODS
        return tuple(METHOD_OF[step] for step in self.steps)

    def for_warmup(self) -> "Workload":
        """The same commands with a token GA, for the untimed warm-up job."""
        return replace(self, ga_flags=_TINY_GA)

    def commands(self, truth: Path, out_dir: Path) -> list[list[str]]:
        """argv lists of one job on ``truth``, writing under ``out_dir``."""
        ga = [*self.ga_flags, "--seed", str(self.ga_seed)]
        argvs = []
        for step in self.steps:
            if step == "reproduce":
                argvs.append(["reproduce", str(truth), "--out", str(out_dir / "report.csv"), *ga])
                continue
            argv = [step, str(truth), "--out", str(out_dir / f"report_{METHOD_OF[step]}.json")]
            if step == "scm":
                argv.append("--quiet")
            if step in ("ici", "sici"):
                argv += ga
            argvs.append(argv)
        return argvs


def build(name: str, seed: int, anxiety_doc: dict, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``tiny`` shrinks it for the self-test."""
    base = np.random.default_rng([_BASE_SEED, _WORKLOAD_IDS[name]])
    rng = np.random.default_rng([seed, _WORKLOAD_IDS[name]])
    if name == "anxiety":
        # The CLI's default GA seed, 0, not the workload seed: the best of two
        # ICI restarts misses 0.5720 for about half of all seeds, so a
        # seeded score would jump between two modes from run to run.
        flags = _TINY_GA if tiny else ("--restarts", "2")
        return Workload(name, (("anxiety", anxiety_doc),), _warmup_doc(rng, 2),
                        STEPS[name], flags, 0)
    if name == "network":
        pool = _NETWORK_POOL[:2] if tiny else _NETWORK_POOL
        docs = tuple((f"node{i}", _network_doc(base, rng, cards, kind))
                     for i, (cards, kind) in enumerate(pool))
        flags = _TINY_GA if tiny else _NETWORK_GA
        return Workload(name, docs, _warmup_doc(rng, 2), STEPS[name], flags, seed)
    if name == "wide":
        pool = (((2, 2, 3, 3), 3),) if tiny else _WIDE_POOL
        docs = tuple((f"table{i}", _wide_doc(base, rng, cards, child))
                     for i, (cards, child) in enumerate(pool))
        return Workload(name, docs, _warmup_doc(rng, 3), STEPS[name], (), seed)
    raise ValueError(f"unknown workload {name!r}")


_BASE_SEED = 20251001
_WORKLOAD_IDS = {"anxiety": 1, "network": 2, "wide": 3}
WORKLOADS = tuple(_WORKLOAD_IDS)


def _document(cards: tuple[int, ...], rows: np.ndarray) -> dict:
    """A format-1 CPT document; rows in canonical order (first parent fastest)."""
    configs = [tuple(reversed(c)) for c in itertools.product(*(range(k) for k in reversed(cards)))]
    return {
        "format": 1,
        "child": {"name": "Y", "states": [f"y{j}" for j in range(rows.shape[1])]},
        "parents": [
            {"name": f"X{i}", "states": [f"x{i}s{s}" for s in range(k)]}
            for i, k in enumerate(cards)
        ],
        "rows": [
            {"config": [f"x{i}s{s}" for i, s in enumerate(cfg)], "probs": _probs(row)}
            for cfg, row in zip(configs, rows)
        ],
    }


def _probs(row: np.ndarray) -> list[float]:
    """Row as floats whose sum is 1 to rounding: the last entry takes the rest."""
    head = [float(p) for p in row[:-1]]
    return head + [1.0 - math.fsum(head)]


def _config_states(cards: tuple[int, ...]) -> np.ndarray:
    """(rows, parents) state indices in canonical order."""
    n = math.prod(cards)
    k = np.arange(n)
    out = np.empty((n, len(cards)), dtype=np.int64)
    stride = 1
    for i, c in enumerate(cards):
        out[:, i] = (k // stride) % c
        stride *= c
    return out


def _planted_yes(rng: np.random.Generator, cards: tuple[int, ...], blocks) -> np.ndarray:
    """P(Y=1) per row of a US-SICI model: one binary mechanism per parent block,
    combined by a random deterministic function of the mechanism states."""
    states = _config_states(cards)
    m = len(blocks)
    p1 = []
    for block in blocks:
        idx = np.zeros(len(states), dtype=np.int64)
        stride = 1
        for i in block:
            idx += states[:, i] * stride
            stride *= cards[i]
        p1.append(rng.uniform(0.05, 0.95, size=stride)[idx])
    combiner = rng.integers(0, 2, size=1 << m)
    combiner[0] = 0
    combiner[-1] = 1
    yes = np.zeros(len(states))
    for mconf in range(1 << m):
        joint = np.ones(len(states))
        for b in range(m):
            joint *= p1[b] if (mconf >> b) & 1 else 1.0 - p1[b]
        yes += combiner[mconf] * joint
    return yes


def _permuted(rng: np.random.Generator, cards: tuple[int, ...], rows: np.ndarray) -> dict:
    """Document of ``rows`` with the parents in a random order."""
    perm = rng.permutation(len(cards))  # new parent j is old parent perm[j]
    new_cards = tuple(cards[i] for i in perm)
    old_index = np.zeros(len(rows), dtype=np.int64)
    new_states = _config_states(new_cards)
    for j, i in enumerate(perm):
        old_index += new_states[:, j] * math.prod(cards[:i])
    return _document(new_cards, rows[old_index])


def _network_doc(base: np.random.Generator, rng: np.random.Generator, cards: tuple[int, ...],
                 kind: str) -> dict:
    n_rows = math.prod(cards)
    if kind == "dirichlet":
        yes = base.dirichlet((1.0, 1.0), size=n_rows)[:, 1]
    else:
        n = len(cards)
        if kind == "ici":
            blocks = [(i,) for i in range(n)]
        else:
            order = base.permutation(n)
            cut = int(base.integers(1, n))
            blocks = [tuple(sorted(order[:cut])), tuple(sorted(order[cut:]))]
        yes = _planted_yes(base, cards, blocks) + base.normal(0.0, 0.03, size=n_rows)
    yes = np.clip(yes + rng.normal(0.0, 0.02, size=n_rows), 0.01, 0.99)
    return _permuted(rng, cards, np.stack([1.0 - yes, yes], axis=1))


def _wide_doc(base: np.random.Generator, rng: np.random.Generator, cards: tuple[int, ...],
              child_card: int) -> dict:
    """Rows depend mainly on all but two parents, with a per-row Dirichlet share."""
    states = _config_states(cards)
    relevant = np.sort(base.choice(len(cards), size=len(cards) - 2, replace=False))
    idx = np.zeros(len(states), dtype=np.int64)
    stride = 1
    for i in relevant:
        idx += states[:, i] * stride
        stride *= cards[i]
    alpha = np.ones(child_card)
    rows = 0.85 * base.dirichlet(alpha, size=stride)[idx] + 0.15 * base.dirichlet(
        alpha, size=len(states))
    rows = 0.95 * rows + 0.05 * rng.dirichlet(alpha, size=len(states))
    return _permuted(rng, cards, rows)


def _warmup_doc(rng: np.random.Generator, child_card: int) -> tuple[str, dict]:
    """A small document (3 binary parents) run once, untimed, before the timed section."""
    cards = (2, 2, 2)
    rows = rng.dirichlet(np.ones(child_card), size=math.prod(cards))
    return "warmup", _document(cards, rows)
