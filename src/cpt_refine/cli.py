"""Command-line interface.

Subcommands::

    score      truth.json approx.json [--metric tvd|kl] [--verbose]
    reproduce  truth.json [--seed S] [--restarts R] [--out report.csv] ...
    prune      truth.json [--parent NAME] [--out approx.json]
    divorce    truth.json [--parents A,B --gate AND --map P=state,...] [--out ...]
    scm        truth.json [--out ...]
    ici        truth.json [--seed ...] [--out ...]
    sici       truth.json [--partition "A | B,C"] [--seed ...] [--out ...]
    fixtures   [--dest DIR]

Exit codes: 0 success, 2 validation failure or a file that cannot be read or
written, 3 shape or variable mismatch, 4 search space guard exceeded. The SICI
partition sweep runs its partitions one after another in this process and
prints a progress line after each one. ``reproduce`` runs it once: the best
is the SICI row, and the singleton partition (ICI itself) is the ICI row.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import shutil
import sys
from pathlib import Path

from . import fixtures as fixture_data
from .cpt import Cpt, kl_row, param_count, score_sum_kl, score_sum_tvd, tvd_row
from .errors import SearchSpaceError, ShapeMismatchError, ValidationError
from .io import (
    ReportRow,
    _config_labels,
    _row_labels,
    atomic_write_text,
    load_cpt,
    report_csv_text,
    report_text,
    save_cpt,
    side_by_side_csv_text,
)
from .optimizer import (
    GaConfig,
    SiciSweep,
    optimize_ici,
    optimize_sici,
    optimize_sici_partition,
    scm_exact,
)
from .refine import (
    GATES,
    ApproxResult,
    DivorceSpec,
    IciSpec,
    PruneSpec,
    RefinementSpec,
    ScmSpec,
    SiciSpec,
    divorce_best,
    evaluate_spec,
    prune_best,
)

METHODS = ("pruning", "divorcing", "scm", "ici", "sici")
_EXIT_CODES = {ShapeMismatchError: 3, SearchSpaceError: 4}  # the rest, unreadable files too, exit 2


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out:  # fail before any search runs, naming the path as given
            beside = _beside_report(Path(out)) if args.func is cmd_reproduce else []
            for path in [out, *map(str, beside)]:
                if Path(path).is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if not Path(out).parent.is_dir():
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
        return args.func(args)
    except (ValidationError, ShapeMismatchError, SearchSpaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused: parsing keeps
    no state in it (``--map`` appends to a copy of its default list)."""
    parser = argparse.ArgumentParser(
        prog="cpt-refine",
        description="Approximate a CPT through structural refinement methods.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("score", help="sum of row-wise distances between two CPTs")
    p.add_argument("truth")
    p.add_argument("approx")
    p.add_argument("--metric", choices=("tvd", "kl"), default="tvd")
    p.add_argument("--verbose", action="store_true", help="per-row breakdown")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("reproduce", help="run all five methods and emit reports")
    p.add_argument("truth")
    p.add_argument("--out", default="report.csv", help="report path (default report.csv)")
    _add_ga_flags(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("prune", help="single-parent pruning")
    p.add_argument("truth")
    p.add_argument("--parent", help="parent to prune (default: best by score)")
    p.add_argument("--out", help="write the expanded approximate CPT here")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("divorce", help="divorce parents through a logic gate")
    p.add_argument("truth")
    p.add_argument("--parents", help="comma-separated parents (default: best pair)")
    p.add_argument("--gate", choices=GATES, default=None)
    p.add_argument(
        "--map",
        action="append",
        default=[],
        metavar="PARENT=STATE[,STATE]",
        help="states mapping to gate input 1 (repeatable; binary parents default to state 1)",
    )
    p.add_argument("--out", help="write the expanded approximate CPT here")
    p.set_defaults(func=cmd_divorce)

    p = sub.add_parser("scm", help="exact simple-canonical-model search")
    p.add_argument("truth")
    p.add_argument("--out", help="write the expanded approximate CPT here")
    p.add_argument("--quiet", action="store_true", help="no effect; the search prints nothing")
    p.set_defaults(func=cmd_scm)

    p = sub.add_parser("ici", help="coordinate-descent search of the ICI model")
    p.add_argument("truth")
    p.add_argument("--out", help="write the expanded approximate CPT here")
    _add_ga_flags(p)
    p.set_defaults(func=cmd_ici)

    p = sub.add_parser("sici", help="coordinate-descent search of US-SICI models")
    p.add_argument("truth")
    p.add_argument(
        "--partition",
        help='parent partition like "Hypertension | Depression,Sex,SleepDuration" '
        "(default: sweep every multi-block partition)",
    )
    p.add_argument("--out", help="write the expanded approximate CPT here")
    _add_ga_flags(p)
    p.set_defaults(func=cmd_sici)

    p = sub.add_parser("fixtures", help="copy the bundled benchmark documents")
    p.add_argument("--dest", default="data", help="destination directory (default data/)")
    p.set_defaults(func=cmd_fixtures)
    return parser


def _add_ga_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed of the first batch (default 0)")
    p.add_argument("--restarts", type=int, default=10,
                   help="batches of random starts (default 10)")
    p.add_argument("--population", type=int, default=300,
                   help="random starts per batch (default 300)")
    p.add_argument("--max-generations", type=int, default=2000,
                   help="cap on coordinate-descent sweeps per batch (default 2000)")
    p.add_argument("--stall", type=int, default=50,
                   help="no effect; a batch stops after a sweep that gains less than 1e-5")


def _ga_config(args) -> GaConfig:
    return GaConfig(
        population=args.population,
        max_generations=args.max_generations,
        seed=args.seed,
        restarts=args.restarts,
    )


def spec_summary(truth: Cpt, spec: RefinementSpec) -> str:
    names = [v.name for v in truth.parents]
    if isinstance(spec, PruneSpec):
        return f"prune {names[spec.parent]}"
    if isinstance(spec, DivorceSpec):
        gates = ", ".join(
            f"{names[i]}={{{','.join(truth.parents[i].states[s] for s in b)}}}"
            for i, b in zip(spec.divorced, spec.binarization)
        )
        return f"{spec.gate} gate over {gates}"
    if isinstance(spec, ScmSpec):
        size1 = sum(spec.assignment)
        return f"row bipartition {len(spec.assignment) - size1}|{size1}"
    if isinstance(spec, IciSpec):  # before SiciSpec: every IciSpec is one
        yes = sum(spec.combiner)
        return f"per-parent mechanisms; combiner maps {yes}/{len(spec.combiner)} configs to state 1"
    if isinstance(spec, SiciSpec):
        blocks = " | ".join("{" + ", ".join(names[i] for i in b) + "}" for b in spec.parent_partition)
        return f"mechanism blocks {blocks}"
    return type(spec).__name__


def _emit_result(truth: Cpt, spec: RefinementSpec, result: ApproxResult, out: str | None) -> None:
    print(f"spec: {spec_summary(truth, spec)}")
    print(f"score: {result.score:.4f}")
    print(f"free parameters: {result.free_params}")
    if out:
        save_cpt(result.cpt, out)
        print(f"wrote {out}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_score(args) -> int:
    truth = load_cpt(args.truth)
    approx = load_cpt(args.approx)
    # tables of different nodes can share a shape; compare the child, then each parent
    roles = ["child", *(f"parent {i + 1}" for i in range(len(truth.parents)))]
    pairs = zip(roles, (truth.child, *truth.parents), (approx.child, *approx.parents))
    for role, a, b in pairs:
        if a != b:
            raise ShapeMismatchError(
                f"variable mismatch: {role} is {a.name} ({', '.join(a.states)}) in "
                f"{args.truth} but {b.name} ({', '.join(b.states)}) in {args.approx}"
            )
    kl = args.metric == "kl"
    score = (score_sum_kl if kl else score_sum_tvd)(truth, approx)
    if args.verbose:
        row_metric = kl_row if kl else tvd_row
        configs = _row_labels(truth.parents, str).tolist()
        for k in range(truth.n_rows):
            labels = _config_labels(truth.parents, configs[k])
            print(f"row {k + 1:>3} ({labels}): {row_metric(truth.rows[k], approx.rows[k]):.4f}")
    print(f"{score:.4f}")
    return 0


def _parent_index(truth: Cpt, name: str) -> int:
    for i, v in enumerate(truth.parents):
        if v.name == name:
            return i
    raise ValidationError(
        f"no parent named {name!r}; parents are {[v.name for v in truth.parents]}"
    )


def cmd_prune(args) -> int:
    truth = load_cpt(args.truth)
    if args.parent is None:
        spec, result = prune_best(truth)
    else:
        spec = PruneSpec(_parent_index(truth, args.parent))
        result = evaluate_spec(truth, spec)
    _emit_result(truth, spec, result, args.out)
    return 0


def _binarization(truth: Cpt, divorced: tuple[int, ...], entries: list[str]) -> tuple:
    """Per divorced parent, the states ``--map`` sends to gate input 1, read in one pass
    over its entries: state 1 of a binary parent unless mapped; a wider parent must be
    mapped. A mapping names some but not all states, each once, of a divorced parent,
    and is given once. Errors name the parent."""
    mapped: dict[int, list[int]] = {}
    for entry in entries:
        if "=" not in entry:
            raise ValidationError(f"--map needs PARENT=STATE[,STATE], got {entry!r}")
        name, states = entry.split("=", 1)
        i = _parent_index(truth, name.strip())
        variable = truth.parents[i]
        if i in mapped:
            raise ValidationError(f"--map gives parent {variable.name} twice; "
                                  "list all its states in one PARENT=STATE[,STATE]")
        unknown = [label for label in states.split(",") if label not in variable.states]
        if unknown:
            raise ValidationError(
                f"unknown state {unknown[0]!r} for {variable.name}; states are {variable.states}"
            )
        mapped[i] = [variable.states.index(label) for label in states.split(",")]
    stray = [truth.parents[i].name for i in mapped if i not in divorced]
    if stray:
        raise ValidationError(f"binarization given for parent {stray[0]}, which is not divorced")
    for i in divorced:
        name, card = truth.parents[i].name, truth.parents[i].cardinality
        if i not in mapped and card != 2:
            raise ValidationError(f"parent {name} has {card} states; "
                                  "choose which map to gate input 1")
        b = mapped.setdefault(i, [1])
        if not 0 < len(set(b)) == len(b) < card:
            raise ValidationError(f"parent {name} must map some but not all of its states "
                                  "to gate input 1, each once")
    return tuple(mapped[i] for i in divorced)


def cmd_divorce(args) -> int:
    truth = load_cpt(args.truth)
    if args.parents is None:
        if args.gate is not None or args.map:
            raise ValidationError("--gate/--map need --parents; usage: "
                                  "divorce TRUTH --parents A,B [--gate G] [--map P=STATE,...]")
        spec, result = divorce_best(truth)
    else:
        divorced = tuple(_parent_index(truth, n.strip()) for n in args.parents.split(","))
        for j, i in enumerate(divorced):
            if i in divorced[:j]:
                raise ValidationError(f"--parents names {truth.parents[i].name} twice")
        spec = DivorceSpec(divorced, args.gate or "AND", _binarization(truth, divorced, args.map))
        result = evaluate_spec(truth, spec)
    _emit_result(truth, spec, result, args.out)
    return 0


def cmd_scm(args) -> int:
    truth = load_cpt(args.truth)
    search = scm_exact(truth)
    _emit_result(truth, search.best_spec, search.fit, args.out)
    return 0


def cmd_ici(args) -> int:
    truth = load_cpt(args.truth)
    search = optimize_ici(truth, _ga_config(args))
    _emit_result(truth, search.best_spec, search.fit, args.out)
    return 0


def _parse_partition(truth: Cpt, text: str) -> tuple[tuple[int, ...], ...]:
    blocks = []
    named: set[int] = set()
    for block_text in text.split("|"):
        names = [n.strip() for n in block_text.split(",") if n.strip()]
        if not names:
            raise ValidationError(f"empty block in partition {text!r}")
        block = tuple(_parent_index(truth, n) for n in names)
        for i in block:
            if i in named:
                raise ValidationError(f"partition {text!r} names {truth.parents[i].name} twice")
            named.add(i)
        blocks.append(block)
    missing = [v.name for i, v in enumerate(truth.parents) if all(i not in b for b in blocks)]
    if missing:
        raise ValidationError(f"partition {text!r} leaves out {', '.join(missing)}")
    return tuple(blocks)


def _sweep(truth: Cpt, args) -> SiciSweep:
    """The SICI partition sweep; a progress line goes to stderr after each partition."""
    progress = lambda done, total, best: print(
        f"sici: partition {done}/{total}, best {best:.4f}", file=sys.stderr
    )
    return optimize_sici(truth, _ga_config(args), on_progress=progress)


def cmd_sici(args) -> int:
    truth = load_cpt(args.truth)
    if args.partition is not None:
        partition = _parse_partition(truth, args.partition)
        search = optimize_sici_partition(truth, partition, _ga_config(args))
    else:
        search = _sweep(truth, args).best
    _emit_result(truth, search.best_spec, search.fit, args.out)
    return 0


def cmd_reproduce(args) -> int:
    truth = load_cpt(args.truth)
    out = Path(args.out)

    say = lambda msg: print(msg, file=sys.stderr)
    say("pruning: exhaustive over single-parent prunes")
    prune_spec, prune_result = prune_best(truth)
    say("divorcing: exhaustive over pairs, gates and binarizations")
    div_spec, div_result = divorce_best(truth)
    say("scm: exact search over sorted contiguous row splits")
    scm_search = scm_exact(truth)
    say("ici, sici: coordinate descent per parent partition; ICI is the singleton one")
    sweep = _sweep(truth, args)
    ici_search, sici_search = sweep.ici, sweep.best

    named: list[tuple[str, RefinementSpec, ApproxResult]] = [
        ("pruning", prune_spec, prune_result),
        ("divorcing", div_spec, div_result),
        ("scm", scm_search.best_spec, scm_search.fit),
        ("ici", ici_search.best_spec, ici_search.fit),
        ("sici", sici_search.best_spec, sici_search.fit),
    ]
    full = param_count(truth.parent_cards, truth.child.cardinality)
    rows = [
        ReportRow(name, res.score, res.free_params, full - res.free_params,
                  spec_summary(truth, spec))
        for name, spec, res in named
    ]

    atomic_write_text(out, report_csv_text(rows))
    side, *docs = _beside_report(out)
    atomic_write_text(side, side_by_side_csv_text(truth, {n: r.cpt for n, _, r in named}))
    for doc, (_, _, res) in zip(docs, named):
        save_cpt(res.cpt, doc)

    print(report_text(rows, full), end="")
    print("wrote: " + ", ".join(str(p) for p in [out, side, *docs]))
    return 0


def _beside_report(out: Path) -> list[Path]:
    """The files ``reproduce`` writes beside its report ``out``, in order: the
    side-by-side CPTs, then one document per method."""
    return [out.with_name(out.stem + "_cpts.csv"),
            *(out.with_name(f"{out.stem}_{m}.json") for m in METHODS)]


def cmd_fixtures(args) -> int:
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)
    for name in fixture_data.FIXTURE_NAMES:
        shutil.copyfile(fixture_data.fixture_path(name), dest / f"{name}.json")
    print(f"copied {len(fixture_data.FIXTURE_NAMES)} documents to {dest}/")
    return 0


if __name__ == "__main__":
    entry_point()
