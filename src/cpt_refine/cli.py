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
written, 3 shape mismatch, 4 search space guard exceeded. The SICI
partition sweep runs its partitions one after another in this process and
prints a progress line after each one.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from . import fixtures as fixture_data
from .cpt import Cpt, param_count, score_sum_kl, score_sum_tvd, tvd_row
from .errors import SearchSpaceError, ShapeMismatchError, ValidationError
from .io import (
    ReportRow,
    atomic_write_text,
    check_report_consistency,
    load_cpt,
    report_csv_text,
    report_text,
    save_cpt,
    side_by_side_csv_text,
)
from .optimizer import (
    GaConfig,
    optimize_ici,
    optimize_sici,
    optimize_sici_partition,
    scm_exact,
)
from .refine import (
    ApproxResult,
    DivorceSpec,
    IciSpec,
    PruneSpec,
    RefinementSpec,
    ScmSpec,
    SiciSpec,
    default_binarization,
    divorce_best,
    evaluate_spec,
    prune_best,
)

METHODS = ("pruning", "divorcing", "scm", "ici", "sici")


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ShapeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SearchSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--gate", choices=("AND", "OR", "XOR"), default=None)
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
    if isinstance(spec, IciSpec):
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
    if args.metric == "kl":
        score = score_sum_kl(truth, approx)
    else:
        score = score_sum_tvd(truth, approx)
    if args.verbose:
        from .cpt import config_table, kl_row

        states = config_table(truth.parent_cards)
        for k in range(truth.n_rows):
            row_metric = (
                tvd_row(truth.rows[k], approx.rows[k])
                if args.metric == "tvd"
                else kl_row(truth.rows[k], approx.rows[k])
            )
            labels = ", ".join(
                f"{v.name}={v.states[s]}" for v, s in zip(truth.parents, states[k])
            )
            print(f"row {k + 1:>3} ({labels}): {row_metric:.4f}")
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


def _parse_state_map(truth: Cpt, entries: list[str]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for entry in entries:
        if "=" not in entry:
            raise ValidationError(f"--map needs PARENT=STATE[,STATE], got {entry!r}")
        name, states = entry.split("=", 1)
        i = _parent_index(truth, name.strip())
        variable = truth.parents[i]
        indices = []
        for label in states.split(","):
            if label not in variable.states:
                raise ValidationError(
                    f"unknown state {label!r} for {variable.name}; states are {variable.states}"
                )
            indices.append(variable.states.index(label))
        out[i] = indices
    return out


def cmd_divorce(args) -> int:
    truth = load_cpt(args.truth)
    if args.parents is None:
        if args.gate is not None or args.map:
            raise ValidationError("--gate/--map need --parents; usage: "
                                  "divorce TRUTH --parents A,B [--gate G] [--map P=STATE,...]")
        spec, result = divorce_best(truth)
    else:
        divorced = tuple(_parent_index(truth, n.strip()) for n in args.parents.split(","))
        overrides = _parse_state_map(truth, args.map)
        binarization = default_binarization(truth.parent_cards, divorced, overrides)
        spec = DivorceSpec(divorced, args.gate or "AND", binarization)
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
    for block_text in text.split("|"):
        names = [n.strip() for n in block_text.split(",") if n.strip()]
        if not names:
            raise ValidationError(f"empty block in partition {text!r}")
        blocks.append(tuple(_parent_index(truth, n) for n in names))
    return tuple(blocks)


def cmd_sici(args) -> int:
    truth = load_cpt(args.truth)
    config = _ga_config(args)
    if args.partition is not None:
        search = optimize_sici_partition(truth, _parse_partition(truth, args.partition), config)
    else:
        sweep = optimize_sici(
            truth,
            config,
            on_progress=lambda done, total, best: print(
                f"sici: partition {done}/{total}, best {best:.4f}", file=sys.stderr
            ),
        )
        search = sweep.best
    _emit_result(truth, search.best_spec, search.fit, args.out)
    return 0


def cmd_reproduce(args) -> int:
    truth = load_cpt(args.truth)
    config = _ga_config(args)
    out = Path(args.out)

    say = lambda msg: print(msg, file=sys.stderr)
    say("pruning: exhaustive over single-parent prunes")
    prune_spec, prune_result = prune_best(truth)
    say("divorcing: exhaustive over pairs, gates and binarizations")
    div_spec, div_result = divorce_best(truth)
    say("scm: exact search over sorted contiguous row splits")
    scm_search = scm_exact(truth)
    say("ici: coordinate descent from seeded random starts")
    ici_search = optimize_ici(truth, config)
    say("sici: coordinate descent per parent partition")
    sici_search = optimize_sici(truth, replace(config, seed=config.seed + config.restarts)).best

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
    check_report_consistency(rows, truth)

    atomic_write_text(out, report_csv_text(rows))
    side = out.with_name(out.stem + "_cpts.csv")
    atomic_write_text(side, side_by_side_csv_text(truth, {n: r.cpt for n, _, r in named}))
    written = [out, side]
    for name, _, res in named:
        doc = out.with_name(f"{out.stem}_{name}.json")
        save_cpt(res.cpt, doc)
        written.append(doc)

    print(report_text(rows, full), end="")
    print("wrote: " + ", ".join(str(p) for p in written))
    return 0


def cmd_fixtures(args) -> int:
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)
    for name in fixture_data.FIXTURE_NAMES:
        shutil.copyfile(fixture_data.fixture_path(name), dest / f"{name}.json")
    print(f"copied {len(fixture_data.FIXTURE_NAMES)} documents to {dest}/")
    return 0


if __name__ == "__main__":
    entry_point()
