"""Batch command-line front end.

Subcommands: ``validate`` (parse + DAG check of each step), ``run``
(trajectory sampling, JSON Lines), ``enumerate`` (exhaustive history law),
``classify`` (individuation timeline), and ``bench-memory`` (store-and-
recall fidelity sweep, CSV). Every command is deterministic given its inputs and seed;
stdout carries only data, diagnostics go to stderr. Exit codes: 0 success,
1 domain failure, 2 I/O or usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import sys

from . import jsonio
from .circuit import CircuitError, validate_dag
from .engine import (
    EngineError,
    TrajectoryBatch,
    _history_chunks,
    _history_labels,
    _walk,
    compile_program,
    load_run_spec,
    run_trajectory,
    sample_batches,
)
from .individuation import IndividuationError, classify_timeline
from .linalg import MAX_DIM
from .measurement import _STRATEGIES, MeasurementError, mean_recall_fidelity, recall_fidelity_bound
from .quantum import COMPLETENESS_TOL

DEFAULT_SEED = 20120712  # fixed so runs are reproducible by default


class _Echo:
    """A file whose ``write`` returns its text, so that ``writerow`` of a
    csv.writer over it returns the row's CSV line."""

    @staticmethod
    def write(text: str) -> str:
        return text


_CSV_LINE = csv.writer(_Echo(), lineterminator="\n")


def cmd_validate(args) -> int:
    try:
        program = load_run_spec(args.path)
    except CircuitError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    reports = [validate_dag(step.circuit, tol=args.tolerance) for step in program.steps]
    for t, report in enumerate(reports):
        print(f"step {t}: {report}" if len(reports) > 1 else report, file=sys.stderr)
    return 0 if all(report.ok for report in reports) else 1


def _output(args):
    """The stream a command writes its data to: the ``--out`` file or stdout."""
    return open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)


def _run_records(batch: TrajectoryBatch, labels, writer: jsonio.RecordWriter, seed: int,
                 store_states: bool) -> list[str]:
    """One batch's records as text. A batch holds one record per path, so
    each path's outcomes (``labels`` of its history), probability and final
    state are formatted once, as one text; a trajectory's record is its
    seed and index, then its path's text."""
    n = len(batch.path)
    return writer.format(labels(batch.events, batch.free), batch.probability,
                         head=([seed] * n, range(batch.start, batch.start + n)),
                         tail=(writer.vectors(batch.states[-1]),) if store_states else (),
                         body_of=batch.path.tolist())


def cmd_run(args) -> int:
    program = load_run_spec(args.path)
    inputs = args.inputs.split(",") if args.inputs else None
    compiled = compile_program(program, max_dim=args.max_dim)
    batches = sample_batches(program, range(args.trajectories), args.seed, inputs=inputs,
                             store_states=args.store_states, compiled=compiled)
    writer = jsonio.RecordWriter(("seed", "index"), ("final_state",) if args.store_states else (),
                                 indent=2 if args.format == "json" else None)
    labels = _history_labels(_walk(compiled), writer.pair, writer.joiner)
    texts = (_run_records(batch, labels, writer, args.seed, args.store_states) for batch in batches)
    with _output(args) as out:
        if args.format == "json":
            writer.write(out.write, texts)
            out.write("\n")
        else:
            out.writelines("\n".join(batch) + "\n" for batch in texts)
    return 0


def cmd_enumerate(args) -> int:
    program = load_run_spec(args.path)
    inputs = args.inputs.split(",") if args.inputs else None
    # Every check, the history cap's included, comes before the output is opened.
    walk, chunks = _history_chunks(program, inputs=inputs, max_dim=args.max_dim)
    count, total = 0, 0.0

    def records(item, join):
        """Each chunk's outcomes texts and probabilities, counted and summed
        left to right in record order (``sum`` compensates from Python 3.12)."""
        nonlocal count, total
        labels = _history_labels(walk, item, join)
        for ev, free, p in chunks:
            probs = p.tolist()
            count += len(probs)
            for q in probs:
                total += q
            yield labels(ev, free), probs

    with _output(args) as out:
        if args.format == "csv":
            rows = csv.writer(out, lineterminator="\n")
            rows.writerow(["outcomes", "probability"])
            # Quoting is decided once per (column, event) item: csv quotes a
            # field for the characters in it, so a field joined by ";" from
            # items it writes unquoted is written unquoted too.
            plain = True

            def item(pair):
                nonlocal plain
                text = "=".join(pair)
                plain = plain and _CSV_LINE.writerow([text]) == text + "\n"
                return text

            for fields, probs in records(item, lambda k: functools.partial(map, ";".join)):
                if plain:
                    out.writelines(map("%s,%.17g\n".__mod__, zip(fields, probs)))
                else:
                    rows.writerows(zip(fields, map("%.17g".__mod__, probs)))
        else:
            writer = jsonio.RecordWriter(indent=2, key="histories")
            batches = itertools.starmap(writer.format, records(writer.pair, writer.joiner))
            writer.write(out.write, batches, total_probability=lambda: total)
            out.write("\n")
    print(f"{count} histories, total probability {total:.12f}", file=sys.stderr)
    return 0


def cmd_classify(args) -> int:
    program = load_run_spec(args.path)
    traj = run_trajectory(program, seed=args.seed, store_states=True, max_dim=args.max_dim)
    partitions = classify_timeline(traj)
    records = [{"step": p.timestamp, "partition": p.block_lists(), "purities": list(p.purities)}
               for p in partitions]
    with _output(args) as out:
        out.write(jsonio.dumps(records, indent=2) + "\n")
    return 0


def cmd_bench_memory(args) -> int:
    with _output(args) as out:
        out.write("strategy,M,d,trials,mean_fidelity,std_error,bound\n")
        for strategy in args.strategies:
            for d in args.dims:
                for m in args.copies:
                    bound = float(recall_fidelity_bound(m, d))
                    try:
                        mean, err = mean_recall_fidelity(
                            strategy, m, d, args.trials, seed=args.seed
                        )
                    except MeasurementError as exc:
                        print(
                            f"warning: skipping {strategy} M={m} d={d}: {exc}",
                            file=sys.stderr,
                        )
                        out.write(f"{strategy},{m},{d},0,,,{bound:.6f}\n")
                        continue
                    out.write(
                        f"{strategy},{m},{d},{args.trials},"
                        f"{mean:.6f},{err:.6f},{bound:.6f}\n"
                    )
    return 0


def _at_least(low, kind=int):
    """An argparse type: an integer (``kind=float``: a finite number) >= ``low``."""
    def parse(text: str):
        with contextlib.suppress(ValueError):
            if low <= kind(text) < float("inf"):
                return kind(text)
        what = "an integer" if kind is int else "a finite number"
        raise argparse.ArgumentTypeError(f"expected {what} of at least {low}, got {text!r}")
    return parse


def _int_list_at_least(low: int):
    """An argparse type: comma-separated integers, each of at least ``low``."""
    item = _at_least(low)
    return lambda text: [item(x) for x in text.split(",")]


def _strategy_list(text: str) -> list[str]:
    """An argparse type: comma-separated names of recall strategies."""
    names = text.split(",")
    for name in names:
        if name not in _STRATEGIES:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated strategies from {', '.join(_STRATEGIES)}, got {text!r}")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onticsim",
        description="Operational-circuit trajectory simulator and analysis toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None, help="write output to a file")

    p = sub.add_parser("validate", help="parse a circuit or program file and check each step's DAG")
    p.add_argument("path")
    p.add_argument("--tolerance", type=_at_least(0, float), default=COMPLETENESS_TOL,
                   help="slack on the trace-nonincreasing normalization check")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", parents=[common], help="sample trajectories (JSON Lines)")
    p.add_argument("path")
    p.add_argument("--trajectories", type=_at_least(0), default=1)
    p.add_argument("--inputs", type=str, default=None,
                   help="comma-separated classical inputs, one per program step")
    p.add_argument("--store-states", action="store_true")
    p.add_argument("--format", choices=("jsonl", "json"), default="jsonl")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("enumerate", parents=[common], help="exact history distribution")
    p.add_argument("path")
    p.add_argument("--inputs", type=str, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", parents=[common],
                       help="individuation timeline of one stored-state trajectory")
    p.add_argument("path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bench-memory", parents=[common],
                       help="store-and-recall fidelity sweep (CSV)")
    p.add_argument("--strategies", type=_strategy_list, default=",".join(_STRATEGIES))
    p.add_argument("--copies", type=_int_list_at_least(1), default="1,2,3",
                   help="comma-separated M values")
    p.add_argument("--dims", type=_int_list_at_least(2), default="2",
                   help="comma-separated dimensions")
    p.add_argument("--trials", type=_at_least(1), default=20000)
    p.set_defaults(func=cmd_bench_memory)

    # Each subcommand takes only the options it reads.
    for name in ("run", "classify", "bench-memory"):
        sub.choices[name].add_argument("--seed", type=int, default=DEFAULT_SEED)
    for name in ("run", "enumerate", "classify"):
        sub.choices[name].add_argument("--max-dim", type=_at_least(1), default=MAX_DIM)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CircuitError, EngineError, IndividuationError, MeasurementError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
