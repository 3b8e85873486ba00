"""Command-line front end.

Exit codes: 0 success, 1 domain error (axiom or hypothesis failure, or
an enumerate size below 2 or above the cap), 2 I/O, parse or
configuration error.
Inputs are file paths, or compact constructor specs ("chain:4",
"hsum:2,3,3", "prod:chain:2,chain:2", "diamond") recognized by their
leading constructor name.
"""

import argparse
import functools
import json
import os
import sys

from .core import ValidationError, validate
from .corpus import ParseError, SpecError, from_spec, is_spec_string, parse, serialize
from .enumeration import SizeError, survey, survey_tsv, write_enumeration
from .lemmas import analyze, lemma_suite
from .structure import DecomposeError, decompose

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

ENV_MAX_SIZE = "EFFECTKIT_MAX_SIZE"
DEFAULT_MAX_SIZE = 10


def _load(source):
    if is_spec_string(source):
        return from_spec(source)
    with open(source, "rb") as fh:
        data = fh.read()
    return validate(parse(data))


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args):
    _load(args.source)
    _emit("valid\n", args.out)
    return EXIT_OK


def cmd_analyze(args):
    doc = analyze(_load(args.source))._asdict()
    if args.fmt == "json":
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    else:
        _emit("".join(f"{k}: {json.dumps(v)}\n" for k, v in doc.items()), args.out)
    return EXIT_OK


def cmd_decompose(args):
    dec = decompose(_load(args.source))
    if args.fmt == "json":
        doc = {
            "chains": list(dec.chain_lengths),
            "labeling": [[x, *dec.labeling[x]] for x in sorted(dec.labeling)],
        }
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    else:
        _emit(dec.render() + "\n", args.out)
    return EXIT_OK


def cmd_lemmas(args):
    reports = lemma_suite(_load(args.source))
    if args.fmt == "json":
        doc = [
            {"lemma": r.lemma_id, "verdict": r.verdict, "witness": r.witness}
            for r in reports
        ]
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    else:
        _emit("\n".join(r.render() for r in reports) + "\n", args.out)
    return EXIT_OK


def cmd_enumerate(args):
    raw = os.environ.get(ENV_MAX_SIZE)
    try:
        cap = DEFAULT_MAX_SIZE if raw is None else int(raw)
    except ValueError:
        cap = 0
    if cap < 2:
        print(f"config error: {ENV_MAX_SIZE} must be an integer >= 2, got {raw!r}",
              file=sys.stderr)
        return EXIT_IO
    if args.max_size > cap:
        raise SizeError(f"size {args.max_size} above configured cap {cap}")
    if args.out:
        rows = write_enumeration(args.out, args.max_size, parallel=args.parallel)
    else:
        rows = survey(args.max_size, parallel=args.parallel)
    if args.fmt == "json":
        doc = [r._asdict() for r in rows]
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    else:
        sys.stdout.write(survey_tsv(rows))
    return EXIT_OK


def cmd_generate(args):
    _emit(serialize(from_spec(args.source).table).decode("ascii"), args.out)
    return EXIT_OK


def cmd_hasse(args):
    e = _load(args.source)
    lines = ["digraph hasse {"]
    for x in e.carrier:
        label = "0" if x == 0 else "1" if x == e.one else f"e{x}"
        lines.append(f'  n{x} [label="{label}"];')
    for x, y in e.hasse_covers():
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "decompose": cmd_decompose,
    "lemmas": cmd_lemmas,
    "enumerate": cmd_enumerate,
    "generate": cmd_generate,
    "hasse": cmd_hasse,
}


@functools.cache
def _parser():
    # Built once per process: it holds only the command grammar, no input.
    p = argparse.ArgumentParser(prog="effectkit", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add(name, source_help=None, fmt_choices=("text", "json"), out_help=None):
        sp = sub.add_parser(name)
        if source_help:
            sp.add_argument("source", help=source_help)
        if fmt_choices:
            sp.add_argument("--format", dest="fmt", choices=fmt_choices,
                            default=fmt_choices[0])
        sp.add_argument("--out", default=None, help=out_help)
        return sp

    add("validate", "table file or constructor spec", fmt_choices=None)
    add("analyze", "table file or constructor spec")
    add("decompose", "table file or constructor spec")
    add("lemmas", "table file or constructor spec")
    en = add("enumerate", None, fmt_choices=("tsv", "json"), out_help="output directory")
    en.add_argument("--max-size", dest="max_size", type=int, default=6,
                    help=f"largest size (default 6); the CLI, not the library, "
                         f"caps it at {ENV_MAX_SIZE} (default {DEFAULT_MAX_SIZE})")
    en.add_argument("--parallel", dest="parallel", type=int, default=1,
                    help="worker processes, this one included: the sizes "
                         "are dealt among them, at most one worker per size "
                         "and per CPU, and the others are forked; output is "
                         "identical for every value (default 1, no fork)")
    add("generate", "constructor spec", fmt_choices=None)
    add("hasse", "table file or constructor spec", fmt_choices=("dot",))
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (ParseError, SpecError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DecomposeError as exc:
        print(f"decompose error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SizeError as exc:
        print(f"size error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
