"""Command-line front end.

Subcommands: census, enumerate, verify, bounds, realize, recognize, ideal.
Exit codes: 0 success, 1 failed census/verification records, 2 argument or
input errors, 3 unsupported realization, 4 graph over the search cap, 141
the reader of the output closed it early (as a shell reports a writer
killed by SIGPIPE).

Every JSON document is byte for byte json.dumps(payload, indent=2) and a
newline, with two more keyword arguments in two commands: census passes
sort_keys=True, and bounds a default hook that writes each Fraction as
{"num": ..., "den": ...}.  recognize's verdict and the list-valued
documents (enumerate, realize --emit-graph, ideal) skip that call: with
indent set, CPython encodes in pure Python, which cost more than
recognize's graph work.  Their strings are escaped by the C function
json.dumps(str) calls.

main() parses argv once.  When argv[0] names a subcommand, argv[1:] goes
straight to that subcommand's parser: the top-level parser would only have
found the word and handed it every later token unchanged, and that pass
cost more than the subcommand's own parse.  Any other argv goes to the
top-level parser.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from . import __version__
from .census import FAMILY_SETS, KINDS, run_census
from .errors import DomainError, GraphTooLargeError
from .formulas import SIZE_BY_SET, ratio_report, sandwich_bounds_cwdd, size_cwdd
from .graphs import (
    RealizationKind,
    build_graph,
    cw_matching_number,
    edge_ideal_generators,
    induced_matching_number,
    matching_number,
    not_cw_reason,
    parse_edge_list,
    realize,
    structure_vertex_names,
)
from .sets import NamedSet, mask_bits, points_by_depth

# the largest n that `census` and `verify` run; a census up to N costs about N^3
CENSUS_CAP = 300
# the most points `enumerate` lists (every set fits for n <= 500), and the
# most vertices `realize` builds
ENUMERATE_LIMIT = 2_000_000
# the most mask bits `enumerate` builds, as bounded by sets.mask_bits
# (every set fits for n <= 500)
MASK_BIT_LIMIT = 1 << 27
# the most edges `realize --emit-graph` builds: the skeleton's core is
# K_{m,p}, so the edges grow as n^2 on the diagonal
EMIT_EDGE_LIMIT = 500_000
# the most bytes `recognize` and `ideal` read from --input; the largest
# `realize --emit-graph` text (depth 2 at n = 500,000) is 5.4 MB
INPUT_BYTE_LIMIT = 16_000_000


def _output(out_path: str | None):
    """A context giving the file to write to: out_path, or stdout left open."""
    if out_path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out_path, "w", encoding="utf-8")


def _json_frame(payload: dict) -> list[str]:
    """json.dumps(payload, indent=2) split around its last value, an empty
    list: the text before the list and the text after it."""
    return json.dumps(payload, indent=2).rsplit("[]", 1)


# ideal's document, {"generators": [...]}, around its list
IDEAL_FRAME = _json_frame({"generators": []})

# recognize's document as json.dumps(..., indent=2) lays it out
RECOGNIZE_JSON = ('{{\n  "cameron_walker": {},\n  "matching_number": {},\n'
                  '  "induced_matching_number": {},\n  "reason": {}\n}}\n')


def _write_json(handle, frame: list[str], items, arity: int) -> None:
    """Write json.dumps(payload, indent=2) and a newline, byte for byte,
    given frame = _json_frame(payload), where payload's last value is an
    empty list standing for items: each one arity values whose str() is
    their JSON text.  The items are written a slice at a time, so the
    caller need not hold them."""
    head, tail = frame
    item = "\n    [\n      " + ",\n      ".join(["{}"] * arity) + "\n    ]"
    items, separator = iter(items), ""
    handle.write(head + "[")
    while batch := list(itertools.islice(items, 4096)):
        handle.write(separator + ",".join(item.format(*values) for values in batch))
        separator = ","
    handle.write(("\n  ]" if separator else "]") + tail + "\n")


def _read_input(path: str) -> str:
    """The UTF-8 text of path, less one leading byte-order mark, refused
    past INPUT_BYTE_LIMIT bytes.  It is read in 64 KiB blocks, no more than
    one block past the limit.  A single read of the limit and one byte
    would hold no more memory, and less on a large file, but the blocks are
    faster on the small files that recognize and ideal mostly read."""
    block = 1 << 16
    with open(path, "rb") as handle:
        blocks = iter(functools.partial(handle.read, block), b"")
        data = b"".join(itertools.islice(blocks, INPUT_BYTE_LIMIT // block + 1))
    if len(data) > INPUT_BYTE_LIMIT:
        raise DomainError(f"{path} is over the input limit of {INPUT_BYTE_LIMIT} bytes")
    return data.decode("utf-8-sig")


def _write_edges(graph, names: list[str], frame: list[str] | None) -> None:
    """Write the labelled graph's edge-ideal generators to stdout: in JSON
    through _write_json in frame, or, with no frame, one "a b" line each.
    The lines are written as they are made, never joined into one text."""
    edges = edge_ideal_generators(graph, names)
    if frame is None:
        sys.stdout.writelines(f"{a} {b}\n" for a, b in edges)
    else:
        _write_json(sys.stdout, frame, (map(_json_str, edge) for edge in edges), 2)


def _frac_json(value: Fraction) -> dict[str, int]:
    return {"num": value.numerator, "den": value.denominator}


def _census(n_lo: int, n_hi: int, family: str):
    """run_census, refused above CENSUS_CAP before any record is built."""
    if n_hi > CENSUS_CAP:
        raise DomainError(f"the census needs n <= {CENSUS_CAP}, got {n_hi}")
    return run_census(n_lo, n_hi, family)


def cmd_census(args: argparse.Namespace) -> int:
    report = _census(args.n_lo, args.n_hi, args.family)
    with _output(args.out) as handle:
        handle.write(report.to_csv() if args.format == "csv" else report.to_json())
    for record in report.records:
        for tag, (enum_count, closed_count) in record.counts.items():
            if enum_count != closed_count:
                print(f"census: n = {record.n}: {tag} enumerated {enum_count}, "
                      f"closed form {closed_count}, n mod 6 = {record.n % 6}", file=sys.stderr)
        for failure in record.failures:
            print(f"census: n = {record.n}: {failure}", file=sys.stderr)
    return 0 if report.all_pass else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    set_id = NamedSet(args.set)
    size = SIZE_BY_SET[set_id](args.n)
    if size > ENUMERATE_LIMIT:
        raise DomainError(f"{set_id.value} has {size} points at n = {args.n}, "
                          f"over the enumerate limit of {ENUMERATE_LIMIT}")
    bits = mask_bits(set_id, args.n, size)
    if bits > MASK_BIT_LIMIT:
        raise DomainError(f"{set_id.value} may need {bits} mask bits at n = {args.n}, "
                          f"over the enumerate limit of {MASK_BIT_LIMIT}")
    # written a depth or a slice at a time, so only that many points are held
    depths = points_by_depth(set_id, args.n)
    with _output(args.out) as handle:
        if args.format == "json":
            _write_json(handle, _json_frame({"set": set_id.value, "n": args.n, "points": []}),
                        itertools.chain.from_iterable(depths), set_id.arity)
        else:
            line = ",".join(["{}"] * set_id.arity) + "\n"
            handle.writelines("".join(line.format(*point) for point in depth) for depth in depths)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    report = _census(n, n, "all")
    record = report.records[0]
    k, i = divmod(n, 6)
    print(f"n = {n} (k = {k}, i = {i})")
    for tag, (enum_count, closed_count) in record.counts.items():
        if enum_count is None:
            print(f"{tag}: undefined at n = {n}")
            continue
        mark = "ok" if enum_count == closed_count else "MISMATCH"
        print(f"{tag}: enumerated {enum_count}, closed form {closed_count} [{mark}]")
    for kind in KINDS:
        failed = [str(failure) for failure in record.failures if failure.kind == kind]
        print(f"{kind}: " + ("; ".join(["FAIL"] + failed) if failed else "ok"))
    print(f"verdict: {'pass' if record.passed else 'FAIL'}")
    return 0 if record.passed else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    n = args.n
    lower, upper = sandwich_bounds_cwdd(n)
    ratios = ratio_report(n)
    fields = {
        "n": n,
        "size_cwdd": size_cwdd(n),
        "sandwich_lower": lower,
        "sandwich_upper": upper,
        "cwdd_over_cplus": ratios.cwdd_over_cplus,
        "cwdd_over_cminus": ratios.cwdd_over_cminus,
        "cwdd_over_nsq": ratios.cwdd_over_nsq,
    }
    if args.format == "json":
        print(json.dumps(fields, indent=2, default=_frac_json))
    else:
        for name, value in fields.items():
            print(f"{name} = {value}")
    return 0


def cmd_realize(args: argparse.Namespace) -> int:
    if args.n > ENUMERATE_LIMIT:
        raise DomainError(f"realize needs n <= {ENUMERATE_LIMIT}, got {args.n}")
    result = realize(args.n, (args.depth, args.dim))
    if result.kind is RealizationKind.UNSUPPORTED:
        print(
            f"no supported realization of (depth, dim) = ({args.depth}, {args.dim}) "
            f"on {args.n} vertices",
            file=sys.stderr,
        )
        return 3
    cw = result.structure
    if args.emit_graph and cw.edge_count > EMIT_EDGE_LIMIT:
        raise DomainError(f"the graph has {cw.edge_count} edges, over the --emit-graph "
                          f"limit of {EMIT_EDGE_LIMIT}")
    payload = {"kind": result.kind.value, "n": cw.vertex_count, "m": cw.m, "p": cw.p,
               "s": list(cw.s), "t": list(cw.t)}
    if args.format == "text":
        s_txt = ",".join(str(x) for x in cw.s)
        t_txt = ",".join(str(x) for x in cw.t)
        print(f"m={cw.m} p={cw.p} s={s_txt} t={t_txt}")
    elif not args.emit_graph:
        print(json.dumps(payload, indent=2))
    if args.emit_graph:
        frame = _json_frame({**payload, "edges": []}) if args.format == "json" else None
        _write_edges(build_graph(cw), structure_vertex_names(cw), frame)
    return 0


def cmd_recognize(args: argparse.Namespace) -> int:
    graph, _ = parse_edge_list(_read_input(args.input))
    # the searches run only on a graph that the linear structural test refuses
    m = im = cw_matching_number(graph)
    reason = ""
    if m is None:
        m = matching_number(graph)
        im = induced_matching_number(graph)
        reason = not_cw_reason(graph, m, im)
    if args.format == "json":
        sys.stdout.write(RECOGNIZE_JSON.format("false" if reason else "true", m, im,
                                               _json_str(reason) if reason else "null"))
    else:
        if reason:
            print(f"not CW: m={m} im={im} ({reason})")
        else:
            print(f"CW: m={m} im={im}")
    return 0


def cmd_ideal(args: argparse.Namespace) -> int:
    graph, names = parse_edge_list(_read_input(args.input))
    _write_edges(graph, names, IDEAL_FRAME if args.format == "json" else None)
    return 0


# Subcommand name to handler.  main() looks the handler up here on every
# call, so the parser it keeps holds no functions.
COMMANDS = {
    "census": cmd_census,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "bounds": cmd_bounds,
    "realize": cmd_realize,
    "recognize": cmd_recognize,
    "ideal": cmd_ideal,
}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it refuses arguments it does not know itself,
    so the error shows the subcommand's usage, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="cwlattice",
        description="Exact lattice-point censuses for Cameron-Walker edge ideals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    p = sub.add_parser("census", help="cross-verify enumerations against closed forms")
    p.add_argument("--from", dest="n_lo", type=int, required=True, metavar="N")
    p.add_argument("--to", dest="n_hi", type=int, required=True, metavar="M")
    p.add_argument("--family", choices=sorted(FAMILY_SETS), default="all")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")

    p = sub.add_parser("enumerate", help="list the points of one lattice set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, choices=[s.value for s in NamedSet])
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("verify", help="run every check at a single n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("bounds", help="sandwich envelope and census ratios at n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("realize", help="realize a (depth, dim) point as a skeleton")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--emit-graph", action="store_true",
                   help="also print the built graph's edge list")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("recognize", help="decide the Cameron-Walker property")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("ideal", help="emit edge-ideal generators of a graph")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser, sub.choices


# the parsers, built on the first call of main() and then reused
_parsers = functools.cache(_build_parsers)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The top-level parser's parse_args(argv), parsing argv once.  The
    subcommand is that parser's one positional argument: it takes every
    token after the subcommand's name, "--" and option-like ones included,
    and hands them unchanged to that subcommand's parser, which is called
    here directly.  Any other argv goes to the top-level parser."""
    parser, subcommands = _parsers()
    if argv and argv[0] in subcommands:
        return subcommands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()  # so a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at the null device, or the interpreter's last flush of
        # what is still buffered fails again and prints "Exception ignored".
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except GraphTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
