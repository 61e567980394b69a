"""Command-line front end.

Subcommands wrap one library operation each and print its result in the
same serialization the flags accept, so outputs can be piped back in.
Exit codes: 0 success, 1 negative domain answer (NOT-A-MEMBER,
NOT-PARTIAL-MULTIPLICATION, INCONSISTENT-ORDERS, INVALID), 2 usage or
parse errors.  Under ``--json`` an exit-2 error prints one object on stdout,
``{"error": "LIMIT-EXCEEDED", "message": ...}`` for an oversized search and
``{"error": "BAD-INPUT", "message": ...}`` for an unreadable or malformed
input; argparse's own usage errors stay plain text on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys

from .codec import InconsistentOrdersError, decode, encode, format_word, parse_word
from .enumeration import counting_sequence, enumerate_class
from .graphs import (
    NotPartialMultiplicationError,
    SignAssignment,
    cell_graph,
    find_signs,
    row_column_graph,
)
from .gridding import (
    Gridding, GriddedPermutation, LimitExceededError, check_gridding, find_gridding,
)
from .matrices import GridMatrix
from .perms import Permutation


def _parse_signs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse signs from {text!r}") from None


def _format_signs(signs: SignAssignment) -> str:
    cols = ",".join(str(s) for s in signs.col_signs)
    rows = ",".join(str(s) for s in signs.row_signs)
    return f"col_signs={cols} row_signs={rows}"


def _resolve_signs(matrix: GridMatrix, args: argparse.Namespace) -> SignAssignment:
    """Signs from the override flags, falling back to find_signs per side."""
    found = find_signs(matrix) if None in (args.col_signs, args.row_signs) else None
    col_signs = found.col_signs if args.col_signs is None else _parse_signs(args.col_signs)
    row_signs = found.row_signs if args.row_signs is None else _parse_signs(args.row_signs)
    return SignAssignment(col_signs, row_signs)


def _emit(args: argparse.Namespace, text: str, payload: dict) -> None:
    print(json.dumps(payload) if args.json else text)


def cmd_signs(matrix: GridMatrix, args: argparse.Namespace) -> int:
    signs = find_signs(matrix)
    _emit(args, _format_signs(signs),
          {"col_signs": list(signs.col_signs), "row_signs": list(signs.row_signs)})
    return 0


def cmd_member(matrix: GridMatrix, args: argparse.Namespace) -> int:
    pi = Permutation.parse(args.perm)
    gridding = find_gridding(pi, matrix)
    if gridding is None:
        _emit(args, "NOT-A-MEMBER", {"error": "NOT-A-MEMBER"})
        return 1
    _emit(args, gridding.format(),
          {"perm": str(pi), "cols": list(gridding.cols), "rows": list(gridding.rows)})
    return 0


def cmd_grid_check(matrix: GridMatrix, args: argparse.Namespace) -> int:
    pi = Permutation.parse(args.perm)
    gridding = Gridding.parse(" ".join(args.gridding))
    valid = check_gridding(pi, matrix, gridding)
    _emit(args, "VALID" if valid else "INVALID", {"valid": valid})
    return 0 if valid else 1


def cmd_encode(matrix: GridMatrix, args: argparse.Namespace) -> int:
    word = parse_word(" ".join(args.word))
    signs = _resolve_signs(matrix, args)
    gp = encode(matrix, signs, word)
    _emit(args, f"{gp.perm} {gp.gridding.format()}",
          {"perm": str(gp.perm), "cols": list(gp.gridding.cols),
           "rows": list(gp.gridding.rows)})
    return 0


def cmd_decode(matrix: GridMatrix, args: argparse.Namespace) -> int:
    pi = Permutation.parse(args.perm)
    gridding = Gridding.parse(" ".join(args.gridding))
    signs = _resolve_signs(matrix, args)
    word = decode(GriddedPermutation(pi, matrix, gridding), signs)
    _emit(args, format_word(word), {"word": format_word(word)})
    return 0


def cmd_enum(matrix: GridMatrix, args: argparse.Namespace) -> int:
    members = sorted(enumerate_class(matrix, args.n), key=lambda p: p.entries)
    _emit(args, "\n".join(str(pi) for pi in members),
          {"n": args.n, "perms": [str(pi) for pi in members]})
    return 0


def cmd_count(matrix: GridMatrix, args: argparse.Namespace) -> int:
    counts = counting_sequence(matrix, args.n_max)
    _emit(args, ",".join(str(c) for c in counts), {"counts": list(counts)})
    return 0


def cmd_graph(matrix: GridMatrix, args: argparse.Namespace) -> int:
    if args.cell:
        graph = cell_graph(matrix)
        vertices = [f"{k},{l}" for k, l in graph.vertices]
        edges = [[f"{a[0]},{a[1]}", f"{b[0]},{b[1]}"] for a, b in graph.edges]
        lines = [" ".join(edge) for edge in edges]
        payload = {"graph": "cell", "vertices": vertices, "edges": edges}
    else:
        graph = row_column_graph(matrix)
        vertices = [f"{side}{i}" for side, i in graph.vertices]
        edges = [
            [f"{xv[0]}{xv[1]}", f"{yv[0]}{yv[1]}", sign] for xv, yv, sign in graph.edges
        ]
        lines = [f"{a} {b} {'+' if sign == 1 else '-'}" for a, b, sign in edges]
        payload = {"graph": "row-column", "vertices": vertices, "edges": edges}
    _emit(args, "\n".join(lines), payload)
    return 0


def _add_sign_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--col-signs", metavar="SIGNS",
                        help="comma-separated column signs, e.g. -1,1,1")
    parser.add_argument("--row-signs", metavar="SIGNS",
                        help="comma-separated row signs, e.g. -1,1")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridperms",
        description="Monotone grid classes: griddings, signs, and the word codec.",
    )
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("signs", help="column/row signs or a negative cycle")
    p.add_argument("matrix_file")
    p.set_defaults(handler=cmd_signs)

    p = sub.add_parser("member", help="find a gridding of a permutation")
    p.add_argument("matrix_file")
    p.add_argument("perm")
    p.set_defaults(handler=cmd_member)

    p = sub.add_parser("grid-check", help="validate a given gridding")
    p.add_argument("matrix_file")
    p.add_argument("perm")
    p.add_argument("gridding", nargs="+", metavar="cols=... rows=...")
    p.set_defaults(handler=cmd_grid_check)

    p = sub.add_parser("encode", help="word to gridded permutation")
    p.add_argument("matrix_file")
    p.add_argument("word", nargs="*", metavar="k,l")
    _add_sign_flags(p)
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("decode", help="gridded permutation to word")
    p.add_argument("matrix_file")
    p.add_argument("perm")
    p.add_argument("gridding", nargs="+", metavar="cols=... rows=...")
    _add_sign_flags(p)
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("enum", help="all class members of one length")
    p.add_argument("matrix_file")
    p.add_argument("n", type=int)
    p.set_defaults(handler=cmd_enum)

    p = sub.add_parser("count", help="class sizes at lengths 1..n_max")
    p.add_argument("matrix_file")
    p.add_argument("n_max", type=int)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("graph", help="row-column or cell graph edge list")
    p.add_argument("matrix_file")
    p.add_argument("--cell", action="store_true", help="cell graph instead")
    p.set_defaults(handler=cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        with open(args.matrix_file, encoding="utf-8") as handle:
            matrix = GridMatrix.parse(handle.read())
        return args.handler(matrix, args)
    except NotPartialMultiplicationError as exc:
        cycle = [f"{side}{i}" for side, i in exc.cycle]
        _emit(args, "NOT-PARTIAL-MULTIPLICATION\ncycle: " + " ".join(cycle),
              {"error": "NOT-PARTIAL-MULTIPLICATION", "cycle": cycle})
        return 1
    except InconsistentOrdersError:
        _emit(args, "INCONSISTENT-ORDERS", {"error": "INCONSISTENT-ORDERS"})
        return 1
    except (ValueError, LimitExceededError, OSError) as exc:
        if args.json:
            label = "LIMIT-EXCEEDED" if isinstance(exc, LimitExceededError) else "BAD-INPUT"
            _emit(args, "", {"error": label, "message": str(exc)})
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
