"""Command-line front end.

Subcommands wrap one library operation each and return its result as an
exit code, a plain text and a JSON payload; ``main`` is the one place that
prints, the payload under ``--json`` and the text otherwise.  The text is
the same serialization the flags accept, so outputs can be piped back in.
Exit codes: 0 success, 1 negative domain answer (NOT-A-MEMBER,
NOT-PARTIAL-MULTIPLICATION, INCONSISTENT-ORDERS, INVALID), 2 usage or parse
errors; argparse converts no value, so ``+3`` as a length fails as ``cannot
parse length from '+3'``.  Under ``--json`` an exit-2 error prints one object
on stdout, ``{"error": "LIMIT-EXCEEDED", "message": ...}`` for an oversized
search and ``{"error": "BAD-INPUT", "message": ...}`` for an unreadable or
malformed input; argparse's own usage errors stay plain text on stderr.
"""
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
from .perms import Permutation, _ints

# What a subcommand returns: exit code, plain text, JSON payload.
Result = tuple[int, str, dict]


def _resolve_signs(matrix: GridMatrix, args: argparse.Namespace) -> SignAssignment:
    """Signs from the override flags.  A missing side follows from the other
    through any nonzero cell of each line, r_l = e(k, l) * c_k and
    c_k = e(k, l) * r_l; find_signs fills a line with no nonzero cell, and
    both sides when neither flag is given."""
    found = find_signs(matrix) if None in (args.col_signs, args.row_signs) else None
    if args.col_signs is None and args.row_signs is None:
        return found
    col_signs, row_signs = (None if text is None else _ints(text.split(","), "signs", text)
                            for text in (args.col_signs, args.row_signs))
    if row_signs is None:
        row_signs = tuple(
            next((e * c for c, e in zip(col_signs, row) if e), r)
            for r, row in zip(found.row_signs, zip(*matrix.columns))
        )
    if col_signs is None:
        col_signs = tuple(
            next((e * r for r, e in zip(row_signs, column) if e), c)
            for c, column in zip(found.col_signs, matrix.columns)
        )
    return SignAssignment(col_signs, row_signs)


def _gridded(perm: Permutation, gridding: Gridding) -> dict:
    return {"perm": str(perm), "cols": list(gridding.cols), "rows": list(gridding.rows)}


def cmd_signs(matrix: GridMatrix, args: argparse.Namespace) -> Result:
    signs = find_signs(matrix)
    cols = ",".join(str(s) for s in signs.col_signs)
    rows = ",".join(str(s) for s in signs.row_signs)
    payload = {"col_signs": list(signs.col_signs), "row_signs": list(signs.row_signs)}
    return 0, f"col_signs={cols} row_signs={rows}", payload


def cmd_member(matrix: GridMatrix, args: argparse.Namespace) -> Result:
    pi = Permutation.parse(args.perm)
    gridding = find_gridding(pi, matrix)
    if gridding is None:
        return 1, "NOT-A-MEMBER", {"error": "NOT-A-MEMBER"}
    return 0, gridding.format(), _gridded(pi, gridding)


def cmd_grid_check(matrix: GridMatrix, args: argparse.Namespace) -> Result:
    pi = Permutation.parse(args.perm)
    gridding = Gridding.parse(" ".join(args.gridding))
    if check_gridding(pi, matrix, gridding):
        return 0, "VALID", {"valid": True}
    return 1, "INVALID", {"valid": False}


def cmd_encode(matrix: GridMatrix, args: argparse.Namespace) -> Result:
    word = parse_word(" ".join(args.word))
    gp = encode(matrix, _resolve_signs(matrix, args), word)
    return 0, f"{gp.perm} {gp.gridding.format()}", _gridded(gp.perm, gp.gridding)


def cmd_decode(matrix: GridMatrix, args: argparse.Namespace) -> Result:
    pi = Permutation.parse(args.perm)
    gridding = Gridding.parse(" ".join(args.gridding))
    signs = _resolve_signs(matrix, args)
    word = format_word(decode(GriddedPermutation(pi, matrix, gridding), signs))
    return 0, word, {"word": word}


def cmd_enum(matrix: GridMatrix, args: argparse.Namespace) -> Result:
    n, = _ints([args.n], "length", args.n)
    members = sorted(enumerate_class(matrix, n), key=lambda p: p.entries)
    perms = [str(pi) for pi in members]
    return 0, "\n".join(perms), {"n": n, "perms": perms}


def cmd_count(matrix: GridMatrix, args: argparse.Namespace) -> Result:
    n_max, = _ints([args.n_max], "length", args.n_max)
    counts = counting_sequence(matrix, n_max)
    return 0, ",".join(str(c) for c in counts), {"counts": list(counts)}


def cmd_graph(matrix: GridMatrix, args: argparse.Namespace) -> Result:
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
    return 0, "\n".join(lines), payload


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridperms",
        description="Monotone grid classes: griddings, signs, and the word codec.",
    )
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="cmd", required=True)
    # Arguments shared by several subcommands, declared once as parents.
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("matrix_file")
    signs = argparse.ArgumentParser(add_help=False)
    signs.add_argument("--col-signs", metavar="SIGNS",
                       help="comma-separated column signs, e.g. -1,1,1")
    signs.add_argument("--row-signs", metavar="SIGNS",
                       help="comma-separated row signs, e.g. -1,1")

    def command(name, handler, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[matrix, *parents])
        p.set_defaults(handler=handler)
        return p

    command("signs", cmd_signs, "column/row signs or a negative cycle")

    p = command("member", cmd_member, "find a gridding of a permutation")
    p.add_argument("perm")

    p = command("grid-check", cmd_grid_check, "validate a given gridding")
    p.add_argument("perm")
    p.add_argument("gridding", nargs="+", metavar="cols=... rows=...")

    p = command("encode", cmd_encode, "word to gridded permutation", signs)
    p.add_argument("word", nargs="*", metavar="k,l")

    p = command("decode", cmd_decode, "gridded permutation to word", signs)
    p.add_argument("perm")
    p.add_argument("gridding", nargs="+", metavar="cols=... rows=...")

    p = command("enum", cmd_enum, "all class members of one length")
    p.add_argument("n")

    p = command("count", cmd_count, "class sizes at lengths 1..n_max")
    p.add_argument("n_max")

    p = command("graph", cmd_graph, "row-column or cell graph edge list")
    p.add_argument("--cell", action="store_true", help="cell graph instead")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse fills encode's ``*`` word from the matrix file's run of
    # positionals, so the words after a sign flag come back unrecognized
    if args.cmd == "encode" and not any(arg.startswith("-") for arg in extra):
        args.word += extra
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        with open(args.matrix_file, encoding="utf-8-sig") as handle:
            matrix = GridMatrix.parse(handle.read())
        code, text, payload = args.handler(matrix, args)
    except NotPartialMultiplicationError as exc:
        cycle = [f"{side}{i}" for side, i in exc.cycle]
        code = 1
        text = "NOT-PARTIAL-MULTIPLICATION\ncycle: " + " ".join(cycle)
        payload = {"error": "NOT-PARTIAL-MULTIPLICATION", "cycle": cycle}
    except InconsistentOrdersError:
        code, text, payload = 1, "INCONSISTENT-ORDERS", {"error": "INCONSISTENT-ORDERS"}
    except (ValueError, LimitExceededError, OSError) as exc:
        label = "LIMIT-EXCEEDED" if isinstance(exc, LimitExceededError) else "BAD-INPUT"
        code, text, payload = 2, f"error: {exc}", {"error": label, "message": str(exc)}
    if args.json:
        print(json.dumps(payload))
    else:
        # plain exit-2 errors go to stderr and leave stdout empty
        print(text, file=sys.stderr if code == 2 else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
