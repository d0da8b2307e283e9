"""Text formats for tournaments and oriented trees.

Tournament format::

    tournament n
    <n lines of n characters over {0,1}>

Character j of matrix line i is 1 iff the arc i -> j is present.  The
diagonal must be 0 and for every pair exactly one of (i,j), (j,i) is 1.

Tree format::

    tree n
    <n-1 lines "u v">

Each body line is one arc u -> v.  Parsers reject malformed input with
:class:`~treetour.graphs.ParseError` carrying 1-based line/column
coordinates.  Writers emit exactly the accepted format with a trailing
newline.
"""

from __future__ import annotations

from .graphs import DirectedTree, ParseError, Tournament, transpose_rows


def _split_lines(text: str) -> list[str]:
    # A single trailing newline is the writers' own convention; tolerate its
    # absence but reject other trailing content via the line count checks.
    return text.split("\n")


def _parse_header(lines: list[str], kind: str) -> int:
    if not lines or not lines[0].strip():
        raise ParseError(f"expected header '{kind} n'", 1)
    parts = lines[0].split()
    if len(parts) != 2 or parts[0] != kind:
        raise ParseError(f"expected header '{kind} n', got {lines[0]!r}", 1)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"header count {parts[1]!r} is not an integer", 1) from None
    if n < 1:
        raise ParseError(f"vertex count must be positive, got {n}", 1)
    return n


def _check_no_trailing(lines: list[str], body_lines: int) -> None:
    for extra in range(1 + body_lines, len(lines)):
        if lines[extra].strip():
            raise ParseError(f"unexpected content {lines[extra]!r} after body", extra + 1)


def parse_tournament(text: str) -> Tournament:
    """Parse the tournament text format, validating all format invariants.

    Each matrix line is checked and read in C-level passes; the diagonal
    and every pair are then checked by one :func:`transpose_rows` call
    and one comparison per row.  Only a matrix that fails walks its
    entries, in the order diagonal first, then pairs (i, j) by i, to name
    the first bad one.  Per valid text (Python 3.11, one core of a shared
    2-vCPU x86 host, best of 5; ``BENCH_16.json``): 0.11 ms at n = 60 and
    2.9 ms at n = 398, against 0.27 and 13.4 ms for the per-pair loop.
    """
    lines = _split_lines(text)
    n = _parse_header(lines, "tournament")
    if len(lines) < 1 + n:
        raise ParseError(f"expected {n} matrix lines, found {len(lines) - 1}", len(lines))
    rows = []
    for i in range(n):
        line = lines[1 + i]
        lineno = i + 2
        if len(line) != n:
            raise ParseError(f"matrix line must have {n} characters, got {len(line)}", lineno)
        if line.strip("01"):
            j = next(j for j, ch in enumerate(line) if ch not in "01")
            raise ParseError(f"matrix character must be 0 or 1, got {line[j]!r}", lineno, j + 1)
        # Character j is bit j: the line read right to left is the row.
        rows.append(int(line[::-1], 2))
    _check_no_trailing(lines, n)
    # Bit j of row i ^ column i is set iff exactly one of i -> j, j -> i
    # is present, which the row's own diagonal bit cannot show.
    everything = (1 << n) - 1
    columns = transpose_rows(n, tuple(rows))
    if any(
        (row >> i) & 1 or row ^ column != everything ^ (1 << i)
        for i, (row, column) in enumerate(zip(rows, columns))
    ):
        for i in range(n):
            if (rows[i] >> i) & 1:
                raise ParseError("diagonal entry must be 0", i + 2, i + 1)
        for i in range(n):
            for j in range(i + 1, n):
                ij = (rows[i] >> j) & 1
                ji = (rows[j] >> i) & 1
                if ij == ji:
                    what = "both directions present" if ij else "no direction present"
                    raise ParseError(f"pair ({i}, {j}): {what}", j + 2, i + 1)
    return Tournament(n, rows, _trusted=True)


def write_tournament(G: Tournament) -> str:
    spec = f"0{G.n}b"
    lines = [f"tournament {G.n}"]
    lines.extend(format(row, spec)[::-1] for row in G.out_rows)
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> DirectedTree:
    """Parse the tree text format, validating tree-ness."""
    lines = _split_lines(text)
    n = _parse_header(lines, "tree")
    if len(lines) < n:
        raise ParseError(f"expected {n - 1} arc lines, found {len(lines) - 1}", len(lines))
    arcs = []
    seen_pairs: set[tuple[int, int]] = set()
    for i in range(n - 1):
        line = lines[1 + i]
        lineno = i + 2
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"arc line must be 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"arc endpoints must be integers, got {line!r}", lineno) from None
        if not (0 <= u < n):
            raise ParseError(f"vertex {u} out of range 0..{n - 1}", lineno, 1)
        if not (0 <= v < n):
            raise ParseError(f"vertex {v} out of range 0..{n - 1}", lineno, len(parts[0]) + 2)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            raise ParseError(f"duplicate edge between {u} and {v}", lineno)
        seen_pairs.add(pair)
        arcs.append((u, v))
    _check_no_trailing(lines, n - 1)
    try:
        return DirectedTree(n, arcs)
    except ValueError as exc:
        # whole-shape failures (disconnection = a cycle elsewhere) have no
        # single offending line; point at the last arc line.
        raise ParseError(str(exc), len(arcs) + 1) from None


def write_tree(T: DirectedTree) -> str:
    lines = [f"tree {T.n}"]
    lines.extend(f"{u} {v}" for u, v in T.arcs)
    return "\n".join(lines) + "\n"
