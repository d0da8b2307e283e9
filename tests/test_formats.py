"""Text serialization of tournaments and trees, with parser diagnostics.

The formats are line-oriented: a header naming the type and vertex count,
then an adjacency matrix (tournaments) or one arc per line (trees).
Round trips must be exact; malformed input must fail with an error that
points at the offending line.
"""

import random

import pytest

from treetour import (
    ParseError,
    Tournament,
    parse_tournament,
    parse_tree,
    write_tournament,
    write_tree,
)
from treetour import formats
from treetour.generate import (
    directed_path,
    random_oriented_tree,
    random_tournament,
    rotational_regular_tournament,
    transitive_tournament,
)

CYCLE3 = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


# ---------------------------------------------------------------------------
# Writing fixed graphs


def test_tournament_text_is_header_plus_adjacency_matrix():
    assert write_tournament(CYCLE3) == "tournament 3\n010\n001\n100\n"


def test_tournament_text_of_transitive_is_upper_triangular():
    assert write_tournament(transitive_tournament(3)) == "tournament 3\n011\n001\n000\n"


def test_tree_text_is_header_plus_arc_lines():
    assert write_tree(directed_path(3)) == "tree 3\n0 1\n1 2\n"


def test_single_vertex_graphs_serialize():
    assert parse_tournament(write_tournament(random_tournament(1, seed=0))).n == 1
    assert parse_tree(write_tree(random_oriented_tree(1, seed=0))).n == 1


# ---------------------------------------------------------------------------
# Round trips


def test_tournament_round_trip_on_random_inputs():
    for seed in range(20):
        G = random_tournament(1 + seed % 12, seed=seed)
        assert parse_tournament(write_tournament(G)) == G


def test_tree_round_trip_on_random_inputs():
    for seed in range(20):
        T = random_oriented_tree(1 + seed % 12, seed=seed)
        assert parse_tree(write_tree(T)) == T


def test_parse_tolerates_trailing_newline_variations():
    text = write_tournament(CYCLE3)
    assert parse_tournament(text.rstrip("\n")) == CYCLE3
    assert parse_tournament(text + "\n") == CYCLE3


# ---------------------------------------------------------------------------
# Tournament parse errors carry line positions


@pytest.mark.parametrize(
    "text, line_hint",
    [
        ("matrix 3\n010\n001\n100", 1),  # wrong header word
        ("tournament x\n010\n001\n100", 1),  # non-numeric size
        ("tournament 3\n01\n001\n100", 2),  # short row
        ("tournament 3\n010\n001", 3),  # missing row
        ("tournament 3\n110\n001\n100", 2),  # diagonal set
        ("tournament 3\n010\n021\n100", 3),  # non-binary cell
        ("tournament 3\n000\n001\n100", 3),  # pair {0,1} undecided, seen at row of 1
        ("tournament 3\n011\n101\n100", 3),  # pair {0,1} doubled, seen at row of 1
    ],
)
def test_tournament_parse_errors_name_the_line(text, line_hint):
    with pytest.raises(ParseError) as err:
        parse_tournament(text)
    assert f"line {line_hint}" in str(err.value)


def test_tournament_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_tournament("tournament 3\n010\n001\n100\nextra")


# ---------------------------------------------------------------------------
# Reference: the tournament writer and parser before they read and wrote
# whole matrix lines in C-level passes, kept verbatim.  Texts, rows and
# every ParseError (message, line and column) must stay what these give.


def _reference_parse_tournament(text: str) -> Tournament:
    lines = formats._split_lines(text)
    n = formats._parse_header(lines, "tournament")
    if len(lines) < 1 + n:
        raise ParseError(f"expected {n} matrix lines, found {len(lines) - 1}", len(lines))
    rows = []
    for i in range(n):
        line = lines[1 + i]
        lineno = i + 2
        if len(line) != n:
            raise ParseError(f"matrix line must have {n} characters, got {len(line)}", lineno)
        row = 0
        for j, ch in enumerate(line):
            if ch == "1":
                row |= 1 << j
            elif ch != "0":
                raise ParseError(f"matrix character must be 0 or 1, got {ch!r}", lineno, j + 1)
        rows.append(row)
    formats._check_no_trailing(lines, n)
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


def _reference_write_tournament(G: Tournament) -> str:
    lines = [f"tournament {G.n}"]
    for i in range(G.n):
        row = G.out_rows[i]
        lines.append("".join("1" if (row >> j) & 1 else "0" for j in range(G.n)))
    return "\n".join(lines) + "\n"


def _parse_outcome(parse, text):
    try:
        G = parse(text)
    except ValueError as exc:  # ParseError and Tournament's own checks
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return G.n, G.out_rows, G.in_rows


def _mutated_texts(G):
    """Texts that break one format rule of ``write_tournament(G)``."""
    n = G.n
    header, *rows = _reference_write_tournament(G).split("\n")[:-1]

    def text(body):
        return "\n".join([header, *body]) + "\n"

    i = n // 2
    for j in sorted({0, n // 2, n - 1}):  # first, middle and last column
        for ch in "2x ":
            yield text(rows[:i] + [rows[i][:j] + ch + rows[i][j + 1 :]] + rows[i + 1 :])
    yield text(rows[:i] + [rows[i][:-1]] + rows[i + 1 :])  # short line
    yield text(rows[:i] + [rows[i] + "0"] + rows[i + 1 :])  # long line
    yield text(rows[:-1])  # an empty last line
    yield "\n".join([header, *rows[:-1]])  # a missing line
    yield text(rows[:i] + [rows[i][:i] + "1" + rows[i][i + 1 :]] + rows[i + 1 :])  # diagonal 1
    if n >= 2:
        a, b = sorted(random.Random(n).sample(range(n), 2))
        for flip in (a, b):  # one of the two makes both directions, the other none
            row = rows[flip]
            other = b if flip == a else a
            rows2 = list(rows)
            rows2[flip] = row[:other] + ("1" if row[other] == "0" else "0") + row[other + 1 :]
            yield text(rows2)
    yield text(rows + ["junk"])  # trailing content
    yield text(rows + ["", " "])  # trailing blank lines are accepted
    yield "\n".join([header, *rows])  # no final newline


TOURNAMENT_ERRORS = (
    "must be 0 or 1",
    "matrix line must have",
    "matrix lines, found",
    "diagonal entry",
    "both directions",
    "no direction",
    "unexpected content",
)


def test_tournament_text_matches_the_verbatim_reference():
    seen = set()
    for n in range(1, 41):
        hosts = [random_tournament(n, seed=n), transitive_tournament(n)]
        if n % 2:
            hosts.append(rotational_regular_tournament(n))
        for G in hosts:
            text = write_tournament(G)
            assert text == _reference_write_tournament(G), n
            assert parse_tournament(text) == G
            for mutated in [text, *_mutated_texts(G)]:
                got = _parse_outcome(parse_tournament, mutated)
                assert got == _parse_outcome(_reference_parse_tournament, mutated), (n, mutated)
                seen.update(e for e in TOURNAMENT_ERRORS if len(got) == 4 and e in got[1])
    # every error the mutations aim at was raised somewhere
    assert seen == set(TOURNAMENT_ERRORS), seen


def _entry_mutations(G, rng):
    """Texts of ``G`` with matrix entries changed: a diagonal 1, one side of
    a pair flipped, both sides set, both cleared, and two of these at once
    (so the first bad entry in the loops' order must be the one named)."""
    n = G.n
    header, *rows = write_tournament(G).split("\n")[:-1]
    grid = [list(row) for row in rows]

    def diagonal(g):
        i = rng.randrange(n)
        g[i][i] = "1"

    def flip(g):
        i, j = rng.sample(range(n), 2)
        g[i][j] = "1" if g[i][j] == "0" else "0"

    def pair(value):
        def set_both(g):
            i, j = rng.sample(range(n), 2)
            g[i][j] = g[j][i] = value

        return set_both

    edits = [diagonal, flip, pair("1"), pair("0")]
    plans = [[e] for e in edits] + [[rng.choice(edits), rng.choice(edits)] for _ in range(4)]
    for plan in plans:
        g = [row[:] for row in grid]
        for edit in plan:
            edit(g)
        yield "\n".join([header, *("".join(row) for row in g)]) + "\n"


@pytest.mark.parametrize("sizes", [range(2, 41), [600]], ids=["n2-40", "n600"])
def test_tournament_entry_errors_match_the_verbatim_loops(sizes):
    """The transposition check accepts exactly the matrices the per-entry
    loops accept, and a failing matrix names the same first bad entry."""
    rng = random.Random(26)
    for n in sizes:
        hosts = [random_tournament(n, seed=n), transitive_tournament(n)]
        if n % 2:
            hosts.append(rotational_regular_tournament(n))
        for G in hosts:
            for mutated in _entry_mutations(G, rng):
                got = _parse_outcome(parse_tournament, mutated)
                assert got == _parse_outcome(_reference_parse_tournament, mutated), (n, mutated)


# ---------------------------------------------------------------------------
# Tree parse errors carry line positions


@pytest.mark.parametrize(
    "text, line_hint",
    [
        ("graph 3\n0 1\n1 2", 1),  # wrong header word
        ("tree 3\n0 1", 2),  # missing arc line, reported at last line present
        ("tree 3\n0 1\n1 2\n2 0", 4),  # extra arc line
        ("tree 3\n0 1\nbogus", 3),  # non-numeric arc
        ("tree 3\n0 1\n1 7", 3),  # endpoint out of range
        ("tree 3\n0 1\n1 1", 3),  # self-loop
        ("tree 4\n0 1\n1 0\n2 3", 3),  # repeated pair
    ],
)
def test_tree_parse_errors_name_the_line(text, line_hint):
    with pytest.raises(ParseError) as err:
        parse_tree(text)
    assert f"line {line_hint}" in str(err.value)


def test_tree_parse_rejects_disconnected_arc_sets():
    # right arc count, wrong shape: {0,1} doubled leaves {2,3} adrift
    with pytest.raises(ParseError):
        parse_tree("tree 4\n0 1\n2 3\n3 2")


def test_parse_error_is_a_value_error():
    assert issubclass(ParseError, ValueError)
