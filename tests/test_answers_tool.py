"""``tools/answers.py --against REV`` fails when an answer moves. Its
``compare`` is checked here on synthetic rows; the tool is a script, not a
package module, so it is loaded straight from its file."""

import importlib.util
from pathlib import Path

ANSWERS = Path(__file__).resolve().parent.parent / "tools" / "answers.py"


def _answers():
    spec = importlib.util.spec_from_file_location("answers_tool", ANSWERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ROWS = ["g k=2 weak\t2\t[0, 3]\t7\t-",
        "g k=2 strong\t3\t[0, 1, 3]\t12\tabc"]


def test_compare_passes_equal_rows_and_node_changes(capsys):
    compare = _answers().compare
    assert compare(ROWS, ROWS, "REV") == 0
    moved = [ROWS[0], "g k=2 strong\t3\t[0, 1, 3]\t9\tabc"]
    assert compare(ROWS, moved, "REV") == 0
    assert "nodes g k=2 strong: 12 -> 9" in capsys.readouterr().out


def test_compare_fails_a_row_on_one_side_only(capsys):
    compare = _answers().compare
    assert compare(ROWS, ROWS[:1], "REV") == 1
    assert "only in REV: g k=2 strong" in capsys.readouterr().out
    assert compare(ROWS[:1], ROWS, "REV") == 1
    assert "only in the tree: g k=2 strong" in capsys.readouterr().out


def test_compare_fails_a_moved_optimum_or_set():
    compare = _answers().compare
    assert compare(ROWS, ["g k=2 weak\t2\t[0, 4]\t7\t-", ROWS[1]], "REV") == 1
    assert compare(ROWS, ["g k=2 weak\t3\t[0, 3]\t7\t-", ROWS[1]], "REV") == 1


def test_compare_fails_a_refuted_witness_on_either_side(capsys):
    """A witness whose verdict is False, after a strong row's digest or in
    a ``strong_feasible`` row's optimum field, fails the comparison on
    either side, even when both sides agree; a weak cover verdict of False
    is an answer, not a witness, and passes."""
    compare = _answers().compare
    verified = ["g k=2 strong\t3\t[0, 1, 3]\t12\tabc True",
                "g k=2 feasible-greedy\tTrue\t[0, 1, 3]\t-\tdef",
                "g k=2 verify-weak-greedy-less\tFalse\t[0]\t-\t-"]
    assert compare(verified, verified, "REV") == 0
    for i, refuted in ((0, "g k=2 strong\t3\t[0, 1, 3]\t12\tabc False"),
                       (1, "g k=2 feasible-greedy\tFalse\t[0, 1, 3]\t-\tdef")):
        moved = verified[:i] + [refuted] + verified[i + 1:]
        name = refuted.split("\t")[0]
        assert compare(verified, moved, "REV") == 1
        assert f"witness refuted in the tree: {name}" in \
            capsys.readouterr().out
        assert compare(moved, verified, "REV") == 1
        assert f"witness refuted in REV: {name}" in capsys.readouterr().out
        assert compare(moved, moved, "REV") == 1


def test_pairs_digest_reads_pairs_whatever_type_holds_them(monkeypatch):
    """The ``pairs`` catalogue rows compare pair content and order across
    trees, so a named-tuple pair and a plain triple digest alike, and
    masks in another order (the two geodesics between opposite vertices of
    C_6 at k = 3) change the digest."""
    from collections import namedtuple

    import pathcover as pc

    digest = _answers()._pairs_digest
    G = pc.generate(pc.FamilySpec("cycle", (6,)))
    plain = digest(pc, G, 3)
    real = pc.cover.source_pairs
    Named = namedtuple("Named", "source target masks")
    monkeypatch.setattr(pc.cover, "source_pairs", lambda G, u, k: tuple(
        Named(*p) for p in real(G, u, k)))
    assert digest(pc, G, 3) == plain
    monkeypatch.setattr(pc.cover, "source_pairs", lambda G, u, k: tuple(
        (s, t, masks[::-1]) for s, t, masks in real(G, u, k)))
    assert digest(pc, G, 3) != plain
