from __future__ import annotations

import math
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import simulharness
from helpers import oracle_bleu, oracle_tokenize_13a
from simulharness import corpus_bleu, tokenize_13a


def test_the_bleu_submodule_is_not_shadowed():
    assert simulharness.bleu is sys.modules["simulharness.bleu"]

# ---------------------------------------------------------------------------
# Tokenizer: frozen fixtures (hand-derived from the documented rules)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "line, expected",
    [
        ("Hello, world!", ["Hello", ",", "world", "!"]),
        ("3.5 km", ["3.5", "km"]),                  # digit.digit stays glued
        ("1-2", ["1", "-", "2"]),                   # dash after a digit splits
        ("v2.0?", ["v2.0", "?"]),
        ('a &quot;b&quot;', ["a", '"', "b", '"']),  # XML entities first
        ("keep <skipped> none", ["keep", "none"]),
        ("A  B\tC", ["A", "B", "C"]),
        ("it's fine", ["it's", "fine"]),            # apostrophe is not split
        ("(x) [y] {z}",
         ["(", "x", ")", "[", "y", "]", "{", "z", "}"]),
        ("end.", ["end", "."]),
        ("1,000 points", ["1,000", "points"]),      # digit,digit stays glued
        ("pay 5,  now", ["pay", "5", ",", "now"]),  # digit, non-digit splits
        ("", []),
    ],
)
def test_tokenize_13a_frozen_cases(line, expected):
    assert tokenize_13a(line) == expected


#: every character the symbol rule pads, whitespace, digits, the period,
#: comma and dash rules' characters, the entities, ``<skipped>``, letters
#: and non-ASCII text (a no-break space too, which ``split`` splits on)
_13A_PIECES = (
    [chr(c) for c in range(0x21, 0x7F) if not chr(c).isalnum()
     and chr(c) not in "'.,-"]
    + list(" \t\n0123456789.,-'aZ")
    + ["&quot;", "&amp;", "&lt;", "&gt;", "<skipped>", "é", "日本",
       "\u00a0", "ß-"]
)


@given(st.lists(st.sampled_from(_13A_PIECES), max_size=30).map("".join))
def test_tokenize_13a_equals_the_literal_rule_set(line):
    assert tokenize_13a(line) == oracle_tokenize_13a(line)


@given(st.text(alphabet="abcz .,!?()0123456789-'\"&<>\n\t", max_size=40))
def test_tokenize_13a_yields_whitespace_free_tokens(line):
    tokens = tokenize_13a(line)
    assert all(tok and not tok.isspace() for tok in tokens)
    assert all(" " not in tok and "\t" not in tok for tok in tokens)


# ---------------------------------------------------------------------------
# Corpus score: hand-derived fixture arithmetic
# ---------------------------------------------------------------------------


def test_bleu_hand_fixture_short_hypothesis():
    """4-word hypothesis against a 6-word reference, worked by hand.

    p1 = 4/4, p2 = 2/3, p3 = 1/2, p4 smoothed to 100/(2*1); one word pair
    short of the reference twice over, so BP = exp(1 - 6/4).
    """
    hyp = [["the", "cat", "sat", "mat"]]
    ref = [["the", "cat", "sat", "on", "the", "mat"]]
    expected = math.exp(1 - 6 / 4) * math.exp(
        (math.log(100.0) + math.log(200.0 / 3.0)
         + math.log(50.0) + math.log(50.0)) / 4
    )
    score = corpus_bleu(hyp, ref)
    assert score == pytest.approx(expected, abs=1e-9)
    assert score == pytest.approx(38.75385825373298, abs=1e-9)
    assert oracle_bleu(hyp, ref) == pytest.approx(expected, abs=1e-9)


def test_bleu_hand_fixture_smoothing_without_brevity():
    """Equal lengths isolate the smoothing rule: only p4 hits zero."""
    hyp = [["a", "b", "c", "d"]]
    ref = [["a", "b", "c", "x"]]
    expected = math.exp(
        (math.log(75.0) + math.log(200.0 / 3.0)
         + math.log(50.0) + math.log(50.0)) / 4
    )
    assert corpus_bleu(hyp, ref) == pytest.approx(expected, abs=1e-9)
    assert oracle_bleu(hyp, ref) == pytest.approx(expected, abs=1e-9)


def test_bleu_two_sentence_corpus_frozen_value():
    hyp = [
        ["the", "quick", "brown", "fox", "jumps"],
        ["over", "the", "lazy", "dog", "today"],
    ]
    ref = [
        ["the", "quick", "brown", "fox", "jumped"],
        ["over", "the", "lazy", "dog", "now"],
    ]
    assert corpus_bleu(hyp, ref) == pytest.approx(
        66.87403049764218, abs=1e-9
    )
    assert oracle_bleu(hyp, ref) == pytest.approx(
        66.87403049764218, abs=1e-9
    )


def test_bleu_identity_and_empty():
    assert corpus_bleu(
        [["a", "b", "c", "d", "e"]], [["a", "b", "c", "d", "e"]]
    ) == pytest.approx(100.0, abs=1e-6)
    assert corpus_bleu([[]], [["a", "b"]]) == 0.0


def test_bleu_counts_accumulate_over_the_corpus():
    """Doubling a corpus (with non-zero counts at all orders) changes
    nothing: clipped counts and totals scale together."""
    hyp = [
        ["the", "quick", "brown", "fox", "jumps"],
        ["over", "the", "lazy", "dog", "today"],
    ]
    ref = [
        ["the", "quick", "brown", "fox", "jumped"],
        ["over", "the", "lazy", "dog", "now"],
    ]
    single = corpus_bleu(hyp, ref)
    doubled = corpus_bleu(hyp * 2, ref * 2)
    assert doubled == pytest.approx(single, abs=1e-9)


def test_bleu_validates_inputs():
    with pytest.raises(ValueError, match="hypotheses"):
        corpus_bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(ValueError, match="empty corpus"):
        corpus_bleu([], [])


# ---------------------------------------------------------------------------
# Dual route: package score vs brute-force oracle
# ---------------------------------------------------------------------------

_sentence = st.lists(
    st.sampled_from("ab cd ef gh ij kl mn op".split()), min_size=0, max_size=8
)
_corpus = st.lists(st.tuples(_sentence, _sentence), min_size=1, max_size=5)


@given(corpus=_corpus)
def test_bleu_matches_brute_force_oracle(corpus):
    hyps = [list(h) for h, _ in corpus]
    refs = [list(r) for _, r in corpus]
    package = corpus_bleu(hyps, refs)
    oracle = oracle_bleu(hyps, refs)
    assert package == pytest.approx(oracle, abs=1e-9)
    assert 0.0 <= package <= 100.0 + 1e-9


@given(
    sentences=st.lists(
        st.lists(
            st.sampled_from("ab cd ef gh ij kl mn op".split()),
            min_size=4,  # shorter corpora have no 4-grams and score 0
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_bleu_identity_corpus_is_100(sentences):
    assert corpus_bleu(sentences, sentences) == pytest.approx(
        100.0, abs=1e-6
    )


def test_bleu_identity_shorter_than_the_ngram_order_scores_zero():
    """With no 4-grams anywhere the final order never accumulates a total;
    its floored log zeroes the geometric mean (matching the reference
    scorer's behavior on degenerate corpora)."""
    for words in (["ab"], ["ab", "cd"], ["ab", "cd", "ef"]):
        assert corpus_bleu([words], [words]) == 0.0


# ---------------------------------------------------------------------------
# Shared references: each reference scored once inside the block
# ---------------------------------------------------------------------------


@given(data=st.data())
def test_shared_references_score_bit_for_bit_as_plain_calls(data):
    """Points drawn over one reference pool and one hypothesis pool, scored
    inside one block, give the plain calls' scores exactly, cold or warm:
    references repeat within and across points, and so do the hypotheses
    scored against each, which equal, differ from or miss them.  The memo
    keeps one entry per reference line, holding each hypothesis line scored
    against it."""
    pool = data.draw(st.lists(_sentence, min_size=1, max_size=3))
    hyp_pool = data.draw(st.lists(_sentence, min_size=1, max_size=3))
    index = st.integers(0, len(pool) - 1)
    hyp = st.none() | st.just([]) | st.sampled_from(hyp_pool) | _sentence
    points = data.draw(st.lists(
        st.lists(st.tuples(index, hyp), min_size=1, max_size=6),
        min_size=1, max_size=4,
    ))
    scored = []
    for point in points:
        refs = [pool[i] for i, _ in point]
        hyps = [pool[i] if hyp is None else hyp for i, hyp in point]
        scored.append((hyps, refs, corpus_bleu(hyps, refs)))
    with simulharness.bleu.shared_references():
        for hyps, refs, plain in scored + scored[::-1]:
            assert corpus_bleu(hyps, refs) == plain
        memo = simulharness.bleu._references.get()
    segments = {}
    for hyps, refs, _ in scored:
        for hyp_words, ref_words in zip(hyps, refs):
            segments.setdefault(" ".join(ref_words), set()).add(
                " ".join(hyp_words))
    assert {line: set(entry[2]) for line, entry in memo.items()} == segments


def test_shared_references_are_scoped_to_the_block_and_its_thread():
    seen = []
    with simulharness.bleu.shared_references():
        corpus_bleu([["ab"]], [["ab", "cd"]])
        seen.append(simulharness.bleu._references.get(None))
        thread = threading.Thread(target=lambda: seen.append(
            simulharness.bleu._references.get(None)))
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert list(seen[0]) == ["ab cd"]  # the block's memo, in its thread only
    assert seen[1] is None
    assert simulharness.bleu._references.get(None) is None
