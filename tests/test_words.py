import itertools
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    code,
    edge_letter,
    in_past,
    inverse_letter,
    is_left_connected,
    letters,
    letters_of_rank,
    oracle_word_key,
    word,
)
from treeshift.errors import BudgetError, InputError
from treeshift.words import (
    IDENTITY,
    LeftConnectedSet,
    Word,
    ball,
    inverse,
    multiply,
    parent,
    single,
    word_from_str,
    word_to_str,
)

s1, s2 = (0, 1), (1, 1)
s1i, s2i = inverse_letter(s1), inverse_letter(s2)


def oracle_reduce(seq):
    """Repeated-scan cancellation of adjacent inverse pairs until fixpoint."""
    seq = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i][0] == seq[i + 1][0] and seq[i][1] == -seq[i + 1][1]:
                del seq[i : i + 2]
                changed = True
                break
    return tuple(seq)


def product(seq) -> Word:
    """The group product of the letters' one-letter words, left to right."""
    return reduce(multiply, (single(code(l)) for l in seq), IDENTITY)


def reduced(seq) -> Word:
    """The Word of oracle_reduce(seq)."""
    return word(*oracle_reduce(seq))


letters_st = st.tuples(st.integers(0, 2), st.sampled_from([1, -1]))
seqs_st = st.lists(letters_st, max_size=12)
reduced_st = seqs_st.map(oracle_reduce)


class TestReduce:
    """Free reduction of a letter sequence is its product one letter at a time."""

    def test_cancellation(self):
        assert product([s1, s1i]) == IDENTITY

    def test_inner_cancellation(self):
        assert product([s1, s2, s2i, s1]) == word(s1, s1)

    def test_cascading(self):
        assert product([s2, s1, s1i, s2i, s1]) == word(s1)

    @given(seqs_st)
    def test_matches_rescan_oracle(self, seq):
        assert letters(product(seq)) == oracle_reduce(seq)

    @given(seqs_st)
    def test_idempotent(self, seq):
        w = product(seq)
        assert product(letters(w)) == w


class TestGroupLaw:
    def test_identity(self):
        w = word(s1, s2)
        assert multiply(IDENTITY, w) == w
        assert multiply(w, IDENTITY) == w

    def test_inverse_antihomomorphism(self):
        assert inverse(word(s1, s2)) == word(s2i, s1i)

    def test_seam_cancellation(self):
        assert multiply(word(s1, s2), word(s2i, s1)) == word(s1, s1)

    @given(seqs_st, seqs_st)
    def test_matches_concat_reduce_oracle(self, a, b):
        w1, w2 = reduced(a), reduced(b)
        assert multiply(w1, w2) == reduced(letters(w1) + letters(w2))

    @given(seqs_st)
    def test_right_inverse(self, seq):
        w = reduced(seq)
        assert multiply(w, inverse(w)) == IDENTITY

    @given(seqs_st, seqs_st, st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=50)
    def test_unchecked_words_equal_reduced(self, a, b, rank, radius):
        """multiply, parent, inverse and ball skip the reducedness check; each
        word they return equals, and hashes like, the reduced word of its letters."""

        def same(w, ls):
            r = reduced(ls)
            assert w == r and hash(w) == hash(r)

        w1, w2 = reduced(a), reduced(b)
        same(multiply(w1, w2), letters(w1) + letters(w2))
        same(inverse(w1), [inverse_letter(l) for l in reversed(letters(w1))])
        if not w1.is_identity:
            same(parent(w1), letters(w1)[1:])
        for w in ball(rank, radius):
            same(w, letters(w))


class TestParent:
    def test_drops_leftmost(self):
        assert parent(word(s2, s1)) == word(s1)
        assert parent(word(s1)) == IDENTITY
        assert parent(word(s1i, s2, s1)) == word(s2, s1)

    def test_identity_rejected(self):
        with pytest.raises(InputError):
            parent(IDENTITY)

    def test_unique_geodesic_neighbor(self):
        # exhaustive search over the ball: the parent is the unique neighbor
        # l.g with |l.g| = |g| - 1
        for g in ball(2, 3):
            if g.is_identity:
                continue
            shorter = [
                multiply(word(l), g)
                for l in letters_of_rank(2)
                if len(multiply(word(l), g)) == len(g) - 1
            ]
            assert shorter == [parent(g)]
            quot = multiply(g, inverse(parent(g)))
            assert len(quot) == 1
            assert edge_letter(g) == letters(quot)[0]


class TestPast:
    """The letter-level past of oracles.in_past, which check_past_preservation
    reads, against the group law on codes."""

    def test_rightmost_letter(self):
        assert in_past(word(s2, s1), s1)
        assert not in_past(IDENTITY, s1)
        assert not in_past(word(s1i), s1)
        assert in_past(word(s1i), s1i)

    def test_length_drop_characterization(self):
        for g in ball(2, 3):
            for l in letters_of_rank(2):
                expected = len(multiply(g, word(inverse_letter(l)))) == len(g) - 1
                assert in_past(g, l) == expected

    def test_partition_law(self):
        # every nonidentity word lies in past(s) for exactly one letter s
        for g in ball(2, 5):
            hits = [l for l in letters_of_rank(2) if in_past(g, l)]
            assert len(hits) == (0 if g.is_identity else 1)


class TestBall:
    def test_sizes_rank2(self):
        # 1 + 4 (3^radius - 1) / 2: four words of length 1, three children for each word past e
        assert [len(ball(2, r)) for r in range(5)] == [1, 5, 17, 53, 161]

    def test_matches_brute_enumeration(self):
        for rank, radius in [(2, 3), (3, 2)]:
            brute = set()
            alphabet = letters_of_rank(rank)
            for n in range(radius + 1):
                for tup in itertools.product(alphabet, repeat=n):
                    w = reduced(tup)
                    if len(w) <= radius:
                        brute.add(w)
            assert set(ball(rank, radius)) == brute

    def test_budget(self):
        with pytest.raises(BudgetError):
            ball(2, 20, budget=1000)

    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_budget_at_a_huge_radius(self, rank):
        """The size is counted sphere by sphere up to the budget, never in
        closed form: at radius 10^7 that number has millions of digits."""
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=f"radius 10000000 at rank {rank} exceeds budget 500000$"):
            ball(rank, 10**7)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "rank, radius", [(2, True), (True, 1), (2, False), (2, 1.0), (2.0, 1), (2, "1"), (None, 1)]
    )
    def test_rank_and_radius_must_be_ints(self, rank, radius):
        """A bool would pass as 0 or 1, and a float or a string raise a bare TypeError."""
        with pytest.raises(InputError):
            ball(rank, radius)

    def test_length_subadditive_on_ball(self):
        b = list(ball(2, 2))
        for g in b:
            for h in b:
                assert len(multiply(g, h)) <= len(g) + len(h)


class TestLeftConnected:
    def test_examples(self):
        assert is_left_connected({IDENTITY, word(s1)})
        assert not is_left_connected({IDENTITY, word(s1, s1)})
        assert is_left_connected(set(ball(2, 2)))

    def test_no_identity_needed(self):
        # a path hanging off s1 is connected without containing e
        assert is_left_connected({word(s1), word(s2, s1), word(s1, s2, s1)})
        assert not is_left_connected({word(s1), word(s1, s2, s1)})

    @given(st.sets(st.integers(0, 52), max_size=12))
    @settings(max_examples=60)
    def test_matches_bfs_oracle(self, picks):
        universe = list(ball(2, 3))
        words = {universe[i] for i in picks}
        # BFS oracle over the adjacency "one is the parent of the other"
        if not words:
            assert is_left_connected(words)
            return
        start = next(iter(words))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for w in frontier:
                for v in words:
                    if v in seen:
                        continue
                    adj = (not w.is_identity and parent(w) == v) or (
                        not v.is_identity and parent(v) == w
                    )
                    if adj:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        assert is_left_connected(words) == (seen == words)

    def test_set_type_requires_identity(self):
        from treeshift.errors import DomainError

        with pytest.raises(DomainError):
            LeftConnectedSet([word(s1)])
        with pytest.raises(DomainError):
            LeftConnectedSet([IDENTITY, word(s1, s1)])


class TestSerialization:
    def test_tokens(self):
        assert word_to_str(IDENTITY) == "e"
        assert word_to_str(word(s2, s1)) == "s2.s1"
        assert word_from_str("s1^-1.s2") == word(s1i, s2)

    @given(seqs_st)
    def test_round_trip(self, seq):
        w = reduced(seq)
        assert word_from_str(word_to_str(w)) == w

    def test_strict_parse(self):
        for bad in ["", "s0", "x1", "s1^1", "s1..s2", "s1 .s2", "E", "s1^-1.s1"]:
            with pytest.raises(InputError):
                word_from_str(bad)

    @pytest.mark.parametrize("bad", [None, 1, b"s1", ["s1"]])
    def test_parse_rejects_non_str(self, bad):
        with pytest.raises(InputError, match="from a str"):
            word_from_str(bad)


class TestCanonicalOrder:
    @given(st.lists(reduced_st, max_size=12))
    def test_sorting_matches_oracle(self, seqs):
        words = [word(*ls) for ls in seqs]
        assert sorted(words, key=Word.sort_key) == sorted(words, key=oracle_word_key)

    @given(reduced_st, reduced_st)
    def test_comparisons_match_oracle(self, a, b):
        """The canonical order is the order of sort_key; equality is tuple equality."""
        v, w = word(*a), word(*b)
        sv, sw = v.sort_key(), w.sort_key()
        kv, kw = oracle_word_key(v), oracle_word_key(w)
        assert (sv < sw, sv > sw, sv <= sw, sv >= sw) == (kv < kw, kv > kw, kv <= kw, kv >= kw)
        assert (v == w) == (kv == kw)

    def test_word_defines_no_rich_comparison(self):
        """Comparisons stay tuple's C slots, so a dict hit on an equal but
        distinct Word key never runs Python code."""
        for name in ("__lt__", "__le__", "__eq__", "__ne__", "__gt__", "__ge__"):
            assert name not in Word.__dict__
        assert Word.__eq__ is tuple.__eq__ and Word.__hash__ is tuple.__hash__

    @given(st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=30)
    def test_ball_already_in_oracle_order(self, rank, radius):
        """ball skips the sort and the parent checks; it equals the checked set."""
        b = ball(rank, radius)
        assert list(b.words) == sorted(b.words, key=oracle_word_key)
        # closed form: 1 + 2 rank sum_{r < radius} (2 rank - 1)^r words
        size = 1 + 2 * rank * sum((2 * rank - 1) ** r for r in range(radius))
        assert len(set(b.words)) == len(b) == size
        again = LeftConnectedSet(reversed(b.words))
        assert again == b and all(w in b for w in again)


class TestLetterBoundary:
    """A letter is its int code at every boundary: Word(...) and single take
    codes, and the oracles' (gen, sign) letters are read back from them."""

    @given(reduced_st)
    def test_letters_round_trip(self, ls):
        w = word(*ls)
        assert tuple(w) == tuple(map(code, ls)) and letters(w) == tuple(ls)
        assert all(type(c) is int for c in w)
        assert word_from_str(str(w)) == w
        assert Word(tuple(w)) == w and hash(Word(tuple(w))) == hash(w)

    @given(reduced_st.filter(bool))
    def test_edge_letter_is_a_letter(self, ls):
        """The tree edge above w is labelled by its first code, the oracle's edge letter."""
        w = word(*ls)
        assert multiply(single(w[0]), parent(w)) == w and edge_letter(w) == ls[0]
        assert in_past(w, ls[-1]) and not in_past(w, inverse_letter(ls[-1]))

    def test_letters_of_rank_are_letters(self):
        assert letters_of_rank(2) == (s1, s1i, s2, s2i)
        assert tuple(map(code, letters_of_rank(3))) == tuple(range(6))
        assert single(code(s2i)) == word(s2i) == (3,)

    def test_unreduced_rejected_with_letter_names(self):
        with pytest.raises(InputError, match=r"s2\.s2\^-1"):
            Word([0, 2, 3])

    @pytest.mark.parametrize(
        "bad",
        [(0, 1), -2, True, "s1", 0.0, None, [0]],
        ids=["plain-tuple", "negative-gen", "bool-gen", "str", "float", "None", "list"],
    )
    def test_malformed_letters_rejected(self, bad):
        """Anything but an int code, a (gen, sign) pair or the code -2 of a
        negative generator included, is refused by Word and single."""
        with pytest.raises(InputError):
            Word([bad])
        with pytest.raises(InputError):
            Word([0, bad])
        with pytest.raises(InputError):
            single(bad)
