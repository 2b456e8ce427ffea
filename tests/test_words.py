import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_left_connected, oracle_word_key
from treeshift.errors import BudgetError, InputError
from treeshift.words import (
    IDENTITY,
    LeftConnectedSet,
    Letter,
    Word,
    ball,
    ball_size,
    edge_letter,
    in_past,
    inverse,
    letters_of_rank,
    multiply,
    parent,
    reduce,
    single,
    word_from_str,
    word_to_str,
)

s1, s2 = Letter(0, 1), Letter(1, 1)
s1i, s2i = s1.inverse(), s2.inverse()


def oracle_reduce(seq):
    """Repeated-scan cancellation of adjacent inverse pairs until fixpoint."""
    seq = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i].gen == seq[i + 1].gen and seq[i].sign == -seq[i + 1].sign:
                del seq[i : i + 2]
                changed = True
                break
    return tuple(seq)


letters_st = st.builds(Letter, st.integers(0, 2), st.sampled_from([1, -1]))
seqs_st = st.lists(letters_st, max_size=12)
reduced_st = seqs_st.map(oracle_reduce)


class TestReduce:
    def test_cancellation(self):
        assert reduce([s1, s1i]) == IDENTITY

    def test_inner_cancellation(self):
        assert reduce([s1, s2, s2i, s1]) == Word([s1, s1])

    def test_cascading(self):
        assert reduce([s2, s1, s1i, s2i, s1]) == Word([s1])

    @given(seqs_st)
    def test_matches_rescan_oracle(self, seq):
        assert reduce(seq).letters == oracle_reduce(seq)

    @given(seqs_st)
    def test_idempotent(self, seq):
        w = reduce(seq)
        assert reduce(w.letters) == w


class TestGroupLaw:
    def test_identity(self):
        w = Word([s1, s2])
        assert multiply(IDENTITY, w) == w
        assert multiply(w, IDENTITY) == w

    def test_inverse_antihomomorphism(self):
        assert inverse(Word([s1, s2])) == Word([s2i, s1i])

    def test_seam_cancellation(self):
        assert multiply(Word([s1, s2]), Word([s2i, s1])) == Word([s1, s1])

    @given(seqs_st, seqs_st)
    def test_matches_concat_reduce_oracle(self, a, b):
        w1, w2 = reduce(a), reduce(b)
        assert multiply(w1, w2) == reduce(list(w1.letters) + list(w2.letters))

    @given(seqs_st)
    def test_right_inverse(self, seq):
        w = reduce(seq)
        assert multiply(w, inverse(w)) == IDENTITY

    @given(seqs_st, seqs_st, st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=50)
    def test_unchecked_words_equal_reduced(self, a, b, rank, radius):
        """multiply, parent, inverse and ball skip the reducedness check; each
        word they return equals, and hashes like, reduce of its letters."""

        def same(w, letters):
            r = reduce(letters)
            assert w == r and hash(w) == hash(r)

        w1, w2 = reduce(a), reduce(b)
        same(multiply(w1, w2), w1.letters + w2.letters)
        same(inverse(w1), [l.inverse() for l in reversed(w1.letters)])
        if not w1.is_identity:
            same(parent(w1), w1.letters[1:])
        for w in ball(rank, radius):
            same(w, w.letters)


class TestParent:
    def test_drops_leftmost(self):
        assert parent(Word([s2, s1])) == Word([s1])
        assert parent(Word([s1])) == IDENTITY
        assert parent(Word([s1i, s2, s1])) == Word([s2, s1])

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
                multiply(single(l), g)
                for l in letters_of_rank(2)
                if len(multiply(single(l), g)) == len(g) - 1
            ]
            assert shorter == [parent(g)]
            quot = multiply(g, inverse(parent(g)))
            assert len(quot) == 1
            assert edge_letter(g) == quot.letters[0]


class TestPast:
    def test_rightmost_letter(self):
        assert in_past(Word([s2, s1]), s1)
        assert not in_past(IDENTITY, s1)
        assert not in_past(Word([s1i]), s1)
        assert in_past(Word([s1i]), s1i)

    def test_length_drop_characterization(self):
        for g in ball(2, 3):
            for l in letters_of_rank(2):
                expected = len(multiply(g, single(l.inverse()))) == len(g) - 1
                assert in_past(g, l) == expected

    def test_partition_law(self):
        # every nonidentity word lies in past(s) for exactly one letter s
        for g in ball(2, 5):
            hits = [l for l in letters_of_rank(2) if in_past(g, l)]
            assert len(hits) == (0 if g.is_identity else 1)


class TestBall:
    def test_sizes_rank2(self):
        assert len(ball(2, 0)) == 1
        assert len(ball(2, 1)) == 5
        assert len(ball(2, 2)) == 17
        assert ball_size(2, 2) == 17

    def test_matches_brute_enumeration(self):
        for rank, radius in [(2, 3), (3, 2)]:
            brute = set()
            alphabet = letters_of_rank(rank)
            for n in range(radius + 1):
                for tup in itertools.product(alphabet, repeat=n):
                    w = reduce(tup)
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
        assert is_left_connected({IDENTITY, single(s1)})
        assert not is_left_connected({IDENTITY, Word([s1, s1])})
        assert is_left_connected(set(ball(2, 2)))

    def test_no_identity_needed(self):
        # a path hanging off s1 is connected without containing e
        assert is_left_connected({single(s1), Word([s2, s1]), Word([s1, s2, s1])})
        assert not is_left_connected({single(s1), Word([s1, s2, s1])})

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
            LeftConnectedSet([single(s1)])
        with pytest.raises(DomainError):
            LeftConnectedSet([IDENTITY, Word([s1, s1])])


class TestSerialization:
    def test_tokens(self):
        assert word_to_str(IDENTITY) == "e"
        assert word_to_str(Word([s2, s1])) == "s2.s1"
        assert word_from_str("s1^-1.s2") == Word([s1i, s2])

    @given(seqs_st)
    def test_round_trip(self, seq):
        w = reduce(seq)
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
        words = [Word(ls) for ls in seqs]
        assert sorted(words, key=Word.sort_key) == sorted(words, key=oracle_word_key)

    @given(reduced_st, reduced_st)
    def test_comparisons_match_oracle(self, a, b):
        """The canonical order is the order of sort_key; equality is tuple equality."""
        v, w = Word(a), Word(b)
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
        assert len(set(b.words)) == len(b) == ball_size(rank, radius)
        again = LeftConnectedSet(reversed(b.words))
        assert again == b and all(w in b for w in again)


class TestLetterBoundary:
    @given(reduced_st)
    def test_letters_round_trip(self, ls):
        w = Word(ls)
        assert w.letters == tuple(ls)
        assert all(type(l) is Letter for l in w.letters)
        assert word_from_str(str(w)) == w
        assert reduce(ls) == w and hash(reduce(ls)) == hash(w)

    @given(reduced_st.filter(bool))
    def test_edge_letter_is_a_letter(self, ls):
        w = Word(ls)
        assert type(edge_letter(w)) is Letter and edge_letter(w) == ls[0]
        assert in_past(w, ls[-1]) and not in_past(w, ls[-1].inverse())

    def test_letters_of_rank_are_letters(self):
        assert letters_of_rank(2) == (s1, s1i, s2, s2i)
        assert all(type(l) is Letter for l in letters_of_rank(3))
        assert single(s2i).letters == (s2i,)

    def test_unreduced_rejected_with_letter_names(self):
        with pytest.raises(InputError, match=r"s2\.s2\^-1"):
            Word([s1, s2, s2i])

    @pytest.mark.parametrize(
        "bad",
        [(0, 1), Letter(-1, 1), Letter(0, 0), Letter(0, 2), Letter("s1", 1), Letter(True, 1), "s1", 0],
        ids=["plain-tuple", "negative-gen", "sign-0", "sign-2", "str-gen", "bool-gen", "str", "int"],
    )
    def test_malformed_letters_rejected(self, bad):
        with pytest.raises(InputError):
            Word([bad])
        with pytest.raises(InputError):
            reduce([s1, bad])
        with pytest.raises(InputError):
            in_past(Word([s1]), bad)
