import pytest

from g2schubert import octonion, weyl


HASSE = {
    "": (1, 2), "s": (2, 1), "t": (1, 3),
    "st": (2, 5), "ts": (3, 1),
    "sts": (5, 2), "tst": (3, 6),
    "stst": (5, 7), "tsts": (6, 3),
    "ststs": (7, 5), "tstst": (6, 7),
    "ststst": (7, 6),
}


class TestElements:
    def test_words_and_pairs(self):
        for word, pair in HASSE.items():
            assert weyl.element(word).pair == pair
            assert weyl.element(pair).word == word

    def test_identity_aliases(self):
        assert weyl.element("id") is weyl.identity()
        assert weyl.element("1 2") is weyl.identity()

    def test_longest_has_two_words(self):
        w0 = weyl.longest()
        assert w0.length == 6
        assert all(weyl.element(word) is w0 for word in weyl.LONGEST_WORDS)

    def test_reduced_word_counts(self):
        from itertools import product
        from g2schubert.weyl import _eval_word
        for w in weyl.all_elements():
            words = [  # all reduced expressions for w
                "".join(ls) for ls in product("st", repeat=w.length)
                if _eval_word("".join(ls)) == w.perm]
            assert len(words) == (2 if w is weyl.longest() else 1)

    def test_simple_reflections(self):
        assert weyl.element("s").pair == (2, 1)
        assert weyl.element("t").pair == (1, 3)

    @pytest.mark.parametrize("text", ["\u00b2 1", "\u0665 \u0662", "5 \uff12"],
                             ids=["superscript", "arabic-indic", "fullwidth"])
    def test_pair_of_non_ascii_digits_is_refused(self, text):
        # str.isdigit takes each of these, and int() reads the last two as
        # 5 2; a pair is ASCII digits, as in the polynomial grammar
        with pytest.raises(ValueError, match="cannot parse Weyl element"):
            weyl.element(text)


class TestGroupLaw:
    def test_involutions(self):
        s, t = weyl.element("s"), weyl.element("t")
        assert s * s is weyl.identity()
        assert t * t is weyl.identity()

    def test_inverse_of_st(self):
        st = weyl.element("st")
        assert st.inverse() is weyl.element("ts")

    def test_length_of_inverse(self):
        for w in weyl.all_elements():
            assert w.inverse().length == w.length

    def test_longest_is_central(self):
        w0 = weyl.longest()
        for w in weyl.all_elements():
            assert (w0 * w) is (w * w0)

    def test_nonreduced_word_rejected(self):
        with pytest.raises(weyl.NonReducedWord):
            weyl.element("ss")


class TestEmbedding:
    def test_generators(self):
        assert weyl.element("s").perm == (2, 1, 5, 4, 3, 7, 6)
        assert weyl.element("t").perm == (1, 3, 2, 4, 6, 5, 7)

    def test_longest_reverses(self):
        assert weyl.longest().perm == (7, 6, 5, 4, 3, 2, 1)

    def test_action_on_weights_follows_the_permutation(self):
        chi = weyl.weights()
        for w in weyl.all_elements():
            for i in range(7):
                assert chi[i].subs(weyl.action(w)) == chi[w.perm[i] - 1], (w.name, i)


class TestExtendPair:
    def test_against_embedding(self):
        triples = octonion.fixed_point_triples()
        for w in weyl.all_elements():
            assert weyl.extend_pair(w.pair[0], w.pair[1], triples) == w.perm

    def test_examples(self):
        assert weyl.extend_pair(6, 3) == (6, 3, 7, 4, 1, 5, 2)
        assert weyl.extend_pair(1, 2) == (1, 2, 3, 4, 5, 6, 7)
        assert weyl.extend_pair(7, 6) == (7, 6, 5, 4, 3, 2, 1)

    def test_invalid_pair(self):
        with pytest.raises(weyl.InvalidPair):
            weyl.extend_pair(1, 7)


class TestBruhat:
    def test_subword_example(self):
        assert weyl.bruhat_leq(weyl.element("ts"), weyl.element("ststs"))

    def test_same_length_incomparable(self):
        st, ts = weyl.element("st"), weyl.element("ts")
        assert not weyl.bruhat_leq(st, ts)
        assert not weyl.bruhat_leq(ts, st)

class TestRankFunction:
    def test_identity_is_min(self):
        for q in range(1, 8):
            for p in range(1, 8):
                assert weyl.rank_fn(weyl.identity(), q, p) == min(q, p)

    def test_monotone_and_full(self):
        for w in weyl.all_elements():
            assert weyl.rank_fn(w, 7, 7) == 7
            for q in range(1, 8):
                for p in range(1, 7):
                    assert weyl.rank_fn(w, q, p) <= weyl.rank_fn(w, q, p + 1)
            for p in range(1, 8):
                for q in range(1, 7):
                    assert weyl.rank_fn(w, q, p) <= weyl.rank_fn(w, q + 1, p)
