import hashlib

import pytest

from derivmon.corpus import GenConfig, file_descriptor_spec, gen_corpus, shrink_regex
from derivmon.syntax import Empty, Shuffle, Star, Sym, format_regex, parse, size, subterms


class TestGenRegex:
    def test_seeded_streams_are_pinned(self):
        # The acceptance corpora and the benchmark's check-corpus pool are
        # such streams, so changing one has to be a deliberate act.
        digest = hashlib.sha256()
        for cfg in (
            GenConfig(seed=0),
            GenConfig(seed=1, shuffle_enabled=False),
            GenConfig(seed=2, max_size=3, alphabet_size=1),
            GenConfig(seed=3, max_size=40, alphabet_size=30),
        ):
            for e in gen_corpus(cfg, 200):
                digest.update(format_regex(e).encode() + b"\n")
        assert digest.hexdigest() == (
            "68669ba595d217e8730b76a47aba613f908779144beec4539d2ced454aeda14d"
        )

    def test_different_seeds_differ_somewhere(self):
        a = gen_corpus(GenConfig(seed=1), 20)
        b = gen_corpus(GenConfig(seed=2), 20)
        assert a != b

    def test_size_bound_is_respected(self):
        for e in gen_corpus(GenConfig(seed=7, max_size=9), 300):
            assert 1 <= size(e) <= 9

    def test_shuffle_can_be_disabled(self):
        for e in gen_corpus(GenConfig(seed=3, shuffle_enabled=False), 300):
            assert not any(isinstance(sub, Shuffle) for sub in subterms(e))

    def test_shuffle_enabled_produces_shuffles(self):
        corpus = gen_corpus(GenConfig(seed=3), 300)
        assert any(
            isinstance(sub, Shuffle) for e in corpus for sub in subterms(e)
        )

    def test_degenerate_empty_leaf_is_generated(self):
        corpus = gen_corpus(GenConfig(seed=5), 500)
        assert any(
            isinstance(sub, Empty) for e in corpus for sub in subterms(e)
        )

    def test_single_node_budget_yields_a_leaf(self):
        (e,) = gen_corpus(GenConfig(seed=11, max_size=1), 1)
        assert size(e) == 1

    @pytest.mark.parametrize("count", [0, 3])
    def test_invalid_budget_rejected_whatever_the_count(self, count):
        bad = (GenConfig(max_size=0), GenConfig(alphabet_size=0), GenConfig(alphabet_size=-1))
        for cfg in bad:
            with pytest.raises(ValueError):
                gen_corpus(cfg, count)

    def test_alphabet_size_controls_symbols(self):
        corpus = gen_corpus(GenConfig(seed=9, alphabet_size=2), 200)
        names = {
            sub.name for e in corpus for sub in subterms(e) if isinstance(sub, Sym)
        }
        assert names <= {"a", "b"}


class TestFileDescriptorSpec:
    def test_two_sessions_shape(self):
        assert file_descriptor_spec(2) == parse("o1 a1 c1 || o2 a2 c2")

    def test_one_session_has_no_shuffle(self):
        assert file_descriptor_spec(1) == parse("o1 a1 c1")

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            file_descriptor_spec(0)


class TestShrink:
    def test_shrinks_to_the_failing_core(self):
        e = parse("(a* || b*) + (c c c)")
        has_shuffle = lambda x: any(isinstance(sub, Shuffle) for sub in subterms(x))
        shrunk = shrink_regex(e, has_shuffle)
        assert has_shuffle(shrunk)
        assert size(shrunk) <= size(parse("a* || b*"))

    def test_fixpoint_when_nothing_smaller_works(self):
        e = Star(Sym("a"))
        assert shrink_regex(e, lambda x: isinstance(x, Star)) == e
