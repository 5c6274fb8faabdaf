"""WordNet database file parsing and substitution lookup tests."""

import pytest

from entgraph.lexicon import LexicalResource

from conftest import pred


@pytest.fixture(scope="module")
def lex() -> LexicalResource:
    return LexicalResource.fixture()


class TestParsing:
    def test_verb_troponyms(self, lex):
        assert lex.verb_troponyms["hurt"] == ["burn"]
        assert lex.verb_troponyms["receive"] == ["inherit"]
        assert lex.verb_troponyms["kill"] == ["murder"]

    def test_noun_hyponyms(self, lex):
        assert lex.noun_hyponyms["candidate"] == ["write-in"]
        assert lex.noun_hyponyms["winner"] == ["champion"]

    def test_multiword_synset_words_all_collected(self, lex):
        assert lex.verb_troponyms["defeat"] == ["obliterate", "overwhelm"]

    def test_first_sense_restriction(self, lex):
        # sense 2 of "play" (gamble) is ignored: only first senses count
        assert lex.verb_troponyms["play"] == ["fumble"]

    def test_lemma_without_hyponyms_absent(self, lex):
        assert "drown" not in lex.verb_troponyms
        assert "champion" not in lex.noun_hyponyms


class TestSubstitution:
    def test_verbal_troponym(self, lex):
        hurt = pred("hurt", "person", "person")
        assert lex.substitutes_for_predicate(hurt) == [
            ("burn", "troponym:hurt->burn")
        ]

    def test_particle_preserved(self, lex):
        receive = pred("receive.from", "person", "person")
        assert lex.substitutes_for_predicate(receive) == [
            ("inherit.from", "troponym:receive->inherit")
        ]

    def test_copular_uses_noun_hyponyms(self, lex):
        candidate = pred("be.candidate.1", "person")
        assert lex.substitutes_for_predicate(candidate) == [
            ("be.write-in", "hyponym:candidate->write-in")
        ]

    def test_unknown_head_gives_nothing(self, lex):
        assert lex.substitutes_for_predicate(pred("quaff", "person", "person")) == []

    def test_unary_case_marker_kept_by_caller(self, lex):
        die = pred("die.1", "person")
        assert lex.substitutes_for_predicate(die) == [("drown", "troponym:die->drown")]
