"""Tests for the preprocessing pipeline and stop-word lists."""

from repro.text import (
    FUNCTION_WORDS,
    STOP_WORDS,
    PreprocessOptions,
    Preprocessor,
    is_function_word,
    is_stop_word,
)


class TestStopWords:
    def test_common_stop_words_present(self):
        for word in ("the", "and", "of", "is"):
            assert is_stop_word(word)

    def test_content_words_absent(self):
        for word in ("network", "database", "learning"):
            assert not is_stop_word(word)

    def test_function_words_superset(self):
        assert STOP_WORDS <= FUNCTION_WORDS

    def test_twitter_noise_removed(self):
        assert is_stop_word("rt")

    def test_function_word_examples(self):
        assert is_function_word("really")
        assert not is_function_word("query")


class TestPreprocessor:
    def test_full_pipeline(self):
        pre = Preprocessor()
        tokens = pre.process_document("The networks are learning quickly! #AI")
        assert "#ai" in tokens
        assert "network" in tokens  # stemmed plural
        assert "the" not in tokens

    def test_min_word_filter(self):
        pre = Preprocessor()
        assert not pre.is_document_kept(["one"])
        assert pre.is_document_kept(["one", "two"])

    def test_stemming_can_be_disabled(self):
        pre = Preprocessor(PreprocessOptions(apply_stemming=False))
        tokens = pre.process_document("deep networks")
        assert "networks" in tokens

    def test_stop_word_removal_can_be_disabled(self):
        pre = Preprocessor(
            PreprocessOptions(remove_stop_words=False, pos_filter=False, apply_stemming=False)
        )
        tokens = pre.process_document("the network")
        assert "the" in tokens

    def test_hashtags_can_be_dropped(self):
        pre = Preprocessor(PreprocessOptions(keep_hashtags=False))
        tokens = pre.process_document("great stuff #tag")
        assert all(not t.startswith("#") for t in tokens)

    def test_short_tokens_dropped(self):
        pre = Preprocessor(PreprocessOptions(min_token_length=3, apply_stemming=False))
        tokens = pre.process_document("ab abc abcd")
        assert tokens == ["abc", "abcd"]

    def test_hashtags_not_stemmed(self):
        pre = Preprocessor()
        tokens = pre.process_document("#running fast marathon training")
        assert "#running" in tokens
