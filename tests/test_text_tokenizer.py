"""Tests for repro.text.tokenizer."""

import pytest

from repro.text import tokenize


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Deep Learning") == ["deep", "learning"]

    def test_keeps_hashtags(self):
        assert tokenize("launch #iPhone today") == ["launch", "#iphone", "today"]

    def test_strips_urls(self):
        assert "http" not in " ".join(tokenize("see http://example.com/x?y=1 now"))
        assert tokenize("see http://example.com now") == ["see", "now"]

    def test_strips_www_urls(self):
        assert tokenize("go www.example.com go") == ["go", "go"]

    def test_mentions_keep_name_text(self):
        assert tokenize("thanks @alice") == ["thanks", "alice"]

    def test_apostrophes_kept_in_words(self):
        assert tokenize("bob's code") == ["bob's", "code"]

    def test_numbers_dropped(self):
        assert tokenize("route 66 plan") == ["route", "plan"]

    def test_single_letters_dropped(self):
        assert tokenize("a b query") == ["query"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_punctuation_only(self):
        assert tokenize("!!! ... ???") == []

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            tokenize(42)

    def test_hashtag_with_dash(self):
        assert tokenize("#state-of-art stuff") == ["#state-of-art", "stuff"]
