"""End-to-end document preprocessing reproducing paper Sect. 6.1.

The paper pre-processed tweets and paper titles by removing stop words,
stemming, and POS-tagging to keep only nouns, verbs and hashtags; documents
with fewer than two remaining words and users left with no documents were
dropped. :class:`Preprocessor` reproduces the sequence; the POS tagger is
replaced by a closed-class-word filter (see DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .stemmer import stem_tokens
from .stopwords import is_function_word, is_stop_word
from .tokenizer import tokenize


@dataclass
class PreprocessOptions:
    """Switches for each preprocessing stage.

    Attributes mirror the paper's steps; all default to the paper's setting.
    """

    remove_stop_words: bool = True
    apply_stemming: bool = True
    pos_filter: bool = True
    min_words_per_document: int = 2
    min_token_length: int = 2
    keep_hashtags: bool = True


@dataclass
class Preprocessor:
    """Turn raw document strings into token lists fit for topic modeling."""

    options: PreprocessOptions = field(default_factory=PreprocessOptions)

    def process_document(self, text: str) -> list[str]:
        """Preprocess one document; may return fewer than ``min_words`` tokens.

        Length filtering is the caller's decision (`is_document_kept`)
        because the builder also needs to drop the owning user when all of
        their documents vanish.
        """
        tokens = tokenize(text)
        kept = []
        for token in tokens:
            if token.startswith("#"):
                if self.options.keep_hashtags:
                    kept.append(token)
                continue
            if len(token) < self.options.min_token_length:
                continue
            if self.options.remove_stop_words and is_stop_word(token):
                continue
            if self.options.pos_filter and is_function_word(token):
                continue
            kept.append(token)
        if self.options.apply_stemming:
            kept = stem_tokens(kept)
        return kept

    def is_document_kept(self, tokens: list[str]) -> bool:
        """Apply the paper's "fewer than two words" document filter."""
        return len(tokens) >= self.options.min_words_per_document
