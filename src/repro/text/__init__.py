"""Text preprocessing substrate: tokenizer, stop words, stemmer, pipeline."""

from .pipeline import PreprocessOptions, Preprocessor
from .stemmer import stem, stem_tokens
from .stopwords import FUNCTION_WORDS, STOP_WORDS, is_function_word, is_stop_word
from .tokenizer import tokenize

__all__ = [
    "FUNCTION_WORDS",
    "PreprocessOptions",
    "Preprocessor",
    "STOP_WORDS",
    "is_function_word",
    "is_stop_word",
    "stem",
    "stem_tokens",
    "tokenize",
]
