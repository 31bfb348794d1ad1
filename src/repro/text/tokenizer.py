"""Tokenisation for short social-media documents.

The paper's corpora are tweets and paper titles; tokens are lower-cased
words plus Twitter-style ``#hashtags`` (which Sect. 6.3.2 uses as ranking
queries). URLs and ``@mentions`` carry no topical content and are dropped.
"""

from __future__ import annotations

import re

_URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"#\w[\w-]*|[a-zA-Z][a-zA-Z'-]+")


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lower-case word and hashtag tokens.

    >>> tokenize("Check #DeepLearning at http://x.co — @bob's RT!!")
    ['#deeplearning', 'at', "bob's", 'rt']
    """
    if not isinstance(text, str):
        raise TypeError("text must be a string")
    cleaned = _URL_RE.sub(" ", text)
    cleaned = _MENTION_RE.sub(lambda m: m.group(0)[1:], cleaned)
    return [token.lower() for token in _TOKEN_RE.findall(cleaned)]
