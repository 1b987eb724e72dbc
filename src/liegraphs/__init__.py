"""Exact-arithmetic workbench for graph operads, polydifferential
operads, graph complexes and Gutt star products."""

import functools

__version__ = "0.1.0"

# The one cache policy of the library: every memoised normal form,
# Lyndon bracketing, symmetric action, differential, star product and
# layer of the graph enumeration goes through this bounded LRU memo, so
# memory stays bounded and f.cache_info() reports entries, hits and
# misses.  Each is keyed by a small piece of its input (a tree, word,
# term, graph, monomial or slice size), not by whole elements, so a
# stream of ever larger results does not stay in it.
# The bound is far above the largest cache any table or op-stream fills
# (a few thousand entries), so nothing is evicted there; one
# `cohomology --complex def-olie --d 2 --arity 2 --internal 3` call, for
# example, fills 574 entries of poly._term_action.
MEMO_MAXSIZE = 2 ** 16
memo = functools.lru_cache(maxsize=MEMO_MAXSIZE)
