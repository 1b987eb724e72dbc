"""Exact-arithmetic workbench for graph operads, polydifferential
operads, graph complexes and Gutt star products."""

import functools

__version__ = "0.1.0"

# The one cache policy of the library: every memoised normal form,
# symmetric action, differential and star product goes through this
# bounded LRU memo, so memory stays bounded and f.cache_info() reports
# entries, hits and misses.  The bound is far above the largest cache
# any table or op-stream fills (a few thousand entries), so nothing is
# evicted there; one `cohomology --complex def-olie --d 2 --arity 2
# --internal 3` call, for example, fills 851 entries of
# poly._term_action and 203 of poly._component_action.
MEMO_MAXSIZE = 2 ** 16
memo = functools.lru_cache(maxsize=MEMO_MAXSIZE)
