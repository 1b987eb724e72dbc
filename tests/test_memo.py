"""The library's memoised functions share one bounded cache policy."""

from liegraphs import MEMO_MAXSIZE, defcx, gutt, poly

MEMOISED = (defcx._plain_changes, defcx._gc_differential,
            poly._basis_system, poly.component_normal_form,
            poly._component_action, poly._term_action,
            gutt._straighten, gutt._sigma_basis, gutt._sigma_inv_basis,
            gutt._star_basis)


def test_every_memo_is_bounded():
    for f in MEMOISED:
        info = f.cache_info()
        assert info.maxsize == MEMO_MAXSIZE, f.__name__
        assert info.currsize <= info.maxsize


def test_memo_counts_hits():
    defcx._plain_changes.cache_clear()
    first = defcx._plain_changes(4)
    assert defcx._plain_changes(4) is first
    info = defcx._plain_changes.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 4, 4)
