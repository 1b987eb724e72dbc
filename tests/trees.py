"""Bracket-tree helpers shared by the test modules: a tree is a leaf
label or a pair (left, right) of trees."""


def _relabel_tree(tree, mapping):
    """The tree with every leaf replaced by its image under `mapping`:
    a leaf rewrite of the tests' own, beside `lie.refill`."""
    if isinstance(tree, tuple):
        return (_relabel_tree(tree[0], mapping),
                _relabel_tree(tree[1], mapping))
    return mapping[tree]


def all_bracketings(labels):
    """Every binary bracketing of the sequence of leaf labels."""
    if len(labels) == 1:
        yield labels[0]
        return
    for cut in range(1, len(labels)):
        for left in all_bracketings(labels[:cut]):
            for right in all_bracketings(labels[cut:]):
                yield (left, right)
