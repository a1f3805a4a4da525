import pytest

from arboreal.amalgam import enumerate_trees
from arboreal.edge_algebra import edge_algebra
from arboreal.measure import _embedding_sum_key
from arboreal.trees import Tree, _signature


def embedding_sum(sub, tally):
    """The oracle of ``measure._embedding_sum_key``: the summed symbolic
    measure of the embeddings sub -> z over the trees z, each of which
    restricts to sub (not checked), given as the Counter of their
    signatures; not memoized."""
    return _embedding_sum_key.__wrapped__(_signature(sub), tally.items())


@pytest.fixture(scope="session")
def edge():
    """The shared edge-algebra fixture with its named elements."""
    return edge_algebra()


@pytest.fixture(scope="session")
def small_trees():
    """All trees on at most five of the labels a..e, grouped by size."""
    letters = "abcde"
    return {n: enumerate_trees(letters[:n]) for n in range(1, 6)}


@pytest.fixture
def keyed_sizes(monkeypatch):
    """The label count of every tree whose canonical key is asked for."""
    sizes = []
    canonical_key = Tree.canonical_key

    def recording(self):
        sizes.append(sum(len(ls) for ls in self.labels))
        return canonical_key(self)

    monkeypatch.setattr(Tree, "canonical_key", recording)
    return sizes
