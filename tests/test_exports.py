"""The package's public names: ``reachbot.__all__`` against what the package holds."""
import reachbot as rb


def test_every_exported_name_resolves():
    assert len(set(rb.__all__)) == len(rb.__all__)
    missing = [name for name in rb.__all__ if not hasattr(rb, name)]
    assert missing == []


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from reachbot import *", namespace)  # raises on a name that does not resolve
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(rb.__all__)
