"""The package's public names: ``reachbot.__all__`` against what the package holds,
and how its records compare and hash."""
import numpy as np
import pytest

import reachbot as rb
from reachbot.terrain import Frame


def test_every_exported_name_resolves():
    assert len(set(rb.__all__)) == len(rb.__all__)
    missing = [name for name in rb.__all__ if not hasattr(rb, name)]
    assert missing == []


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from reachbot import *", namespace)  # raises on a name that does not resolve
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(rb.__all__)


# A record that holds arrays compares by identity; the others compare their fields.
RECORDS = {
    "MountSpec": lambda: rb.MountSpec([0.0, 0.0, 0.5], [0.0, 0.0, 1.0]),
    "RobotConfig": lambda: rb.make_robot(3),
    "Frame": Frame,
    "AnchorSet": lambda: rb.AnchorSet(np.zeros((2, 3)), rb.corridor()),
    "Stance": lambda: rb.Stance([[0.5, 0, 0]], [[10.0, 0, 0]], np.zeros(3)),
    "StiffnessResult": lambda: rb.stiffness(np.eye(6), 1.0),
    "Terrain": rb.corridor,
    "StudyConfig": lambda: rb.StudyConfig(rb.corridor(), rb.make_robot(3)),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
def test_records_compare_and_hash(make):
    a, b = make(), make()
    assert (a == a) is True
    assert (a == b) is False and (a != b) is True  # distinct arrays inside
    assert type(hash(a)) is int and hash(a) == hash(a)
