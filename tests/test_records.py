"""The package's records are NamedTuples: immutable, equal to the tuple of
their fields, and checked by _replace as by their constructors.  Importing
the package or its CLI loads neither dataclasses nor hashlib."""

import copy
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hcramsey import (
    BitstringFamily,
    ConnectivityVerdict,
    DeltaSystemReport,
    EdgeColoring,
    Graph,
    RamseyResult,
    SearchOutcome,
    arrow_check,
    emit_cnf,
    minimal_connected_graphs,
)
from hcramsey.search import SearchStats


def records():
    stats = SearchStats()
    return [
        Graph.path(3),
        ConnectivityVerdict("connected"),
        EdgeColoring(3, 2, (0, 1, 0)),
        BitstringFamily(2, ("00", "01")),
        DeltaSystemReport((0,), {}, {}, frozenset(), True),
        arrow_check(EdgeColoring.constant(4, 1), 3, 2),
        minimal_connected_graphs(3, 1),
        stats,
        SearchOutcome(1, 3, 2, 2, "avoiding", None, stats),
        RamseyResult(3, 1, 1, 3, 3, "determined", {}),
        emit_cnf(3, 3, 1, 2),
    ]


def test_reprs_name_every_field():
    verdict = ConnectivityVerdict("connected", (0, 1), ((0, 1),), frozenset())
    assert repr(EdgeColoring(3, 2, (0, 1, 0))) == "EdgeColoring(n=3, k=2, colors=(0, 1, 0))"
    assert repr(verdict) == (
        "ConnectivityVerdict(kind='connected', pair=(0, 1), paths=((0, 1),), "
        "separator=frozenset())"
    )
    assert repr(SearchStats()) == "SearchStats(nodes=0, forbidden_prunes=0, wall_time=0.0)"
    assert repr(arrow_check(EdgeColoring.constant(4, 1), 3, 2)) == (
        "ArrowWitness(color=0, vertices=(0, 1), verdict=ConnectivityVerdict("
        "kind='connected', pair=None, paths=(), separator=frozenset()))"
    )


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_every_field_refuses_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 0


def test_records_equal_the_tuple_of_their_fields():
    assert Graph.path(3) == (3, 5)
    assert SearchStats() == (0, 0, 0.0)
    assert EdgeColoring.constant(3, 1) == (3, 1, (0, 0, 0))


@pytest.mark.parametrize("record, change, message", [
    (EdgeColoring(3, 2, (0, 1, 0)), {"colors": (5, 5, 5)}, "color 5 out of range for k=2"),
    (BitstringFamily(2, ("00", "01")), {"strings": ("00", "00")},
     "duplicate strings in family"),
    (Graph.path(3), {"mask": 1 << 3}, "bad edge mask 8 for n=3"),
])
def test_replace_refuses_what_the_constructor_refuses(record, change, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        record._replace(**change)


def test_replace_builds_through_the_constructor():
    assert Graph.path(3)._replace(mask=7) == Graph.complete(3)
    recolored = EdgeColoring(3, 2, (0, 1, 0))._replace(colors=[1, 1, 1])
    assert type(recolored) is EdgeColoring and recolored.colors == (1, 1, 1)
    longer = BitstringFamily(1, ("0",))._replace(length=2, strings=["01"])
    assert longer == BitstringFamily(2, ("01",))


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_copy_and_pickle_keep_type_and_value(record):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


def test_import_loads_no_dataclasses_inspect_or_hashlib():
    # A fresh interpreter: the modules that importing the package (and
    # then the CLI) adds to those the bare interpreter already holds.
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
bare = set(sys.modules)
import hcramsey
package = set(sys.modules) - bare
import hcramsey.cli
cli = set(sys.modules) - bare - package
print(sorted(package & {{"dataclasses", "inspect", "hashlib"}}))
print(sorted(cli & {{"dataclasses", "inspect", "hashlib"}}))
print(hcramsey.__file__.startswith({str(src)!r}))
"""
    out = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == ["[]", "[]", "True", ""]
