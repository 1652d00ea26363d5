"""The value classes: equality, hashing, immutability, repr and validation."""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import totpos
from totpos.diagrams import (Chamber, DiagramError, DiagramMove,
                             DoubleWiringDiagram, MoveGraph)
from totpos.exact import LaurentPoly
from totpos.matrices import Matrix, MinorSpec
from totpos.networks import NetworkError, PlanarNetwork
from totpos.words import Letter, Move, Permutation, diag, lower, upper

A, B = MinorSpec((1,), (1,)), MinorSpec((2,), (2,))
KEY = (((1,), (1,)),)

# (class, keyword fields, repr, invalid keyword fields and their error)
CASES = [
    (MinorSpec, dict(rows=(1, 2), cols=(1, 3)),
     "MinorSpec(rows=(1, 2), cols=(1, 3))",
     [(dict(rows=(1, 2), cols=(1,)), ValueError,
       "row and column sets must have equal size >= 1"),
      (dict(rows=(2, 1), cols=(1, 2)), ValueError,
       "indices must be strictly increasing and >= 1")]),
    (Permutation, dict(images=(2, 1, 3)),
     "Permutation(images=(2, 1, 3))",
     [(dict(images=(1, 1)), ValueError,
       "(1, 1) is not a permutation of 1..n")]),
    (Letter, dict(kind="upper", index=2),
     "Letter(kind='upper', index=2)",
     [(dict(kind="up", index=1), ValueError, "unknown letter kind 'up'"),
      (dict(kind="diag", index=0), ValueError,
       "letter index must be >= 1")]),
    (Move, dict(kind="braid", pos=3), "Move(kind='braid', pos=3)", []),
    (DoubleWiringDiagram, dict(word=(lower(1), upper(1)), n=2),
     "DoubleWiringDiagram(word=(Letter(kind='lower', index=1), "
     "Letter(kind='upper', index=1)), n=2)",
     [(dict(word=(), n=0), DiagramError,
       "diagram size n=0 must be at least 1"),
      (dict(word=(diag(1),), n=2), DiagramError,
       "letter @1 is not a crossing"),
      (dict(word=(lower(1),), n=2), DiagramError,
       "upper crossings do not form a reduced word for the reversal of "
       "1..2"),
      (dict(word=(upper(2),), n=2), DiagramError, "height 2 out of range")]),
    (Chamber, dict(spec=MinorSpec((1,), (2,)), level=1, start=0, stop=2,
                   bounded=True),
     "Chamber(spec=MinorSpec(rows=(1,), cols=(2,)), level=1, start=0, "
     "stop=2, bounded=True)", []),
    (DiagramMove, dict(kind="mixed", word=(lower(1), upper(1)), pos=0,
                       result=(upper(1), lower(1)), y=A, z=B,
                       a=MinorSpec((1,), (2,)), b=MinorSpec((2,), (1,)),
                       c=MinorSpec((1, 2), (1, 2)), d=None),
     "DiagramMove(kind='mixed', word=(Letter(kind='lower', index=1), "
     "Letter(kind='upper', index=1)), pos=0, result=(Letter(kind='upper', "
     "index=1), Letter(kind='lower', index=1)), y=MinorSpec(rows=(1,), "
     "cols=(1,)), z=MinorSpec(rows=(2,), cols=(2,)), a=MinorSpec(rows=(1,), "
     "cols=(2,)), b=MinorSpec(rows=(2,), cols=(1,)), "
     "c=MinorSpec(rows=(1, 2), cols=(1, 2)), d=None)", []),
    (Matrix, dict(rows=((1, "1/2"), (0, -3))),
     "Matrix([['1', '1/2'], ['0', '-3']])",
     [(dict(rows=((1, 2),)), ValueError,
       "matrix must be square and nonempty"),
      (dict(rows=()), ValueError, "matrix must be square and nonempty")]),
    (LaurentPoly, dict(variables=("x", "y"),
                       terms={(1, -1): 2, (0, 0): "1/2"}),
     "LaurentPoly(2*x*y^-1 + 1/2)",
     [(dict(variables=("x",), terms={(1, -1): 2}), ValueError,
       "exponent vector length does not match variables"),
      (dict(variables=("x",), terms={(1,): True}), TypeError,
       "cannot interpret True as an exact scalar")]),
    (MoveGraph, dict(n=1, keys=[KEY], representatives={KEY: ()}, edges=[]),
     "MoveGraph(n=1, keys=[(((1,), (1,)),)], "
     "representatives={(((1,), (1,)),): ()}, edges=[])", []),
    (PlanarNetwork, dict(n=1, vertices=((0, 1), (1, 1)),
                         edges=((0, 1, "2"),)),
     "PlanarNetwork(n=1, vertices=((0, 1), (1, 1)), "
     "edges=((0, 1, Fraction(2, 1)),), essential=())",
     [(dict(n=1, vertices=((0, 1), (0, 1)), edges=()), NetworkError,
       "duplicate vertex coordinates"),
      (dict(n=2, vertices=((0, 1), (1, 1)), edges=((0, 1, 1),)),
       NetworkError, "expected 2 sources and sinks, found 1 / 1"),
      (dict(n=1, vertices=((0, 1), (1, 1)), edges=((0, 2, 1),)),
       NetworkError, "edge endpoint out of range"),
      (dict(n=1, vertices=((0, 1), (1, 1)), edges=((1, 0, 1),)),
       NetworkError, "edges must increase strictly in x")]),
]


@pytest.mark.parametrize("cls, fields, text, invalid", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_contract(cls, fields, text, invalid):
    obj = cls(**fields)
    twin = cls(*fields.values())
    assert repr(obj) == text
    assert obj == twin and not obj != twin
    assert obj != object() and obj != (*fields.values(),)
    assert copy.copy(obj) == obj == pickle.loads(pickle.dumps(obj))
    assert copy.deepcopy(obj) == obj
    name = next(iter(fields))
    if cls is MoveGraph:
        # the one mutable record: no hash, and its fields can be set
        with pytest.raises(TypeError):
            hash(obj)
        twin.n = 2
        assert twin.n == 2 and obj != twin
    else:
        assert hash(obj) == hash(twin)
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert repr(obj) == text
    for bad, error, message in invalid:
        with pytest.raises(error, match=re.escape(message)):
            cls(**bad)


def test_records_differ_by_field():
    assert MinorSpec((1,), (2,)) != MinorSpec((2,), (1,))
    assert Letter("upper", 1) != Letter("lower", 1)
    assert Move("swap", 0) != Move("swap", 1)
    assert {upper(1): 0}[Letter("upper", 1)] == 0
    assert {MinorSpec((1, 2), (2, 3)): 0}[MinorSpec.of([2, 1], [3, 2])] == 0


def test_trusted_constructors_match_checked_ones():
    spec = MinorSpec.trusted((1, 3), (2, 3))
    assert spec == MinorSpec((1, 3), (2, 3))
    assert hash(spec) == hash(MinorSpec((1, 3), (2, 3)))
    with pytest.raises(AttributeError):
        spec.rows = (1, 2)
    fields = dict(n=1, vertices=((0, 1), (1, 1)), edges=((0, 1, 1),),
                  essential=(0,))
    assert PlanarNetwork._trusted(**fields) == PlanarNetwork(**fields)


def test_cli_import_skips_class_generation_modules():
    src = str(Path(totpos.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, totpos.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
