"""The package's records: named tuples, frozen, and cheap to import."""

import os
import pickle
import subprocess
import sys

import pytest

import midylab
from midylab import (
    GcdCertificate,
    arith,
    blocks_and_sum,
    errors,
    expansion,
    factor,
    jenkins,
    jenkins_decomposition,
    jenkins_instance,
    midy,
    midy_check_direct,
    midy_check_ppl2,
    midy_set,
    modulus_profile,
    order,
    period_digits,
    prime_power_structure,
    prime_progression,
    progression,
)
from midylab.errors import DomainError


def records():
    """One instance of every record type the package returns."""
    inst = jenkins_instance(10, 3, [(7, 1), (13, 1)])
    expansion = period_digits(1, 13, 10)
    return [
        midy_check_ppl2(8, 75, 10).certificate,
        midy_check_direct(8, 75, 10).certificate,
        GcdCertificate(g=11),
        midy_check_ppl2(8, 75, 10),
        midy_set(10, 13),
        expansion,
        blocks_and_sum(expansion, 3),
        inst,
        jenkins_decomposition(inst),
        prime_power_structure(10, 7, 2, 1),
        prime_progression(10, 2, 1, 3),
        modulus_profile(10, 91),
    ]


RECORDS = records()


class TestRecords:
    def test_every_record_type_is_covered(self):
        names = {type(r).__name__ for r in RECORDS}
        exported = {
            name for name in midylab.__all__
            if isinstance(getattr(midylab, name), type)
            and issubclass(getattr(midylab, name), tuple)
            and name != "Factorization"
        }
        assert names == exported

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_refuses_attribute_assignment(self, record):
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_pickles(self, record):
        again = pickle.loads(pickle.dumps(record))
        assert again == record
        assert type(again) is type(record)


class TestExports:
    MODULES = (arith, errors, expansion, jenkins, midy, order, progression)

    def test_package_exports_what_its_modules_export(self):
        joined = [name for module in self.MODULES for name in module.__all__]
        assert midylab.__all__ == joined
        assert len(set(joined)) == len(joined)
        for module in self.MODULES:
            for name in module.__all__:
                assert getattr(midylab, name) is getattr(module, name), name


class TestFactorization:
    def test_is_a_tuple_of_its_pairs(self):
        f = factor(360)
        assert f == ((2, 3), (3, 2), (5, 1))
        assert f.factors == tuple(f) and type(f.factors) is tuple
        assert list(f) == [(2, 3), (3, 2), (5, 1)]
        assert len(f) == 3 and len(factor(1)) == 0

    def test_repr_and_hash(self):
        f = factor(12)
        assert repr(f) == "Factorization(factors=((2, 2), (3, 1)))"
        assert repr(factor(1)) == "Factorization(factors=())"
        assert hash(f) == hash(arith.Factorization(((2, 2), (3, 1))))
        assert {f: 1}[arith.Factorization([(2, 2), (3, 1)])] == 1

    def test_frozen(self):
        f = factor(12)
        with pytest.raises(AttributeError):
            f.factors = ()
        with pytest.raises(AttributeError):
            f.extra = 1

    def test_pickles(self):
        f = factor(360)
        again = pickle.loads(pickle.dumps(f))
        assert again == f and type(again) is arith.Factorization

    def test_any_iterable_of_pairs(self):
        pairs = [(2, 1), (7, 2)]
        assert arith.Factorization(iter(pairs)) == arith.Factorization(pairs)
        # Unsorted pairs build, and are refused where they are supplied.
        unsorted = arith.Factorization(iter([(7, 1), (2, 1)]))
        assert unsorted == ((7, 1), (2, 1))
        with pytest.raises(DomainError):
            modulus_profile(3, 14, n_factors=unsorted)


def loaded_by_import(names):
    """The modules of names that importing midylab and midylab.cli loads."""
    # -S: no site hook may load a module before the package does.
    src = os.path.dirname(os.path.dirname(os.path.abspath(midylab.__file__)))
    code = (
        "import sys, midylab, midylab.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {sorted(names)!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_dataclasses():
    assert loaded_by_import({"dataclasses", "inspect"}) == "[]\n"


def test_import_loads_no_process_machinery():
    # The scan forks its workers with os.fork; no command pays at start-up
    # for an executor, its pickling or its threads.
    names = {"concurrent", "multiprocessing", "pickle", "threading"}
    assert loaded_by_import(names) == "[]\n"
