import gc

import pytest

from funlog.cli import without_cycle_collector
from funlog.signature import Signature
from funlog.syntax import parse_expr
from funlog.calculus import Theory
from funlog.semantics import make_full_structure


def garbage_cycles_left_by(call) -> int:
    """The objects that only the cycle collector frees after call()."""
    with without_cycle_collector():
        gc.collect()
        call()
        return gc.collect()


@pytest.fixture
def toy_sig():
    return Signature(
        ["a"], ["a"],
        {"ca": "a", "cb": "a", "f": "(a)a", "mu": "((a)pi)a"})


@pytest.fixture
def toy_structure(toy_sig):
    # two elements, ca/cb name them, f swaps, mu is a definite-description-ish
    # pick: the first element whose predicate table says true, else the second
    def mu(t):
        for (x,), v in t.rows:
            if v == "1":
                return x
        return "1"
    return make_full_structure(
        toy_sig, {"a": ("0", "1")},
        {"ca": "0", "cb": "1", "f": lambda v: "1" if v == "0" else "0", "mu": mu})


@pytest.fixture
def toy_theory(toy_sig):
    return Theory(toy_sig, (
        parse_expr(toy_sig, "eq_a(f(ca),cb)"),
        parse_expr(toy_sig, "forall v0^a. eq_a(f(f(v0^a)),v0^a)"),
    ))


@pytest.fixture
def small_sig():
    return Signature(["a"], ["a"], {"ca": "a", "cb": "a", "f": "(a)a"})


@pytest.fixture
def small_structure(small_sig):
    return make_full_structure(
        small_sig, {"a": ("0", "1")},
        {"ca": "0", "cb": "1", "f": lambda v: "1" if v == "0" else "0"})
