import numpy as np
import pytest

from dpledger import (
    Aggregate,
    CategoryKey,
    QueryTransaction,
    WorldState,
    WriteTransaction,
)


def make_write(customer="Bob", product="bolt", color="red", quantity=10):
    return WriteTransaction(
        product_name=product,
        color=color,
        quantity=quantity,
        customer_name=customer,
    )


def make_query(aggregate=Aggregate.SUM, customer=None, product=None, color=None,
               requester="distributor-a"):
    return QueryTransaction(CategoryKey.of(aggregate, customer, product, color), requester)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_state():
    """World state with a handful of known records."""
    state = WorldState()
    rows = [
        ("Bob", "bolt", "red", 10),
        ("Bob", "bolt", "blue", 20),
        ("Claire", "valve", "red", 30),
        ("Claire", "bolt", "red", 5),
        ("David", "gear", "green", 50),
    ]
    for customer, product, color, qty in rows:
        state.apply_write(make_write(customer, product, color, qty))
    return state
