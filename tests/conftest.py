"""Fixtures shared by the test modules."""

import pytest

import naive_ref


@pytest.fixture
def naive(monkeypatch):
    """naive_ref's literal clauses behind a memo, cleared for each trace.

    The reference rebuilds relations and re-evaluates subformulas on every
    call, which is exponential in modal nesting; the memo only reuses its
    own results."""
    satisfies, relation = naive_ref.naive_satisfies, naive_ref.naive_relation
    memo: dict = {}

    def memo_satisfies(m, k, f, world="here"):
        key = (m, k, id(f), world)
        if key not in memo:
            memo[key] = satisfies(m, k, f, world)
        return memo[key]

    def memo_relation(rho, m):
        key = (m, id(rho))
        if key not in memo:
            memo[key] = relation(rho, m)
        return memo[key]

    monkeypatch.setattr(naive_ref, "naive_satisfies", memo_satisfies)
    monkeypatch.setattr(naive_ref, "naive_relation", memo_relation)
    return memo_satisfies, memo.clear
