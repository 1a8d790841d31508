"""SPARQL subset engine.

SOFYA's on-the-fly alignment only ever talks to remote datasets through
SPARQL endpoints, so this package implements the query subset those
interactions need:

* ``SELECT`` (with ``DISTINCT``, projection, ``*``), ``ASK``,
* aggregate ``COUNT`` (``SELECT (COUNT(*) AS ?c)`` / ``COUNT(DISTINCT ?x)``),
* basic graph patterns with joins on shared variables,
* ``OPTIONAL``, ``UNION``, ``FILTER`` with the common builtins,
* ``VALUES`` inline data,
* ``ORDER BY``, ``LIMIT``, ``OFFSET``.

The engine has four stages: the :mod:`lexer <repro.sparql.lexer>` produces
tokens, the :mod:`parser <repro.sparql.parser>` builds an AST
(:mod:`repro.sparql.ast`), the :mod:`planner <repro.sparql.plan>` orders
each basic graph pattern by estimated cardinality and assigns physical
join operators (index scan, hash join, nested lookup),
and the :mod:`evaluator <repro.sparql.evaluate>` streams the planned
operator pipeline against a :class:`~repro.store.TripleStore`, producing
a :class:`~repro.sparql.results.ResultSet`.
"""

from repro.sparql.ast import (
    AskQuery,
    CountExpression,
    GroupGraphPattern,
    SelectQuery,
    TriplePatternNode,
)
from repro.sparql.bindings import Binding, Variable
from repro.sparql.evaluate import QueryEvaluator, evaluate_query
from repro.sparql.parser import parse_query
from repro.sparql.plan import BGPPlan, CardinalityEstimator, PlanStep, plan_bgp
from repro.sparql.results import AskResult, ResultSet
from repro.sparql.scatter import (
    ShardedBGPPlan,
    ShardedQueryEvaluator,
    evaluate_sharded,
)

__all__ = [
    "Variable",
    "Binding",
    "parse_query",
    "evaluate_query",
    "QueryEvaluator",
    "BGPPlan",
    "PlanStep",
    "plan_bgp",
    "CardinalityEstimator",
    "ResultSet",
    "AskResult",
    "SelectQuery",
    "AskQuery",
    "GroupGraphPattern",
    "TriplePatternNode",
    "CountExpression",
]
