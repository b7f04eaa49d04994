"""Cost-based query planner shared by the engine simulators.

The planner builds a left-deep physical plan for a :class:`QuerySpec`,
choosing among the access and join alternatives with whatever cost model the
calling engine supplies.  Because the choices depend on the cost model's
parameters — in particular the sort/hash memory and the cache size — the
*same* logical query gets different plans under different candidate resource
allocations, which is exactly the behaviour the paper's piecewise-linear
memory model captures (plan boundaries define the ``A_ij`` intervals of
Section 5.1).

Plan *shape* only changes at those memory boundaries: node construction
reads nothing but the :class:`PlanBuildContext` (database, work memory,
cache size and the query's CPU work per tuple), while the CPU-dependent
weights live in the cost model alone.  The planner therefore keeps one
*plan space* per ``(query, build context)``: the candidate operator nodes
are built once per memory context, and each further cost model only re-runs
the cost-based choice among them.  Nodes are immutable once built, so plans
chosen under different CPU configurations share their common subtrees.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from ..exceptions import OptimizationError
from .catalog import Database
from .plans import (
    HashAggregateNode,
    HashJoinNode,
    IndexScanNode,
    NestedLoopJoinNode,
    PlanBuildContext,
    PlanNode,
    QueryPlan,
    ResultNode,
    SeqScanNode,
    SortAggregateNode,
    SortMergeJoinNode,
    SortNode,
    UpdateNode,
)
from .query import AggregateSpec, JoinStep, QuerySpec, TableAccess


class PlanCostModel(Protocol):
    """Minimal interface the planner needs from an engine cost model."""

    def plan_cost(self, usage) -> float:  # pragma: no cover - protocol
        """Return the engine-native cost of a plan's resource usage."""
        ...


#: Nested-loop joins are only considered when the inner input is small;
#: this mirrors real optimizers' pruning and keeps planning fast.
_NESTED_LOOP_INNER_ROW_LIMIT = 50_000.0


class _PlanSpace:
    """Candidate operator nodes of one query under one build context.

    The access alternatives of the driver and of each join's inner table
    are memoized per plan step.  Everything built on top of already chosen
    nodes — the join alternatives, the aggregate alternatives and the
    sort/result/update wrappers up to the finished plan — is memoized per
    those chosen nodes, keyed by the nodes themselves (identity hash).  A
    cost model that makes the same choices as an earlier one therefore
    reaches the very same candidates, and only the choice among them is
    re-run.  The memoized nodes reference their children, so the key nodes
    stay alive as long as the space does.
    """

    __slots__ = ("query", "context", "accesses", "joins", "aggregates", "plans")

    def __init__(self, query: QuerySpec, context: PlanBuildContext) -> None:
        self.query = query
        self.context = context
        # Index 0 is the driver, index ``i + 1`` the inner table of join ``i``.
        self.accesses: List[Optional[List[PlanNode]]] = [None] * (len(query.joins) + 1)
        # One memo per join step, keyed by its chosen (outer, inner) pair.
        self.joins: List[Dict[Tuple[PlanNode, PlanNode], List[PlanNode]]] = [
            {} for _ in query.joins
        ]
        self.aggregates: Dict[PlanNode, List[PlanNode]] = {}
        self.plans: Dict[PlanNode, QueryPlan] = {}


class Planner:
    """Builds physical plans for logical queries under a cost model.

    Candidate nodes are memoized per plan space (see the module doc); the
    spaces live until :meth:`clear`.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._spaces: Dict[Tuple[str, PlanBuildContext], _PlanSpace] = {}

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def build_plan(
        self,
        query: QuerySpec,
        context: PlanBuildContext,
        cost_model: PlanCostModel,
    ) -> QueryPlan:
        """Return the cheapest plan for ``query`` under ``cost_model``."""
        if query.database != self.database.name:
            raise OptimizationError(
                f"query {query.name!r} targets database {query.database!r} but the "
                f"planner is bound to {self.database.name!r}"
            )
        key = (query.name, context)
        space = self._spaces.get(key)
        if space is None or (space.query is not query and space.query != query):
            space = self._spaces[key] = _PlanSpace(query, context)
        cheapest = self._cheapest
        node = cheapest(self._access_candidates(space, 0, query.driver), cost_model)
        for index, step in enumerate(query.joins):
            inner = cheapest(
                self._access_candidates(space, index + 1, step.access), cost_model
            )
            memo = space.joins[index]
            alternatives = memo.get((node, inner))
            if alternatives is None:
                alternatives = memo[(node, inner)] = self._join_nodes(
                    node, inner, step, context
                )
            node = cheapest(alternatives, cost_model)
        if query.aggregate is not None:
            alternatives = space.aggregates.get(node)
            if alternatives is None:
                alternatives = space.aggregates[node] = self._aggregate_nodes(
                    node, query.aggregate, context
                )
            node = cheapest(alternatives, cost_model)
        plan = space.plans.get(node)
        if plan is None:
            plan = space.plans[node] = self._finish(query, node, context)
        return plan

    def space_count(self) -> int:
        """Number of plan spaces (distinct query/build-context pairs) held."""
        return len(self._spaces)

    def clear(self) -> None:
        """Drop every plan space; the next plans are built from scratch."""
        self._spaces.clear()

    # ------------------------------------------------------------------
    # Alternatives
    # ------------------------------------------------------------------
    def access_alternatives(
        self, access: TableAccess, context: PlanBuildContext
    ) -> List[PlanNode]:
        """All physical access paths available for a base-table access."""
        alternatives: List[PlanNode] = [SeqScanNode(access, context)]
        if access.index is not None and self.database.has_index(access.index):
            alternatives.append(IndexScanNode(access, context))
        return alternatives

    def join_alternatives(
        self,
        outer: PlanNode,
        step: JoinStep,
        context: PlanBuildContext,
        cost_model: PlanCostModel,
    ) -> List[PlanNode]:
        """All physical join alternatives for one join step."""
        inner = self._best_access(step.access, context, cost_model)
        return self._join_nodes(outer, inner, step, context)

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def _access_candidates(
        self, space: _PlanSpace, index: int, access: TableAccess
    ) -> List[PlanNode]:
        alternatives = space.accesses[index]
        if alternatives is None:
            alternatives = space.accesses[index] = self.access_alternatives(
                access, space.context
            )
        return alternatives

    @staticmethod
    def _join_nodes(
        outer: PlanNode,
        inner: PlanNode,
        step: JoinStep,
        context: PlanBuildContext,
    ) -> List[PlanNode]:
        alternatives: List[PlanNode] = [
            HashJoinNode(outer, inner, step.selectivity, step.join_predicates, context),
            SortMergeJoinNode(
                outer, inner, step.selectivity, step.join_predicates, context
            ),
        ]
        if inner.rows <= _NESTED_LOOP_INNER_ROW_LIMIT:
            alternatives.append(
                NestedLoopJoinNode(
                    outer, inner, step.selectivity, step.join_predicates, context
                )
            )
        return alternatives

    @staticmethod
    def _aggregate_nodes(
        node: PlanNode, spec: AggregateSpec, context: PlanBuildContext
    ) -> List[PlanNode]:
        alternatives: List[PlanNode] = [SortAggregateNode(node, spec, context)]
        if HashAggregateNode.fits_in_memory(node, spec, context):
            alternatives.append(HashAggregateNode(node, spec, context))
        return alternatives

    @staticmethod
    def _finish(
        query: QuerySpec, node: PlanNode, context: PlanBuildContext
    ) -> QueryPlan:
        """Wrap the chosen join/aggregate output into the complete plan."""
        if query.order_by:
            node = SortNode(node, context)
        root: PlanNode = ResultNode(node, query.result_rows)
        if query.update is not None and not query.update.is_read_only:
            root = UpdateNode(root, query.update, context)
        return QueryPlan(query=query, root=root, context=context)

    # ------------------------------------------------------------------
    # Choice helpers
    # ------------------------------------------------------------------
    def _best_access(
        self,
        access: TableAccess,
        context: PlanBuildContext,
        cost_model: PlanCostModel,
    ) -> PlanNode:
        return self._cheapest(self.access_alternatives(access, context), cost_model)

    @staticmethod
    def _cheapest(alternatives: Sequence[PlanNode], cost_model: PlanCostModel) -> PlanNode:
        if not alternatives:
            raise OptimizationError("no plan alternatives were generated")
        best: Optional[PlanNode] = None
        best_cost = float("inf")
        for node in alternatives:
            cost = cost_model.plan_cost(node.total_usage())
            if cost < best_cost:
                best = node
                best_cost = cost
        assert best is not None
        return best
