"""A reduced ordered binary decision diagram (ROBDD) engine.

Implemented from scratch (no external BDD package): hash-consed nodes, an
``ite``-based apply with a computed table, cofactor/compose/quantification
operators, satisfying-assignment counting, and — the operation this library
leans on — *weighted probability evaluation*: the probability that the
function is 1 when each variable independently takes value 1 with a given
probability.  That single primitive yields signal probabilities, gate weight
vectors, and observabilities (paper Secs. 3 and 4).

Nodes are integers; 0 and 1 are the terminal FALSE/TRUE.  The
:class:`Bdd` wrapper provides operator overloading (``&``, ``|``, ``^``,
``~``) over a shared :class:`BddManager`.
"""

from __future__ import annotations

import sys
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

_TERMINAL_VAR = sys.maxsize  # sorts after every real variable


class BddSizeLimitError(RuntimeError):
    """Raised when the unique table outgrows the configured node limit.

    ``stage`` names the phase that hit the limit when the caller tags one
    (the BDD weight tier uses ``"build"`` and ``"conjoin"``).
    """

    stage: Optional[str] = None


class BddManager:
    """Owns the unique table and all operations for one variable order.

    Parameters
    ----------
    node_limit:
        Maximum number of BDD nodes before :class:`BddSizeLimitError` is
        raised.  Guards against ordering-induced blowup on large random
        circuits (where the library falls back to simulation-based
        estimators).
    """

    def __init__(self, node_limit: int = 2_000_000):
        self.node_limit = node_limit
        # node id -> (var, lo, hi); entries 0/1 are the terminals.
        self._var: List[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._lo: List[int] = [0, 1]
        self._hi: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._var_names: List[str] = []
        # (var_probs, Pr[node = 1] table) of the last probabilities() call.
        self._prob_memo: Optional[Tuple[List[float], np.ndarray]] = None

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    @property
    def false(self) -> "Bdd":
        return Bdd(self, 0)

    @property
    def true(self) -> "Bdd":
        return Bdd(self, 1)

    @property
    def num_vars(self) -> int:
        return len(self._var_names)

    @property
    def num_nodes(self) -> int:
        """Total nodes in the unique table (including both terminals)."""
        return len(self._var)

    def new_var(self, name: Optional[str] = None) -> "Bdd":
        """Create the next variable in the fixed order and return it."""
        index = len(self._var_names)
        self._var_names.append(name or f"v{index}")
        return Bdd(self, self._mk(index, 0, 1))

    def var(self, index: int) -> "Bdd":
        """Return the BDD for an existing variable by order index."""
        if not 0 <= index < self.num_vars:
            raise IndexError(f"variable index {index} out of range")
        return Bdd(self, self._mk(index, 0, 1))

    def var_name(self, index: int) -> str:
        return self._var_names[index]

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self._unique.get(key)
        if node is not None:
            return node
        if len(self._var) >= self.node_limit:
            raise BddSizeLimitError(
                f"BDD node limit of {self.node_limit} exceeded")
        node = len(self._var)
        self._var.append(var)
        self._lo.append(lo)
        self._hi.append(hi)
        self._unique[key] = node
        return node

    # ------------------------------------------------------------------
    # Core: if-then-else
    # ------------------------------------------------------------------
    def _ite(self, f: int, g: int, h: int) -> int:
        # Terminal cases.
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        var = min(self._var[f], self._var[g], self._var[h])
        f0, f1 = self._cofactors(f, var)
        g0, g1 = self._cofactors(g, var)
        h0, h1 = self._cofactors(h, var)
        lo = self._ite(f0, g0, h0)
        hi = self._ite(f1, g1, h1)
        result = self._mk(var, lo, hi)
        self._ite_cache[key] = result
        return result

    def _cofactors(self, node: int, var: int) -> Tuple[int, int]:
        if self._var[node] == var:
            return self._lo[node], self._hi[node]
        return node, node

    # ------------------------------------------------------------------
    # Boolean operations (by id; Bdd wrapper calls these)
    # ------------------------------------------------------------------
    def _not(self, f: int) -> int:
        return self._ite(f, 0, 1)

    def _and(self, f: int, g: int) -> int:
        return self._ite(f, g, 0)

    def _or(self, f: int, g: int) -> int:
        return self._ite(f, 1, g)

    def _xor(self, f: int, g: int) -> int:
        return self._ite(f, self._not(g), g)

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def _restrict(self, f: int, var: int, value: int) -> int:
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if self._var[node] > var:
                return node
            hit = cache.get(node)
            if hit is not None:
                return hit
            if self._var[node] == var:
                result = self._hi[node] if value else self._lo[node]
            else:
                result = self._mk(self._var[node],
                                  walk(self._lo[node]), walk(self._hi[node]))
            cache[node] = result
            return result

        return walk(f)

    def _compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` inside ``f``."""
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if self._var[node] > var:
                return node
            hit = cache.get(node)
            if hit is not None:
                return hit
            if self._var[node] == var:
                result = self._ite(g, self._hi[node], self._lo[node])
            else:
                lo = walk(self._lo[node])
                hi = walk(self._hi[node])
                v = self._var[node]
                result = self._ite(self._mk(v, 0, 1), hi, lo)
            cache[node] = result
            return result

        return walk(f)

    def _exists(self, f: int, variables: FrozenSet[int]) -> int:
        if not variables:
            return f
        last = max(variables)
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if self._var[node] > last:
                return node
            hit = cache.get(node)
            if hit is not None:
                return hit
            lo = walk(self._lo[node])
            hi = walk(self._hi[node])
            if self._var[node] in variables:
                result = self._or(lo, hi)
            else:
                result = self._mk(self._var[node], lo, hi)
            cache[node] = result
            return result

        return walk(f)

    def _support(self, f: int) -> FrozenSet[int]:
        seen = set()
        support = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node < 2 or node in seen:
                continue
            seen.add(node)
            support.add(self._var[node])
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return frozenset(support)

    def _size(self, f: int) -> int:
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node >= 2:
                stack.append(self._lo[node])
                stack.append(self._hi[node])
        return len(seen)

    # ------------------------------------------------------------------
    # Counting and probability
    # ------------------------------------------------------------------
    def _sat_count(self, f: int, n_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over the first ``n_vars`` vars.

        Counting convention: ``count(node)`` is the number of satisfying
        assignments of *all* manager variables.  Because ROBDD children never
        depend on the parent's variable, child counts are always even and
        ``(count(lo) + count(hi)) // 2`` is exact integer arithmetic.
        """
        n = self.num_vars
        cache: Dict[int, int] = {0: 0, 1: 1 << n}

        def count(node: int) -> int:
            hit = cache.get(node)
            if hit is not None:
                return hit
            result = (count(self._lo[node]) + count(self._hi[node])) >> 1
            cache[node] = result
            return result

        total = count(f)
        if n_vars is not None and n_vars != n:
            if n_vars < n:
                support = self._support(f)
                if support and max(support) >= n_vars:
                    raise ValueError(
                        "n_vars smaller than the function's support")
                total >>= n - n_vars
            else:
                total <<= n_vars - n
        return total

    def _prob(self, f: int, var_probs: Sequence[float]) -> float:
        """Probability that ``f`` is 1 under independent variable probs.

        ``var_probs[i]`` is Pr(var i = 1).  Runs in O(size of f).
        """
        cache: Dict[int, float] = {0: 0.0, 1: 1.0}

        def walk(node: int) -> float:
            hit = cache.get(node)
            if hit is not None:
                return hit
            p = var_probs[self._var[node]]
            result = (1.0 - p) * walk(self._lo[node]) + p * walk(self._hi[node])
            cache[node] = result
            return result

        return walk(f)

    def probabilities(self, var_probs: Sequence[float]) -> np.ndarray:
        """Pr[node = 1] for every node id, in one sweep over the unique table.

        Children are allocated before their parents and always test a later
        variable, so visiting the variables last to first finds every child
        done.  All nodes of one variable then take a single vectorized step
        of :meth:`_prob`'s expression ``(1 - p) * P[lo] + p * P[hi]``; the
        floats equal the per-root walk's exactly.

        The returned (read-only) table is remembered with its ``var_probs``:
        a later call with the same distribution sweeps only the nodes
        allocated since, so evaluating a growing manager batch by batch
        costs one pass over the table in total.
        """
        if len(var_probs) < self.num_vars:
            raise ValueError("var_probs shorter than the variable count")
        probs = [float(p) for p in var_probs[:self.num_vars]]
        size = len(self._var)
        table = np.empty(size)
        if self._prob_memo is not None and self._prob_memo[0] == probs:
            done = len(self._prob_memo[1])
            if done == size:
                return self._prob_memo[1]
            table[:done] = self._prob_memo[1]
        else:
            done = 2
            table[0], table[1] = 0.0, 1.0
        var = np.array(self._var[done:], dtype=np.int64)
        lo = np.array(self._lo[done:], dtype=np.int64)
        hi = np.array(self._hi[done:], dtype=np.int64)
        order = np.argsort(var, kind="stable")
        bounds = np.zeros(self.num_vars + 1, dtype=np.int64)
        np.cumsum(np.bincount(var, minlength=self.num_vars), out=bounds[1:])
        for v in range(self.num_vars - 1, -1, -1):
            rows = order[bounds[v]:bounds[v + 1]]
            p = probs[v]
            table[rows + done] = ((1.0 - p) * table[lo[rows]]
                                  + p * table[hi[rows]])
        table.flags.writeable = False
        self._prob_memo = (probs, table)
        return table

    def _pick_assignment(self, f: int) -> Optional[Dict[int, int]]:
        """One satisfying assignment (var index -> 0/1), or None if UNSAT."""
        if f == 0:
            return None
        assignment: Dict[int, int] = {}
        node = f
        while node != 1:
            if self._lo[node] != 0:
                assignment[self._var[node]] = 0
                node = self._lo[node]
            else:
                assignment[self._var[node]] = 1
                node = self._hi[node]
        return assignment

    def clear_caches(self) -> None:
        """Drop the operation and probability caches (unique table is kept)."""
        self._ite_cache.clear()
        self._prob_memo = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Structural counters, all derived from live tables (O(1)).

        The hot ``_mk``/``_ite`` paths carry no dedicated counters — node
        and cache totals fall out of the table sizes for free, keeping the
        engine's per-operation cost identical with observability enabled.
        """
        return {
            "nodes_allocated": len(self._var),
            "unique_entries": len(self._unique),
            "ite_cache_entries": len(self._ite_cache),
            "num_vars": self.num_vars,
            "node_limit": self.node_limit,
        }

    def publish_metrics(self, **labels) -> None:
        """Push :meth:`stats` into the global registry as ``bdd.*`` gauges.

        No-op while metrics are disabled; call after a build phase (the
        weight-vector and observability constructors do).
        """
        from ..obs import metrics as obs_metrics
        if not obs_metrics.is_enabled():
            return
        for key, value in self.stats().items():
            obs_metrics.set_gauge(f"bdd.{key}", value, **labels)


class Bdd:
    """A Boolean function handle: a node id bound to its manager."""

    __slots__ = ("manager", "node")

    def __init__(self, manager: BddManager, node: int):
        self.manager = manager
        self.node = node

    # --- operators -----------------------------------------------------
    def _check(self, other: "Bdd") -> None:
        if other.manager is not self.manager:
            raise ValueError("cannot combine BDDs from different managers")

    def __and__(self, other: "Bdd") -> "Bdd":
        self._check(other)
        return Bdd(self.manager, self.manager._and(self.node, other.node))

    def __or__(self, other: "Bdd") -> "Bdd":
        self._check(other)
        return Bdd(self.manager, self.manager._or(self.node, other.node))

    def __xor__(self, other: "Bdd") -> "Bdd":
        self._check(other)
        return Bdd(self.manager, self.manager._xor(self.node, other.node))

    def __invert__(self) -> "Bdd":
        return Bdd(self.manager, self.manager._not(self.node))

    def ite(self, then_f: "Bdd", else_f: "Bdd") -> "Bdd":
        self._check(then_f)
        self._check(else_f)
        return Bdd(self.manager,
                   self.manager._ite(self.node, then_f.node, else_f.node))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Bdd) and other.manager is self.manager
                and other.node == self.node)

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    # --- queries --------------------------------------------------------
    @property
    def is_false(self) -> bool:
        return self.node == 0

    @property
    def is_true(self) -> bool:
        return self.node == 1

    def restrict(self, var_index: int, value: int) -> "Bdd":
        """Cofactor with respect to one variable."""
        return Bdd(self.manager,
                   self.manager._restrict(self.node, var_index, value & 1))

    def compose(self, var_index: int, g: "Bdd") -> "Bdd":
        """Substitute ``g`` for the variable at ``var_index``."""
        self._check(g)
        return Bdd(self.manager,
                   self.manager._compose(self.node, var_index, g.node))

    def exists(self, var_indices: Iterable[int]) -> "Bdd":
        """Existentially quantify the given variables."""
        return Bdd(self.manager,
                   self.manager._exists(self.node, frozenset(var_indices)))

    def forall(self, var_indices: Iterable[int]) -> "Bdd":
        """Universally quantify the given variables."""
        inv = self.manager._not(self.node)
        quantified = self.manager._exists(inv, frozenset(var_indices))
        return Bdd(self.manager, self.manager._not(quantified))

    def support(self) -> FrozenSet[int]:
        """Indices of variables the function actually depends on."""
        return self.manager._support(self.node)

    def size(self) -> int:
        """Number of BDD nodes reachable from this function (incl. terminals)."""
        return self.manager._size(self.node)

    def sat_count(self, n_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``n_vars`` variables."""
        return self.manager._sat_count(self.node, n_vars)

    def probability(self, var_probs: Optional[Sequence[float]] = None) -> float:
        """Pr[f = 1] under independent per-variable 1-probabilities.

        With no argument, all variables are fair coins — the uniform input
        distribution assumed throughout the paper.
        """
        if var_probs is None:
            var_probs = [0.5] * self.manager.num_vars
        if len(var_probs) < self.manager.num_vars:
            raise ValueError("var_probs shorter than the variable count")
        return self.manager._prob(self.node, var_probs)

    def pick_assignment(self) -> Optional[Dict[int, int]]:
        """One satisfying assignment as {var index: 0/1}, or None."""
        return self.manager._pick_assignment(self.node)

    def evaluate(self, assignment: Sequence[int]) -> int:
        """Evaluate under a full 0/1 assignment indexed by variable order."""
        node = self.node
        mgr = self.manager
        while node >= 2:
            node = (mgr._hi[node] if assignment[mgr._var[node]] & 1
                    else mgr._lo[node])
        return node

    def __repr__(self) -> str:
        if self.node == 0:
            return "Bdd(FALSE)"
        if self.node == 1:
            return "Bdd(TRUE)"
        return f"Bdd(node={self.node}, size={self.size()})"
