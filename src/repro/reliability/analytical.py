"""Analytical baselines: von Neumann multiplexing and compositional rules.

The paper's Sec. 2 positions two families of prior analytical work:

* **von Neumann's probabilistic logics** [3]: the NAND-multiplexing
  construction and its stimulated-fraction recurrence, from which the
  famous per-gate noise threshold (eps* = (3 - sqrt(7))/4 ≈ 0.0886 for
  2-input NAND networks) falls out.  Implemented here both as the
  executive-organ recurrence and as a numeric threshold finder.
* **simple compositional rules** (e.g. Sadek et al. [4]): propagate one
  scalar error probability per net, assuming uniform independent inputs
  everywhere.  "When used on irregular multi-level structures such as
  logic circuits, they suffer significant penalties in accuracy" — the
  :func:`compositional_delta` baseline quantifies exactly that penalty
  against the single-pass analysis in ``benchmarks/test_baselines.py``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

from ..circuit import Circuit, truth_table
from ..spec import EpsilonSpec, epsilon_of, validate_epsilon


# ---------------------------------------------------------------------------
# von Neumann NAND multiplexing
# ---------------------------------------------------------------------------

def nand_excitation_step(x1: float, x2: float, eps: float) -> float:
    """One noisy-NAND stage of von Neumann's multiplexing analysis.

    ``x1``/``x2`` are the fractions of stimulated (logic-1) wires in the
    two input bundles; the output bundle's stimulated fraction is
    ``(1 - x1 x2)`` flipped by the gate noise ``eps``.
    """
    product = x1 * x2
    return (1.0 - eps) * (1.0 - product) + eps * product


def multiplexing_trajectory(x0: float, eps: float,
                            stages: int) -> Tuple[float, ...]:
    """Iterate the NAND executive organ ``stages`` times from fraction x0.

    Both bundle inputs are fed from the previous stage (the classic
    single-line analysis used to locate the noise threshold).
    """
    values = [x0]
    x = x0
    for _ in range(stages):
        x = nand_excitation_step(x, x, eps)
        values.append(x)
    return tuple(values)


def nand_fixed_points(eps: float) -> Tuple[float, ...]:
    """Real fixed points of ``x = (1-eps)(1-x^2) + eps x^2`` in [0, 1].

    Solves ``(1 - 2 eps) x^2 + x - (1 - eps) = 0``.
    """
    a = 1.0 - 2.0 * eps
    if abs(a) < 1e-15:
        return (2.0 / 3.0,)  # eps = 1/2: x = 1 - eps - ... => linear case
    disc = 1.0 + 4.0 * a * (1.0 - eps)
    roots = ((-1.0 + math.sqrt(disc)) / (2.0 * a),
             (-1.0 - math.sqrt(disc)) / (2.0 * a))
    return tuple(sorted(r for r in roots if 0.0 <= r <= 1.0))


def von_neumann_threshold(tolerance: float = 1e-15) -> float:
    """The noise threshold of 2-input NAND multiplexing, found numerically.

    The executive organ's map ``f(x) = (1-eps)(1-x^2) + eps x^2`` has one
    fixed point ``x*`` in [0, 1], with slope ``f'(x*) = -2 x* (1 - 2 eps)``.
    Below the threshold ``|f'(x*)| > 1``: the fixed point repels and the
    double-step map keeps two distinguishable stimulation levels
    (computation survives).  Above it the fixed point attracts and the
    levels collapse onto it.  The threshold is where the period-doubling
    happens, ``2 x* (1 - 2 eps) = 1``; bisecting on that condition
    recovers von Neumann's closed form ``(3 - sqrt(7)) / 4`` ≈ 0.08856 to
    ``tolerance`` (pinned by tests).  Iterating the map instead overshoots
    by ~1e-4: near the bifurcation the orbit converges too slowly to tell
    the two regimes apart.
    """
    def repelling(eps: float) -> bool:
        x = max(nand_fixed_points(eps))
        return 2.0 * x * (1.0 - 2.0 * eps) > 1.0

    lo, hi = 0.0, 0.25
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if repelling(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Naive compositional reliability rules
# ---------------------------------------------------------------------------

def _uniform_flip_probability(truth: Tuple[int, ...], k: int,
                              input_errors: Iterable[float]) -> float:
    """Probability input errors flip the output, inputs assumed uniform.

    The compositional simplification: every input vector equally likely
    and input error events independent and *symmetric* (one scalar per
    net, no 0->1 / 1->0 split, no signal correlations).
    """
    errors = list(input_errors)
    total = 0.0
    n_vectors = 1 << k
    for v in range(n_vectors):
        flip = 0.0
        for vp in range(n_vectors):
            if truth[vp] == truth[v]:
                continue
            term = 1.0
            for t in range(k):
                q = errors[t]
                term *= q if ((v ^ vp) >> t) & 1 else 1.0 - q
            flip += term
        total += flip / n_vectors
    return total


def compositional_delta(circuit: Circuit,
                        eps: EpsilonSpec) -> Dict[str, float]:
    """Scalar-error compositional analysis (the Sec. 2 baseline).

    One error probability per net, propagated in topological order with
    uniform-input weight vectors and no correlation handling.  Fast and
    simple — and measurably less accurate than the single-pass analysis on
    multi-level logic, which is precisely the paper's motivation.
    """
    validate_epsilon(eps, circuit)
    q: Dict[str, float] = {}
    for name in circuit.topological_order():
        node = circuit.node(name)
        if not node.gate_type.is_logic:
            q[name] = 0.0
            continue
        truth = truth_table(node.gate_type, node.arity)
        p_prop = _uniform_flip_probability(
            truth, node.arity, (q[f] for f in node.fanins))
        p_prop = min(1.0, max(0.0, p_prop))
        e = epsilon_of(eps, name)
        q[name] = (1.0 - e) * p_prop + e * (1.0 - p_prop)
    return {out: q[out] for out in circuit.outputs}
