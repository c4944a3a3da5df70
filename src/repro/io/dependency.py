"""Dependency order for netlist readers whose files may forward-reference.

``.bench``, BLIF and Verilog files may define a node after its first
use.  The readers used to emit definitions by repeated passes over the
pending list — in each pass, in file order, every definition whose
fanins were all emitted — which costs O(n x depth) on a file that is
not in topological order.  :func:`dependency_order` yields the same
sequence in linear time: a definition's pass is

    pass(g) = max(1, max over fanins f of
                  pass(f)      if f precedes g in the file,
                  pass(f) + 1  otherwise)

(primary inputs and other sources are pass 0), and definitions come out
in ``(pass, file position)`` order.  The errors the pass loop raised
surface at the same point of that sequence, so a reader emitting as it
iterates builds exactly what it built before, up to the same failure.
"""

from __future__ import annotations

from typing import Container, Dict, Iterator, List, Mapping, Sequence


class UndefinedReference(Exception):
    """``target`` reads ``ref``, which nothing defines."""

    def __init__(self, target: str, ref: str):
        super().__init__(target, ref)
        self.target = target
        self.ref = ref


class DependencyCycle(Exception):
    """The definitions left once every acyclic one has been emitted."""

    def __init__(self, names: List[str]):
        super().__init__(names)
        self.names = names


def dependency_order(order: Sequence[str],
                     fanins: Mapping[str, Sequence[str]],
                     sources: Container[str]) -> Iterator[str]:
    """Yield the names of ``order`` so every fanin precedes its reader.

    ``order`` lists the definitions in file order, ``fanins`` maps each
    one to the names it reads, and ``sources`` holds the names defined
    up front (primary inputs, state-element outputs).  Raises
    :class:`UndefinedReference` for the first definition, in file
    order, that reads a name neither defined nor a source — after
    yielding the pass-1 definitions before it — and
    :class:`DependencyCycle`, naming every definition left in file
    order, once the acyclic ones are exhausted.
    """
    position = {name: i for i, name in enumerate(order)}
    readers: Dict[str, List[str]] = {}
    waiting: Dict[str, int] = {}
    undefined = None
    for name in order:
        refs = [ref for ref in dict.fromkeys(fanins[name])
                if ref not in sources]
        missing = [ref for ref in refs if ref not in position]
        if missing:
            if undefined is None:
                undefined = (name, missing[0])
            continue  # never emitted, and so neither are its readers
        for ref in refs:
            readers.setdefault(ref, []).append(name)
        waiting[name] = len(refs)
    # Longest-path relaxation over the definitions in topological order
    # (Kahn); ``passes`` ends up holding exactly the acyclic ones.
    ready = [name for name, count in waiting.items() if not count]
    passes = dict.fromkeys(ready, 1)
    pending: Dict[str, int] = {}
    while ready:
        name = ready.pop()
        level, at = passes[name], position[name]
        for reader in readers.get(name, ()):
            step = level + (at > position[reader])
            pending[reader] = max(pending.get(reader, 1), step)
            waiting[reader] -= 1
            if not waiting[reader]:
                passes[reader] = pending.pop(reader)
                ready.append(reader)
    # Buckets filled in file order are already sorted by position.
    buckets: List[List[str]] = []
    for name in order:
        level = passes.get(name)
        if level is not None:
            buckets.extend([] for _ in range(level - len(buckets)))
            buckets[level - 1].append(name)
    if undefined is not None:
        target, ref = undefined
        for name in buckets[0] if buckets else ():
            if position[name] > position[target]:
                break
            yield name
        raise UndefinedReference(target, ref)
    for bucket in buckets:
        yield from bucket
    if len(passes) < len(order):
        raise DependencyCycle([name for name in order if name not in passes])
