"""Control-flow analyses shared by the optimizer, the backends and the
bytecode translator.

This module implements the infrastructure the paper's linear-time liveness
algorithm (Section IV-D, Fig. 11) relies on:

* reverse-postorder labelling of basic blocks,
* dominator-tree construction (Cooper/Harvey/Kennedy iterative algorithm,
  which runs in effectively linear time on reducible query CFGs),
* pre-/post-order numbering of the dominator tree so that ancestor queries
  answer in O(1) (paper Fig. 12),
* natural-loop detection via back edges whose target dominates their source,
  with every block associated with its innermost loop.

Everything is computed over integer block indices, the reverse-postorder
labels: :func:`compute_dominator_tree` gives the first three
(:class:`DominatorTree`), :func:`find_loops` adds the loops on top of it
(:class:`LoopInfo`), and :func:`natural_loop` is the one natural-loop walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import IRError
from .function import BasicBlock, Function


# --------------------------------------------------------------------------- #
# block ordering
# --------------------------------------------------------------------------- #
def reverse_postorder(function: Function,
                      successors: Optional[Dict[BasicBlock,
                                                list[BasicBlock]]] = None
                      ) -> list[BasicBlock]:
    """Return the reachable blocks of ``function`` in reverse postorder.

    Reverse postorder places every block after all of its forward-edge
    predecessors, which the paper uses both as the block labelling for live
    ranges and as the iteration order for the dominator computation.  The
    traversal is iterative (queries can produce thousands of blocks, which
    would overflow Python's recursion limit).  ``successors`` maps every
    block to its successor list, for a caller that has them already.
    """
    if not function.blocks:
        return []
    postorder, _ = _postorder(function.blocks[0], successors)
    postorder.reverse()
    return postorder


def _postorder(entry: BasicBlock,
               successor_map: Optional[Dict[BasicBlock,
                                            list[BasicBlock]]] = None
               ) -> tuple[list[BasicBlock], list[list[BasicBlock]]]:
    """Depth-first postorder from ``entry``, plus each block's successors
    (read from ``successor_map`` when given)."""
    visited = {entry}
    postorder: list[BasicBlock] = []
    successors: list[list[BasicBlock]] = []
    succs = (entry.successors() if successor_map is None
             else successor_map[entry])
    stack = [(entry, succs, iter(succs))]
    while stack:
        block, succs, pending = stack[-1]
        for succ in pending:
            if succ not in visited:
                visited.add(succ)
                nested = (succ.successors() if successor_map is None
                          else successor_map[succ])
                stack.append((succ, nested, iter(nested)))
                break
        else:
            stack.pop()
            postorder.append(block)
            successors.append(succs)
    return postorder, successors


# --------------------------------------------------------------------------- #
# dominator tree
# --------------------------------------------------------------------------- #
@dataclass(eq=False)
class DominatorTree:
    """The reachable CFG of one function and its dominator tree, over
    reverse-postorder block indices.

    Block ``i`` is ``order[i]`` (``index`` maps a block back to ``i``);
    ``succs``/``preds`` are index lists, ``idom[i]`` is the immediate
    dominator (``-1`` for the entry) and ``children[i]`` lists the blocks it
    immediately dominates, in order.  ``pre``/``post`` number the tree, so
    ``a`` dominates ``b`` iff ``pre[a] <= pre[b]`` and ``post[b] <= post[a]``
    (paper Fig. 12).
    """

    order: List[BasicBlock]
    index: Dict[BasicBlock, int]
    succs: List[List[int]]
    preds: List[List[int]]
    idom: List[int]
    children: List[List[int]]
    pre: List[int]
    post: List[int]

    def dominates(self, a: int, b: int) -> bool:
        """True when block ``a`` dominates block ``b`` (reflexively)."""
        return self.pre[a] <= self.pre[b] and self.post[b] <= self.post[a]


def immediate_dominators(preds: List[List[int]]) -> List[int]:
    """Immediate dominator of every block, over reverse-postorder indices.

    ``preds[b]`` lists the (reachable) predecessors of block ``b``, where
    block 0 is the entry.  The result has ``idom[0] == -1`` and
    ``idom[b] < b`` for every other block, so ``a`` dominates ``b`` iff
    walking ``b`` up the ``idom`` chain while it is above ``a`` stops at
    ``a``.  This is the Cooper-Harvey-Kennedy iteration of
    :func:`compute_dominator_tree`, without the tree numbering.
    """
    n = len(preds)
    idom = [-1] * n
    idom[0] = 0
    changed = True
    while changed:
        changed = False
        for b in range(1, n):
            new = -1
            for p in preds[b]:
                if idom[p] < 0:
                    continue  # not processed yet
                if new < 0:
                    new = p
                    continue
                while p != new:  # intersect the two dominator chains
                    while p > new:
                        p = idom[p]
                    while new > p:
                        new = idom[new]
            if idom[b] != new:
                idom[b] = new
                changed = True
    idom[0] = -1
    return idom


def compute_dominator_tree(function: Function,
                           order: Optional[list[BasicBlock]] = None
                           ) -> DominatorTree:
    """Compute the dominator tree of ``function``.

    ``order`` is the function's reverse postorder, for a caller that has it
    already.  Uses the Cooper-Harvey-Kennedy "engineered" iterative
    algorithm driven by reverse postorder.  On the reducible CFGs produced
    by query code generation it converges in two passes, giving effectively
    linear runtime, which is what the paper's translation budget requires.
    """
    if order is None:
        if not function.blocks:
            raise IRError(f"function {function.name} has no blocks")
        order, successors = _postorder(function.blocks[0])
        order.reverse()
        successors.reverse()
    elif not order:
        raise IRError(f"function {function.name} has no reachable blocks")
    else:
        successors = [block.successors() for block in order]
    n = len(order)
    index = {block: i for i, block in enumerate(order)}
    succs = [[index[succ] for succ in block_succs]
             for block_succs in successors]
    preds: list[list[int]] = [[] for _ in range(n)]
    for b, block_succs in enumerate(succs):
        for s in block_succs:
            preds[s].append(b)

    idom = immediate_dominators(preds)

    # Pre/post intervals; children are numbered in reverse postorder.
    children: list[list[int]] = [[] for _ in range(n)]
    for b in range(1, n):
        children[idom[b]].append(b)
    pre = [0] * n
    post = [0] * n
    counter = 0
    stack = [0]
    while stack:
        b = stack.pop()
        counter += 1
        if b < 0:
            post[~b] = counter
            continue
        pre[b] = counter
        stack.append(~b)
        stack.extend(reversed(children[b]))

    return DominatorTree(order=order, index=index, succs=succs, preds=preds,
                         idom=idom, children=children, pre=pre, post=post)


# --------------------------------------------------------------------------- #
# loops
# --------------------------------------------------------------------------- #
def natural_loop(preds: List[List[int]], head: int, tail: int) -> set[int]:
    """Blocks of the natural loop of back edge ``tail -> head``: the head
    and every block that reaches ``tail`` without passing the head."""
    members = {head, tail}
    pending = [tail] if tail != head else []
    while pending:
        for p in preds[pending.pop()]:
            if p not in members:
                members.add(p)
                pending.append(p)
    return members


@dataclass(eq=False)
class LoopInfo:
    """The loops of one function, over the block indices of ``dom``.

    A loop is named by its head's index.  The entry heads the pseudo loop
    covering the whole function; every other head is the target of a back
    edge (an edge to a dominator).  A loop spans the index interval
    ``[head, loop_end[head]]`` -- the paper's contiguous reverse-postorder
    span -- and nests in ``loop_parent[head]`` (``-1`` for the pseudo loop)
    at depth ``loop_depth[head]`` (0 for the pseudo loop).  ``inner[i]`` is
    the innermost loop of block ``i``: its nearest dominating loop head.
    ``loop_end`` is ``-1`` at a block that heads no loop; ``loop_parent``
    and ``loop_depth`` are only meaningful at heads.
    """

    dom: DominatorTree
    inner: List[int]
    loop_end: List[int]
    loop_parent: List[int]
    loop_depth: List[int]

    def common_loop(self, a: int, b: int) -> int:
        """The innermost loop containing loops ``a`` and ``b``."""
        depth, parent = self.loop_depth, self.loop_parent
        while a != b:
            if depth[a] >= depth[b]:
                a = parent[a]
            else:
                b = parent[b]
        return a

    def outermost_below(self, outer: int, block: int) -> int:
        """The outermost loop strictly inside loop ``outer`` that contains
        ``block``; ``outer`` must enclose the block's innermost loop."""
        loop, parent = self.inner[block], self.loop_parent
        while parent[loop] != outer:
            loop = parent[loop]
        return loop


def find_loops(function: Function) -> LoopInfo:
    """Label blocks and find loops, the first phase of the paper's Fig. 11.

    Steps: build the numbered dominator tree over the reverse-postorder
    labels, mark the entry and the target of every back edge as loop heads,
    associate every block with its nearest dominating head, span each loop
    over its natural-loop members, and nest each loop in the loop of its
    head's immediate dominator.
    """
    dom = compute_dominator_tree(function)
    n = len(dom.order)
    idom, pre, post = dom.idom, dom.pre, dom.post

    # --- loop heads: the entry and every back-edge target ----------------
    # A dominator precedes the blocks it dominates, so a forward edge is
    # never a back edge.
    loop_end = [-1] * n
    loop_end[0] = n - 1
    back_edges = []
    for b, block_succs in enumerate(dom.succs):
        for s in block_succs:
            if s <= b and pre[s] <= pre[b] and post[b] <= post[s]:
                back_edges.append((b, s))
                loop_end[s] = max(loop_end[s], s)

    # --- innermost loop: the nearest dominating head ---------------------
    # A block's immediate dominator precedes it, so its head is known.
    inner = [0] * n
    for b in range(1, n):
        inner[b] = b if loop_end[b] >= 0 else inner[idom[b]]

    # --- spans: up to the last member of the head's natural loops ---------
    for tail, head in back_edges:
        if head:  # the pseudo loop already spans the function
            loop_end[head] = max(loop_end[head],
                                 max(natural_loop(dom.preds, head, tail)))

    # --- nesting: the loop of the head's immediate dominator -------------
    loop_parent = [-1] * n
    loop_depth = [0] * n
    for head in range(1, n):
        if loop_end[head] >= 0:
            parent = inner[idom[head]]
            loop_parent[head] = parent
            loop_depth[head] = loop_depth[parent] + 1

    return LoopInfo(dom=dom, inner=inner, loop_end=loop_end,
                    loop_parent=loop_parent, loop_depth=loop_depth)
