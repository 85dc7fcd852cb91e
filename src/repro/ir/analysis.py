"""Control-flow analyses shared by the optimizer and the bytecode translator.

This module implements the infrastructure the paper's linear-time liveness
algorithm (Section IV-D, Fig. 11) relies on:

* reverse-postorder labelling of basic blocks,
* dominator-tree construction (Cooper/Harvey/Kennedy iterative algorithm,
  which runs in effectively linear time on reducible query CFGs),
* pre-/post-order numbering of the dominator tree so that ancestor queries
  answer in O(1) (paper Fig. 12),
* natural-loop detection via back edges whose target dominates their source,
  with innermost-loop association computed through a union-find structure
  with path compression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import IRError
from .function import BasicBlock, Function


# --------------------------------------------------------------------------- #
# block ordering
# --------------------------------------------------------------------------- #
def reverse_postorder(function: Function) -> list[BasicBlock]:
    """Return the reachable blocks of ``function`` in reverse postorder.

    Reverse postorder places every block after all of its forward-edge
    predecessors, which the paper uses both as the block labelling for live
    ranges and as the iteration order for the dominator computation.  The
    traversal is iterative (queries can produce thousands of blocks, which
    would overflow Python's recursion limit).
    """
    if not function.blocks:
        return []
    entry = function.entry_block
    visited: set[int] = set()
    postorder: list[BasicBlock] = []
    # Explicit stack of (block, iterator over successors).
    stack: list[tuple[BasicBlock, int]] = [(entry, 0)]
    visited.add(id(entry))
    succ_cache: dict[int, list[BasicBlock]] = {}
    while stack:
        block, idx = stack.pop()
        succs = succ_cache.get(id(block))
        if succs is None:
            succs = block.successors()
            succ_cache[id(block)] = succs
        if idx < len(succs):
            stack.append((block, idx + 1))
            succ = succs[idx]
            if id(succ) not in visited:
                visited.add(id(succ))
                stack.append((succ, 0))
        else:
            postorder.append(block)
    postorder.reverse()
    return postorder


# --------------------------------------------------------------------------- #
# dominator tree
# --------------------------------------------------------------------------- #
@dataclass
class DominatorTree:
    """Immediate-dominator tree with O(1) ancestor queries.

    ``pre``/``post`` hold the pre- and post-order interval numbers of each
    block within the dominator tree; block A dominates block B iff A's
    interval encloses B's (paper Fig. 12).
    """

    order: List[BasicBlock]
    rpo_index: Dict[int, int]
    idom: Dict[int, Optional[BasicBlock]]
    children: Dict[int, List[BasicBlock]]
    pre: Dict[int, int] = field(default_factory=dict)
    post: Dict[int, int] = field(default_factory=dict)

    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        return self.idom.get(id(block))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` dominates ``b`` (reflexively)."""
        return (self.pre[id(a)] <= self.pre[id(b)]
                and self.post[id(b)] <= self.post[id(a)])

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def dominator_depth(self, block: BasicBlock) -> int:
        depth = 0
        current = self.idom.get(id(block))
        while current is not None:
            depth += 1
            current = self.idom.get(id(current))
        return depth


def compute_dominator_tree(function: Function,
                           order: Optional[list[BasicBlock]] = None,
                           preds: Optional[dict] = None) -> DominatorTree:
    """Compute the dominator tree of ``function``.

    Uses the Cooper-Harvey-Kennedy "engineered" iterative algorithm driven by
    reverse postorder.  On the reducible CFGs produced by query code
    generation it converges in two passes, giving effectively linear runtime,
    which is what the paper's translation budget requires.
    """
    order = order if order is not None else reverse_postorder(function)
    if not order:
        raise IRError(f"function {function.name} has no reachable blocks")
    rpo_index = {id(block): idx for idx, block in enumerate(order)}
    if preds is None:
        preds = function.predecessors()

    entry = order[0]
    idom: dict[int, Optional[BasicBlock]] = {id(entry): entry}

    def intersect(b1: BasicBlock, b2: BasicBlock) -> BasicBlock:
        finger1, finger2 = b1, b2
        while finger1 is not finger2:
            while rpo_index[id(finger1)] > rpo_index[id(finger2)]:
                finger1 = idom[id(finger1)]  # type: ignore[assignment]
            while rpo_index[id(finger2)] > rpo_index[id(finger1)]:
                finger2 = idom[id(finger2)]  # type: ignore[assignment]
        return finger1

    changed = True
    while changed:
        changed = False
        for block in order[1:]:
            # Pick the first processed predecessor as the initial idom.
            new_idom: Optional[BasicBlock] = None
            for pred in preds[block]:
                if id(pred) in idom:
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = intersect(pred, new_idom)
            if new_idom is None:
                # Unreachable predecessor-less block (shouldn't happen for
                # blocks in RPO), skip.
                continue
            if idom.get(id(block)) is not new_idom:
                idom[id(block)] = new_idom
                changed = True

    # Entry's idom is conventionally None (it has no strict dominator).
    idom[id(entry)] = None

    children: dict[int, list[BasicBlock]] = {id(b): [] for b in order}
    for block in order:
        parent = idom.get(id(block))
        if parent is not None:
            children[id(parent)].append(block)

    tree = DominatorTree(order=order, rpo_index=rpo_index, idom=idom,
                         children=children)
    _number_dominator_tree(tree, entry)
    return tree


def _number_dominator_tree(tree: DominatorTree, entry: BasicBlock) -> None:
    """Assign pre/post-order interval numbers to the dominator tree."""
    counter = 0
    stack: list[tuple[BasicBlock, bool]] = [(entry, False)]
    while stack:
        block, processed = stack.pop()
        if processed:
            counter += 1
            tree.post[id(block)] = counter
            continue
        counter += 1
        tree.pre[id(block)] = counter
        stack.append((block, True))
        # Push children in reverse so they are numbered in RPO order.
        for child in reversed(tree.children[id(block)]):
            stack.append((child, False))


# --------------------------------------------------------------------------- #
# loops
# --------------------------------------------------------------------------- #
@dataclass
class Loop:
    """A natural loop: its head block and the span of blocks it covers.

    Following the paper, loops are represented by their head plus the
    contiguous reverse-postorder interval ``[first_index, last_index]`` they
    cover, which is what the live-range extension needs.
    """

    head: BasicBlock
    blocks: set[int]
    first_index: int
    last_index: int
    depth: int = 0
    parent: Optional["Loop"] = None

    def contains_block_index(self, index: int) -> bool:
        return self.first_index <= index <= self.last_index


class _DisjointSet:
    """Union-find with path compression (paper: innermost-loop association)."""

    def __init__(self):
        self._parent: dict[int, int] = {}

    def make_set(self, item: int) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, child: int, parent: int) -> None:
        self._parent[self.find(child)] = self.find(parent)


@dataclass
class LoopInfo:
    """Loop structure of a function, as used by the liveness computation."""

    function: Function
    order: List[BasicBlock]
    rpo_index: Dict[int, int]
    dom_tree: DominatorTree
    loops: List[Loop]
    #: Innermost loop of each block (by block id); every block belongs at
    #: least to the whole-function pseudo loop.
    innermost: Dict[int, Loop] = field(default_factory=dict)

    @property
    def root_loop(self) -> Loop:
        """The pseudo loop covering the whole function body."""
        return self.loops[0]

    def loop_of(self, block: BasicBlock) -> Loop:
        return self.innermost[id(block)]

    def enclosing_chain(self, loop: Loop) -> list[Loop]:
        """The loop itself plus all its ancestors up to the root."""
        chain = [loop]
        while loop.parent is not None:
            loop = loop.parent
            chain.append(loop)
        return chain

    def common_loop(self, loops: list[Loop]) -> Loop:
        """The innermost loop containing all given loops (paper's C_v)."""
        if not loops:
            return self.root_loop
        chains = [set(id(l) for l in self.enclosing_chain(loop))
                  for loop in loops]
        common_ids = set.intersection(*chains)
        # The innermost common ancestor is the one with the largest depth.
        candidates = []
        for loop in self.enclosing_chain(loops[0]):
            if id(loop) in common_ids:
                candidates.append(loop)
        return max(candidates, key=lambda l: l.depth)

    def outermost_below(self, outer: Loop, block: BasicBlock) -> Loop:
        """The outermost loop strictly below ``outer`` that contains ``block``.

        Used by the paper's live-range extension: when a value is used inside
        a nested loop, its lifetime is extended to the whole outermost loop
        below the common loop ``C_v`` that contains the use.
        """
        chain = []
        loop = self.loop_of(block)
        while loop is not None and loop is not outer:
            chain.append(loop)
            loop = loop.parent
        if loop is None:
            # ``block`` is not nested below ``outer``; fall back to its own
            # innermost loop (defensive, should not happen for valid CFGs).
            return self.loop_of(block)
        if not chain:
            return outer
        return chain[-1]


def find_loops(function: Function,
               order: Optional[list[BasicBlock]] = None,
               dom_tree: Optional[DominatorTree] = None) -> LoopInfo:
    """Identify natural loops following the paper's first phase (Fig. 11).

    Steps: label blocks in reverse postorder, build the dominator tree, mark
    the function entry as a pseudo loop head, mark the target of every back
    edge (jump to a dominator) as a loop head, then associate every block with
    its nearest dominating loop head using union-find with path compression.
    """
    order = order if order is not None else reverse_postorder(function)
    dom_tree = dom_tree if dom_tree is not None else compute_dominator_tree(
        function, order)
    rpo_index = {id(block): idx for idx, block in enumerate(order)}

    # --- mark loop heads ---------------------------------------------------
    entry = order[0]
    loop_heads: dict[int, BasicBlock] = {id(entry): entry}
    back_edges: list[tuple[BasicBlock, BasicBlock]] = []
    for block in order:
        for succ in block.successors():
            if id(succ) in rpo_index and dom_tree.dominates(succ, block):
                loop_heads[id(succ)] = succ
                back_edges.append((block, succ))

    # --- associate blocks with their nearest dominating loop head ----------
    # Walk blocks in reverse postorder; each block's loop head is itself if it
    # is a head, otherwise the loop head of its immediate dominator (with
    # union-find path compression so repeated lookups stay cheap).
    dsu = _DisjointSet()
    head_of_block: dict[int, BasicBlock] = {}
    for block in order:
        dsu.make_set(id(block))
        if id(block) in loop_heads:
            head_of_block[id(block)] = block
        else:
            idom = dom_tree.immediate_dominator(block)
            assert idom is not None
            dsu.union(id(block), id(idom))
            head_root = dsu.find(id(block))
            # The representative's own head is the nearest dominating head.
            head_of_block[id(block)] = head_of_block[head_root]

    # --- build Loop objects -------------------------------------------------
    loops_by_head: dict[int, Loop] = {}
    # Root pseudo-loop covers the whole function.
    root = Loop(head=entry, blocks=set(id(b) for b in order),
                first_index=0, last_index=len(order) - 1, depth=0, parent=None)
    loops_by_head[id(entry)] = root

    # For real loops, the block span is [head_index, max index of any block
    # that can reach the head via the back edge] -- computed from the natural
    # loop membership (all blocks that reach the back-edge source without
    # passing through the head).
    preds = function.predecessors()
    for tail, head in back_edges:
        if head is entry:
            continue  # already covered by the root pseudo loop
        loop = loops_by_head.get(id(head))
        members = natural_loop_members(head, tail, preds)
        member_indices = [rpo_index[bid] for bid in members if bid in rpo_index]
        first = min(member_indices + [rpo_index[id(head)]])
        last = max(member_indices + [rpo_index[id(head)]])
        if loop is None:
            loop = Loop(head=head, blocks=set(members), first_index=first,
                        last_index=last)
            loops_by_head[id(head)] = loop
        else:
            loop.blocks |= set(members)
            loop.first_index = min(loop.first_index, first)
            loop.last_index = max(loop.last_index, last)

    # --- nesting: parent of a loop is the innermost loop containing its head
    # (other than itself).  Determined via the nearest dominating loop head of
    # the head's immediate dominator.
    real_loops = [l for key, l in loops_by_head.items() if l is not root]
    # Sort loops by span size descending so parents are assigned before
    # children when computing depth.
    real_loops.sort(key=lambda l: -(l.last_index - l.first_index))
    for loop in real_loops:
        idom = dom_tree.immediate_dominator(loop.head)
        parent = root
        if idom is not None:
            parent_head = head_of_block[id(idom)]
            parent = loops_by_head.get(id(parent_head), root)
            # Guard against self-parenting on irreducible-ish shapes.
            if parent is loop:
                parent = root
        loop.parent = parent
        loop.depth = parent.depth + 1

    # --- innermost loop per block -------------------------------------------
    innermost: dict[int, Loop] = {}
    for block in order:
        head = head_of_block[id(block)]
        innermost[id(block)] = loops_by_head.get(id(head), root)

    all_loops = [root] + real_loops
    info = LoopInfo(function=function, order=order, rpo_index=rpo_index,
                    dom_tree=dom_tree, loops=all_loops, innermost=innermost)
    return info


def natural_loop_members(head: BasicBlock, tail: BasicBlock,
                         preds: dict) -> set[int]:
    """Blocks of the natural loop defined by back edge ``tail -> head``.

    Standard worklist walk over predecessors (``preds``, the function's
    predecessor map) starting from the back edge source, stopping at the
    head.  Returns block ids.
    """
    members: set[int] = {id(head), id(tail)}
    worklist = [tail]
    while worklist:
        block = worklist.pop()
        for pred in preds[block]:
            if id(pred) not in members:
                members.add(id(pred))
                worklist.append(pred)
    return members


def loop_nesting_depths(function: Function) -> dict[str, int]:
    """Convenience: map block name -> loop nesting depth (0 = not in a loop)."""
    info = find_loops(function)
    return {block.name: info.loop_of(block).depth for block in info.order}
