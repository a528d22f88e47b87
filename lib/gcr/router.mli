(** PROCEDURE GatedClockRouting — the paper's Section 4 algorithm.

    Greedy bottom-up merging where the next pair is the one with the
    smallest merge switched capacitance (Equation (3)), evaluated with a
    tentative zero-skew split of the merging-sector distance and the
    controller star estimated from the sector midpoints; followed by
    top-down DME placement. Every edge receives a masking gate during
    construction (gate reduction is a separate pass, {!Gate_reduction}).

    Candidate pairs come from {!Clocktree.Greedy.bound_scan} under an
    additive bound: a root's share of any Eq. (3) cost it enters is
    [L(v) = cg P(EN_v) + star(v)] (its star wire is fixed once it is a
    root), and since the split wires cover the sector distance,
    [cost(u,v) >= L(u) + L(v) + c min(P_u,P_v) dist(u,v)]. Roots are
    walked in ascending [L], the walk stops once [L(u) + L(v)] reaches
    the best cost found, and the pair bound screens the rest, so only a
    few percent of candidates are ever costed (EXPERIMENTS.md); each
    exact cost reads the flat arena and allocates nothing.

    Complexity: O(B) to scan the stream once (done by the caller when
    building the {!Activity.Profile}); the merge loop walks O(N) sorted
    bounds per best-partner query — O(N^2) cheap bound checks over the
    run in the worst case — and costs a small fraction of them exactly,
    each merge adding O(W) for the signature OR and popcounts where W
    is the bitset word count. The paper's bound is O(B + K^2 N^2). *)

val route :
  ?skew_budget:float ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  Gated_tree.t
(** Build the fully gated zero-skew tree (or bounded-skew, with a positive
    [skew_budget] in ohm x fF). Raises [Invalid_argument] on an empty or
    mis-indexed sink array, or when a sink's module id falls outside the
    profile's universe. *)

val route_dense :
  ?skew_budget:float ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  Gated_tree.t
(** {!route} driven by the all-pairs reference engine
    ({!Clocktree.Greedy.merge_all_dense}) instead of the bounded
    engine — the degradation target of {!Flow}'s paranoid mode when the
    fast engine's output fails an invariant check. Same contract as
    {!route}. *)

val route_topology_only :
  Config.t -> Activity.Profile.t -> Clocktree.Sink.t array -> Clocktree.Topo.t
(** Just the min-switched-capacitance topology (used by ablations that
    re-cost the same topology under different embeddings). *)

(** {1 The merge core}

    The greedy loop factored out as an explicit forest, so the sharded
    router ({!Shard_router}) can drive the same cost/merge machinery
    per region and again over the region roots during stitching. *)

type forest
(** A growing forest of zero-skew subtrees with the paper's Eq. (3)
    enable bookkeeping alongside ({!Clocktree.Grow} + per-root
    {!Enable}). *)

val forest :
  Config.t -> Activity.Profile.t -> Clocktree.Sink.t array -> forest
(** Fresh forest, every sink its own root. Raises [Invalid_argument] on a
    mis-indexed sink array. *)

val grow : forest -> Clocktree.Grow.t
(** The underlying merge state (active roots, regions, merge list). *)

val cost : forest -> int -> int -> float
(** Eq. (3) merge switched capacitance of tentatively merging two active
    roots: clock-tree term from a tentative zero-skew split plus the
    controller star term from the sector midpoints. Symmetric bit for
    bit: the pair is always evaluated with the larger id as the split's
    first branch. Raises [Invalid_argument] unless both are active
    roots. *)

val lower_bound : forest -> int -> float
(** A root's additive key: [cost t u v >= lower_bound t u +. lower_bound
    t v] for every active pair, in floats (the bound is shaved by a
    relative 1e-9 to absorb rounding). *)

val pair_bound : forest -> int -> int -> float
(** The O(1) pair screen [L(u) + L(v) + c min(P_u,P_v) dist(u,v)],
    shaved like {!lower_bound}: [cost t u v >= pair_bound t u v] for
    every active pair, in floats. *)

val merge : forest -> int -> int -> int
(** Commit a merge (Grow + enable union); returns the new root id. *)

val merge_roots : forest -> int array -> int
(** Greedy-merge the given active roots (and only those) down to one
    with the bounded engine; returns the surviving root id. Raises
    [Invalid_argument] on an empty array. *)

val run : ?dense:bool -> forest -> unit
(** Greedy-merge the forest down to a single root with the bounded
    engine ({!merge_roots} over every sink), or with the all-pairs
    reference engine when [dense]. Must be called on a fresh forest —
    the engines start from the sink roots. *)
