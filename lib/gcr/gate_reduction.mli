(** Gate reduction (Section 4.3 of the paper).

    Inserting a masking gate on every edge maximizes masking but blows up
    the controller star and its switched capacitance; the paper removes
    gates that barely help, using three rules, plus a forced-insertion rule
    that bounds how much capacitance may accumulate without a gate (so the
    phase delay does not grow unchecked):

    + the node's activity is close to 1 — there is nothing to mask;
    + the node's subtree switched capacitance is very small — the gate can
      only save a sliver;
    + the parent's activity is almost the same as the node's — the parent
      gate already masks nearly as well.

    Removing a gate ties its enable high: the cell degenerates to an
    always-on clock buffer (the paper notes the gates "also serve as
    buffers"), its control star wire disappears and the edges it governed
    fall back to the enclosing gate's enable. Modelling removal as a
    buffer demotion (rather than deleting the cell) keeps sibling branch
    delays matched, so the re-embedding does not need pathological snaking
    wire to restore zero skew.

    Besides the paper's rule-based pass this module provides one optimiser:
    an exact dynamic program over which of the input's gates to keep,
    optionally under an exact gate budget (the knob behind the paper's
    Figure 5 sweep). Every pass only removes gates the input has, and
    re-runs the DME embedding for the final assignment, so zero skew is
    preserved. *)

type thresholds = {
  activity_high : float;  (** rule 1: remove when [P(EN) >= activity_high] *)
  min_switched_cap : float;
      (** rule 2: remove when the subtree switched capacitance (fF/cycle)
          is at most this *)
  parent_delta : float;
      (** rule 3: remove when [P(EN_parent) - P(EN) <= parent_delta] *)
  force_cap_multiple : float;
      (** re-insert a gate once the capacitance accumulated since the last
          gate reaches this multiple of the gate input capacitance *)
}

val default_thresholds : thresholds
(** [activity_high = 0.95], [min_switched_cap = 2 x 20 fF],
    [parent_delta = 0.02], [force_cap_multiple = 10]. *)

val reduce_rules : ?thresholds:thresholds -> Gated_tree.t -> Gated_tree.t
(** The paper's pass: apply the three removal rules on the fully gated
    tree, then the forced-insertion sweep, then re-embed. *)

val reduce_optimal : ?gates:int -> Gated_tree.t -> Gated_tree.t
(** Exact optimal choice of which gates to keep, on the {e fixed}
    topology and on the input's wire lengths (the final assignment is
    re-embedded exactly). Each edge's clock probability is the enable of
    its lowest gated ancestor, so a subtree's cost depends only on that
    ancestor, one of O(depth) contexts: the DP takes O(N * depth) time.
    Only the input's gated edges are decided (kept, or demoted to a
    buffer); every other edge keeps its kind.

    With [~gates:k] exactly [k] gates are kept, at minimum estimated [W]
    for that count; the per-context rows become vectors over the gate
    count, merged min-plus at each node. Raises [Invalid_argument] unless
    [0 <= k <= gate_count]. *)

val reduce_fraction : Gated_tree.t -> fraction:float -> Gated_tree.t
(** [reduce_fraction t ~fraction] removes [round (fraction * G)] of the
    tree's [G] gates: {!reduce_optimal} with [~gates:(G - round (fraction
    * G))]. Raises [Invalid_argument] unless [fraction] is in [0..1]. *)
