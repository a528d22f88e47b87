(** Switched-capacitance cost model (Section 2 of the paper).

    Clock tree:      [W(T) = sum (c |e_i| + C_i) P(EN_i)]
    Controller tree: [W(S) = sum (c |EN_i| + C_g) Ptr(EN_i)] (scaled by the
    configured control weight)

    Units: fF of capacitance switched per clock cycle (multiply by
    [f * Vdd^2] for power). The clock-edge probability is the enable of the
    edge's governing gate, so a partially gated tree is costed exactly. *)

val edge_switched_cap : Gated_tree.t -> int -> float
(** Per-cycle switched capacitance of the edge above a node (wire plus the
    capacitance hanging at the node), weighted by the clock probability on
    that edge. 0 for the root (no edge above). *)

val w_clock : Gated_tree.t -> float
(** Total clock-tree switched capacitance [W(T)], including the load
    hanging at the root node. *)

val control_wire_length : Gated_tree.t -> int -> float
(** Star-wire length from the gate on the edge above the node to its
    controller; 0 for ungated edges. *)

val control_wirelength_total : Gated_tree.t -> float

val clock_wirelength : Gated_tree.t -> float

val w_ctrl : Gated_tree.t -> float
(** Total controller-tree switched capacitance [W(S)] (control-weight
    applied). *)

val w_total : Gated_tree.t -> float
(** [w_clock + w_ctrl] — the paper's objective. *)

val subtree_switched_cap : Gated_tree.t -> int -> float
(** Clock-tree switched capacitance of the subtree hanging below (and
    including) the edge above the given node — the quantity of the
    gate-reduction rule "switched capacitance of the node is very small". *)

val merge_sc :
  Config.t ->
  ea:float ->
  eb:float ->
  mid_a:Geometry.Point.t ->
  mid_b:Geometry.Point.t ->
  enable_a:Enable.t ->
  enable_b:Enable.t ->
  float
(** Equation (3): the switched capacitance committed by merging two subtree
    roots — each new clock edge weighted by its child's signal probability
    (with the child's gate input capacitance as node load), plus each
    child's enable star wire (estimated from the controller to the middle
    of the child's merging sector) weighted by its transition
    probability. {!Router} evaluates the same float expression inline
    over its flat arena; this is the reference its tests compare
    against bit for bit. *)
