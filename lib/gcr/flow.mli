(** One-call routing pipelines.

    Bundles the common sequence — route, reduce gates, size — behind a
    single options record, so applications (and the CLI, benches and
    examples) do not each re-assemble the same glue. *)

type reduction =
  | No_reduction  (** keep every gate of the routed tree *)
  | Optimal  (** {!Gate_reduction.reduce_optimal} (the default) *)
  | Rules  (** the paper's rules, {!Gate_reduction.reduce_rules} *)
  | Fraction of float  (** {!Gate_reduction.reduce_fraction} *)

type sizing = No_sizing | Tapered | Uniform of float | Proportional

type shards =
  | Flat  (** single flat greedy merge (the default) *)
  | Auto_shards  (** {!Shard_router} with {!Shard_router.auto_shards} *)
  | Shards of int  (** {!Shard_router} with an explicit region count *)

type gate_share =
  | No_share  (** every gate keeps its own per-subtree enable *)
  | Share of { min_instances : int; eps : int }
      (** run {!Gate_share.share} after reduction: drop gates covering
          fewer than [min_instances] sinks, remove gates within [eps] of
          their governor, group the rest onto shared enables *)

type eco =
  | No_eco  (** workload drift forces a full re-route *)
  | Eco of { threshold : float }
      (** opt into ECO-style local repair under workload drift: when a
          trace update moves some subtree's observed [P(EN)]/[Ptr(EN)]
          past this relative threshold, {!Eco.repair} re-merges only the
          stale subtree (see {!Eco}). The threshold is carried here so
          scenarios, the CLI and the serve layer agree on one knob; the
          batch pipeline ({!run}/{!run_checked}) itself never repairs. *)

type options = {
  skew_budget : float;  (** 0 = exact zero skew *)
  reduction : reduction;
  sizing : sizing;
  shards : shards;  (** region-parallel routing (see {!Shard_router}) *)
  gate_share : gate_share;  (** post-reduction gate sharing *)
  eco : eco;  (** drift-repair policy for streaming updates *)
}

val default : options
(** Zero skew, optimal gate reduction, no sizing — the configuration behind the
    headline reproduction numbers. *)

val route_with_options :
  options ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  Gated_tree.t
(** The routing stage of {!run} alone: {!Router.route} or
    {!Shard_router.route} according to [options.shards], with
    [options.skew_budget] applied. *)

val apply_reduction : options -> Gated_tree.t -> Gated_tree.t
(** The gate-reduction stage of {!run} alone, on an already-routed tree. *)

val apply_share : options -> Gated_tree.t -> Gated_tree.t
(** The gate-sharing stage of {!run} alone (runs between reduction and
    sizing). *)

val apply_sizing : options -> Gated_tree.t -> Gated_tree.t
(** The sizing stage of {!run} alone. *)

val label : options -> string
(** Human-readable tag of the pipeline variant, e.g. ["gated+optimal+tapered"]. *)

val run :
  ?options:options ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  Gated_tree.t
(** The full gated pipeline. Raises [Invalid_argument] on a malformed
    fraction or scale inside [options], or on the usual input errors. *)

(** {1 Checked pipeline} *)

type mode =
  | Default  (** cheap finite-float assertions at stage boundaries only *)
  | Paranoid
      (** full {!Verify.structural} re-derivation between every stage;
          measured at well under 2x the default run time *)

type limits = {
  wall_seconds : float option;
      (** time budget for the whole pipeline, measured on the monotonic
          {!Util.Obs.Clock} (immune to NTP wall-clock steps); [Some 0.]
          deterministically exhausts before the first stage *)
  max_merge_steps : int option;
      (** upper bound on greedy merge steps ([n-1] are needed for [n] sinks) *)
}

val no_limits : limits

type event = {
  stage : string;  (** pipeline stage about to run (or being skipped) *)
  action : string;  (** human-readable description of the degradation *)
  error : Util.Gcr_error.t option;  (** the failure that triggered it *)
}
(** One graceful-degradation step: emitted through [on_event] every time
    {!run_checked} downgrades an engine or skips an optimisation stage. *)

val pp_event : Format.formatter -> event -> unit

val run_checked :
  ?mode:mode ->
  ?limits:limits ->
  ?on_event:(event -> unit) ->
  ?options:options ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  (Gated_tree.t, Util.Gcr_error.t list) result
(** {!run} with every stage boundary wrapped: never raises.

    Inputs are validated first (empty or mis-indexed sinks, non-finite
    coordinates or loads, module ids outside the profile's universe,
    invalid technology or options) and all problems are reported together
    as [Degenerate_input] errors. Stray exceptions inside a stage are
    converted through {!Util.Gcr_error.of_exn} with the stage attached.

    Routing walks a degradation ladder, emitting an [event] per
    downgrade: the sharded region-parallel engine (only when [options]
    request sharding), then the flat NN-heap engine, then the all-pairs
    dense oracle, then
    dense with the signature kernel disabled (direct IFT/IMATT scans),
    then a relaxed-skew-budget retry; only when every rung fails is
    [Error] returned, carrying one typed error per rung in order. Gate
    reduction and sizing degrade to "skip the stage" — the routed tree
    is already a correct answer, so a failing optimisation pass is
    dropped with an event rather than failing the pipeline; gate sharing
    (between them) degrades the same way, keeping per-subtree enables.

    [limits] bounds the work: too many required merge steps fail fast as
    [Resource_limit], and an exhausted time budget mid-pipeline returns
    the partial (routed but unoptimised) result with an event, or
    [Resource_limit] when no tree exists yet.

    The wall budget is re-checked between every pair of ladder rungs and
    again before each optional stage, so [wall_seconds = Some 0.]
    deterministically yields [Error [Resource_limit _]] without running
    any engine. A rung that succeeds past the deadline still returns its
    tree (a complete answer beats a timeout); only the optional stages
    after it are skipped.

    When {!Util.Obs} tracing is enabled the run records one span per
    stage attempted ([validate], then the ladder rungs, then [reduce]/
    [share]/[size]) plus the [flow.rungs] and [flow.degraded] counters. *)

type checked = {
  tree : Gated_tree.t;
  rung : string;
      (** the ladder rung that produced the routed tree, e.g. ["route"]
          or ["route:dense:tables"] *)
  degraded : event list;  (** degradation events, in emission order *)
}
(** {!run_checked}'s result with its provenance attached. *)

val run_checked_info :
  ?mode:mode ->
  ?limits:limits ->
  ?on_event:(event -> unit) ->
  ?options:options ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  (checked, Util.Gcr_error.t list) result
(** Exactly {!run_checked}, additionally reporting which ladder rung won
    and every degradation event taken along the way — the shape a serving
    layer needs to tag each response with its degradation provenance
    without threading a callback through a scheduler. [on_event] still
    fires as events happen (streaming), while [degraded] collects them. *)

val standard_comparison :
  ?options:options ->
  Config.t ->
  Activity.Profile.t ->
  Clocktree.Sink.t array ->
  (string * Gated_tree.t) list
(** The paper's Figure 3 trio over one input: [buffered], [gated]
    (unreduced) and the pipeline result, labelled accordingly. *)
