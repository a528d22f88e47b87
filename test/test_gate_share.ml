(* Tests for Gcr.Gate_share: idempotence, the min_instances coverage
   floor, exact-equality grouping at eps = 0, test-mode bypass, and the
   sharded-pipeline composition. *)

let pt = Geometry.Point.make

let mk_sink id x y cap module_id =
  Clocktree.Sink.make ~id ~loc:(pt x y) ~cap ~module_id

(* A small deterministic setup: n sinks on a die, one module per sink. *)
let setup ?(n = 24) ?(usage = 0.4) ?(stream_length = 400) ?(seed = 5) () =
  let side = 1000.0 in
  let prng = Util.Prng.create seed in
  let sinks =
    Array.init n (fun id ->
        mk_sink id
          (Util.Prng.range prng 0.0 side)
          (Util.Prng.range prng 0.0 side)
          (Util.Prng.range prng 5.0 50.0)
          id)
  in
  let profile =
    Benchmarks.Workload.profile ~n_modules:n ~n_instructions:12 ~usage
      ~stream_length ~seed:(seed + 1) ()
  in
  let die = Geometry.Bbox.square ~side in
  let config = Gcr.Config.make ~die () in
  (config, profile, sinks)

let routed ?(seed = 5) () =
  let config, profile, sinks = setup ~seed () in
  Gcr.Gate_reduction.reduce_optimal (Gcr.Router.route config profile sinks)

(* Sinks under each node, bottom-up. *)
let leaf_counts (tree : Gcr.Gated_tree.t) =
  let topo = tree.Gcr.Gated_tree.topo in
  let leaves = Array.make (Clocktree.Topo.n_nodes topo) 0 in
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      match Clocktree.Topo.children topo v with
      | None -> leaves.(v) <- 1
      | Some (a, b) -> leaves.(v) <- leaves.(a) + leaves.(b));
  leaves

(* ------------------------------------------------------------------ *)
(* Idempotence                                                        *)
(* ------------------------------------------------------------------ *)

let test_idempotent () =
  List.iter
    (fun (min_instances, eps) ->
      let tree = routed () in
      let once = Gcr.Gate_share.share ~min_instances ~eps tree in
      Gcr.Gated_tree.check_invariants once;
      Gcr.Verify.sharing once;
      let twice = Gcr.Gate_share.share ~min_instances ~eps once in
      Conformance.Oracles.same_tree
        ~what:(Printf.sprintf "share^2 = share (%d,%d)" min_instances eps)
        twice once)
    [ (1, 0); (0, 0); (2, 1); (4, 2) ]

(* ------------------------------------------------------------------ *)
(* min_instances edge cases                                           *)
(* ------------------------------------------------------------------ *)

let test_min_instances_zero_is_one () =
  (* every subtree holds >= 1 sink, so the floor only bites above 1; the
     recorded parameters legitimately differ, the structure must not *)
  let tree = routed () in
  let a = Gcr.Gate_share.share ~min_instances:0 tree in
  let b = Gcr.Gate_share.share ~min_instances:1 tree in
  Alcotest.(check bool) "kinds equal" true
    (a.Gcr.Gated_tree.kind = b.Gcr.Gated_tree.kind);
  Alcotest.(check bool) "representatives equal" true
    (a.Gcr.Gated_tree.share_rep = b.Gcr.Gated_tree.share_rep);
  Array.iteri
    (fun v (ea : Gcr.Enable.t) ->
      let eb = b.Gcr.Gated_tree.shared_enables.(v) in
      Alcotest.(check bool)
        (Printf.sprintf "shared enable %d equal" v)
        true
        (Activity.Module_set.equal ea.Gcr.Enable.mods eb.Gcr.Enable.mods
        && ea.Gcr.Enable.p = eb.Gcr.Enable.p
        && ea.Gcr.Enable.ptr = eb.Gcr.Enable.ptr))
    a.Gcr.Gated_tree.shared_enables

let test_min_instances_above_n_removes_all () =
  let tree = routed () in
  let n = Array.length tree.Gcr.Gated_tree.sinks in
  let shared, stats =
    Gcr.Gate_share.share_with_stats ~min_instances:(n + 1) tree
  in
  Alcotest.(check int) "no gates survive" 0 (Gcr.Gated_tree.gate_count shared);
  Alcotest.(check int) "no groups" 0 (Gcr.Gate_share.group_count shared);
  Alcotest.(check int) "all removals counted" (Gcr.Gated_tree.gate_count tree)
    (stats.Gcr.Gate_share.removed_small + stats.Gcr.Gate_share.removed_redundant);
  Gcr.Verify.structural shared

let test_min_instances_floor_holds () =
  List.iter
    (fun min_instances ->
      let tree = routed () in
      let shared = Gcr.Gate_share.share ~min_instances tree in
      let leaves = leaf_counts shared in
      Array.iteri
        (fun v kind ->
          if kind = Gcr.Gated_tree.Gated then
            Alcotest.(check bool)
              (Printf.sprintf "gate %d covers >= %d sinks" v min_instances)
              true
              (leaves.(v) >= min_instances))
        shared.Gcr.Gated_tree.kind;
      Gcr.Verify.sharing shared)
    [ 2; 3; 8 ]

(* ------------------------------------------------------------------ *)
(* eps = 0 is exact-equality sharing                                  *)
(* ------------------------------------------------------------------ *)

let test_eps_zero_waveform_equality () =
  let tree = routed () in
  let shared = Gcr.Gate_share.share ~min_instances:1 ~eps:0 tree in
  (* at eps = 0 a gate only ever joins a group whose waveform is
     cycle-identical to its own, so the shared statistics are its own *)
  Array.iteri
    (fun v kind ->
      if kind = Gcr.Gated_tree.Gated then begin
        let own = shared.Gcr.Gated_tree.enables.(v)
        and grp = shared.Gcr.Gated_tree.shared_enables.(v) in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "gate %d: shared P bit-for-bit" v)
          own.Gcr.Enable.p grp.Gcr.Enable.p;
        Alcotest.(check (float 0.0))
          (Printf.sprintf "gate %d: shared Ptr bit-for-bit" v)
          own.Gcr.Enable.ptr grp.Gcr.Enable.ptr
      end)
    shared.Gcr.Gated_tree.kind;
  (* and therefore sharing at the free settings cannot cost anything *)
  let before = Gcr.Cost.w_total tree and after = Gcr.Cost.w_total shared in
  Alcotest.(check bool)
    (Printf.sprintf "W does not increase (%.17g -> %.17g)" before after)
    true
    (Util.Tol.within ~rel:1e-9 ~value:after ~bound:before ())

(* ------------------------------------------------------------------ *)
(* Test-mode bypass                                                   *)
(* ------------------------------------------------------------------ *)

let test_bypass_is_ungated () =
  let tree = Gcr.Gate_share.share (routed ()) in
  let forced = Gcr.Gated_tree.with_test_en tree true in
  Alcotest.(check bool) "mode flag set" true forced.Gcr.Gated_tree.test_en;
  (* every edge at probability 1, control star quiet *)
  let n = Clocktree.Topo.n_nodes forced.Gcr.Gated_tree.topo in
  for v = 0 to n - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "edge %d transparent" v)
      1.0
      (Gcr.Gated_tree.edge_probability forced v)
  done;
  Alcotest.(check (float 0.0)) "W(S) = 0" 0.0 (Gcr.Cost.w_ctrl forced);
  Gcr.Verify.structural forced;
  (* cycle-for-cycle: the simulator sees the ungated (all-true) clock *)
  let stream = Activity.Profile.stream tree.Gcr.Gated_tree.profile in
  Conformance.Oracles.test_mode_bypass tree stream;
  (* and dropping back out of test mode is the identity *)
  Conformance.Oracles.same_tree ~what:"test_en off round-trip"
    (Gcr.Gated_tree.with_test_en forced false)
    tree

(* ------------------------------------------------------------------ *)
(* Composition with the sharded router                                *)
(* ------------------------------------------------------------------ *)

let test_shards_one_composes () =
  let config, profile, sinks = setup () in
  let share = Gcr.Flow.Share { min_instances = 1; eps = 0 } in
  let flat =
    Gcr.Flow.run
      ~options:{ Gcr.Flow.default with Gcr.Flow.gate_share = share }
      config profile sinks
  in
  let sharded =
    Gcr.Flow.run
      ~options:
        {
          Gcr.Flow.default with
          Gcr.Flow.shards = Gcr.Flow.Shards 1;
          gate_share = share;
        }
      config profile sinks
  in
  Conformance.Oracles.same_tree ~what:"shards=1 + share vs flat + share"
    sharded flat

(* ------------------------------------------------------------------ *)
(* Stats accounting                                                   *)
(* ------------------------------------------------------------------ *)

let test_stats_accounting () =
  let tree = routed () in
  let shared, stats = Gcr.Gate_share.share_with_stats ~min_instances:2 tree in
  Alcotest.(check int) "gates_before" (Gcr.Gated_tree.gate_count tree)
    stats.Gcr.Gate_share.gates_before;
  Alcotest.(check int) "gates_after" (Gcr.Gated_tree.gate_count shared)
    stats.Gcr.Gate_share.gates_after;
  Alcotest.(check int) "removals balance"
    (stats.Gcr.Gate_share.gates_before - stats.Gcr.Gate_share.gates_after)
    (stats.Gcr.Gate_share.removed_small
    + stats.Gcr.Gate_share.removed_redundant);
  Alcotest.(check int) "group count" stats.Gcr.Gate_share.groups
    (Gcr.Gate_share.group_count shared);
  Alcotest.(check bool) "groups <= gates" true
    (stats.Gcr.Gate_share.groups <= stats.Gcr.Gate_share.gates_after)

let () =
  Alcotest.run "gate_share"
    [
      ( "sharing",
        [
          Alcotest.test_case "idempotent" `Quick test_idempotent;
          Alcotest.test_case "min_instances 0 = 1" `Quick
            test_min_instances_zero_is_one;
          Alcotest.test_case "min_instances > n removes all" `Quick
            test_min_instances_above_n_removes_all;
          Alcotest.test_case "coverage floor holds" `Quick
            test_min_instances_floor_holds;
          Alcotest.test_case "eps 0 is exact equality" `Quick
            test_eps_zero_waveform_equality;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
        ] );
      ( "test mode",
        [ Alcotest.test_case "bypass is ungated" `Quick test_bypass_is_ungated ]
      );
      ( "composition",
        [
          Alcotest.test_case "shards=1 reproduces flat" `Quick
            test_shards_one_composes;
        ] );
    ]
