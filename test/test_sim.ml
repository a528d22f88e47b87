(* Tests for the cycle-accurate gated-clock simulator and the
   analytic-vs-simulated cross-validation. The core invariant: on the very
   stream the probability tables were built from, the analytic switched
   capacitance equals the simulated one to floating-point accuracy — for
   gated, reduced, buffered and distributed-controller trees alike. *)

let pt = Geometry.Point.make

let mk_sink id x y cap module_id =
  Clocktree.Sink.make ~id ~loc:(pt x y) ~cap ~module_id

let setup ?(n = 16) ?(usage = 0.4) ?(stream_length = 300) ?(seed = 9) ?controller () =
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
    Benchmarks.Workload.profile ~n_modules:n ~n_instructions:10 ~usage
      ~stream_length ~seed:(seed + 2) ()
  in
  let config = Gcr.Config.make ?controller ~die:(Geometry.Bbox.square ~side) () in
  (config, profile, sinks)

(* Paper setup: 6 sinks = the 6 modules of the Section 3 example, driven by
   the exact 20-cycle stream. *)
let paper_tree () =
  let profile = Activity.Profile.paper_example in
  let prng = Util.Prng.create 4 in
  let sinks =
    Array.init 6 (fun id ->
        mk_sink id
          (Util.Prng.range prng 0.0 500.0)
          (Util.Prng.range prng 0.0 500.0)
          20.0 id)
  in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:500.0) () in
  (Gcr.Router.route config profile sinks, profile, sinks, config)

let test_paper_tree_validates () =
  let tree, _, _, _ = paper_tree () in
  Gsim.Check.validate tree

let test_paper_tree_edge_counts () =
  let tree, profile, _, _ = paper_tree () in
  let stream = Activity.Profile.stream profile in
  let result = Gsim.Gate_sim.run tree stream in
  Alcotest.(check int) "cycles" 20 result.Gsim.Gate_sim.cycles;
  (* per-edge activity fraction equals the analytic edge probability *)
  let topo = tree.Gcr.Gated_tree.topo in
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      if v <> Clocktree.Topo.root topo then begin
        let fraction =
          float_of_int result.Gsim.Gate_sim.edge_active_cycles.(v) /. 20.0
        in
        Alcotest.(check (float 1e-12))
          (Printf.sprintf "edge %d activity" v)
          (Gcr.Gated_tree.edge_probability tree v)
          fraction
      end)

let test_paper_enable_toggles_match_brute () =
  let tree, profile, _, _ = paper_tree () in
  let stream = Activity.Profile.stream profile in
  let result = Gsim.Gate_sim.run tree stream in
  let topo = tree.Gcr.Gated_tree.topo in
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      if Gcr.Gated_tree.is_gated tree v then
        Alcotest.(check int)
          (Printf.sprintf "toggles of enable %d" v)
          (Activity.Brute.transition_count stream
             tree.Gcr.Gated_tree.enables.(v).Gcr.Enable.mods)
          result.Gsim.Gate_sim.enable_toggles.(v))

let test_gated_tree_validates () =
  let config, profile, sinks = setup () in
  Gsim.Check.validate (Gcr.Router.route config profile sinks)

let test_reduced_tree_validates () =
  let config, profile, sinks = setup () in
  let tree = Gcr.Router.route config profile sinks in
  Gsim.Check.validate (Gcr.Gate_reduction.reduce_optimal tree);
  Gsim.Check.validate (Gcr.Gate_reduction.reduce_fraction tree ~fraction:0.7);
  Gsim.Check.validate (Gcr.Gate_reduction.reduce_rules tree)

let test_buffered_tree_validates () =
  let config, profile, sinks = setup () in
  let tree = Gcr.Buffered.route config profile sinks in
  Gsim.Check.validate tree;
  (* buffered: every edge toggles every cycle *)
  let stream = Activity.Profile.stream profile in
  let result = Gsim.Gate_sim.run tree stream in
  let topo = tree.Gcr.Gated_tree.topo in
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      if v <> Clocktree.Topo.root topo then
        Alcotest.(check int)
          (Printf.sprintf "edge %d always clocked" v)
          result.Gsim.Gate_sim.cycles
          result.Gsim.Gate_sim.edge_active_cycles.(v))

let test_distributed_controller_validates () =
  let config, profile, sinks =
    setup ~controller:(Gcr.Controller.distributed (Geometry.Bbox.square ~side:1000.0) ~k:4) ()
  in
  Gsim.Check.validate (Gcr.Router.route config profile sinks)

let test_gating_saves_versus_buffered_measured () =
  (* the power argument measured by simulation rather than analytically *)
  let config, profile, sinks = setup ~n:24 ~usage:0.25 ~stream_length:400 () in
  let stream = Activity.Profile.stream profile in
  let buffered = Gsim.Gate_sim.run (Gcr.Buffered.route config profile sinks) stream in
  let gated_tree = Gcr.Gate_reduction.reduce_optimal (Gcr.Router.route config profile sinks) in
  let gated = Gsim.Gate_sim.run gated_tree stream in
  Alcotest.(check bool)
    (Printf.sprintf "gated %.0f < buffered %.0f" gated.Gsim.Gate_sim.total_switched
       buffered.Gsim.Gate_sim.total_switched)
    true
    (gated.Gsim.Gate_sim.total_switched < buffered.Gsim.Gate_sim.total_switched)

let test_sim_rejects_wrong_universe () =
  let tree, _, _, _ = paper_tree () in
  let other_rtl = Activity.Rtl.of_lists ~n_modules:3 [ [ 0 ]; [ 1; 2 ] ] in
  let stream = Activity.Instr_stream.make other_rtl [| 0; 1; 0 |] in
  Alcotest.check_raises "universe mismatch"
    (Invalid_argument "Gate_sim.run: stream module universe does not match the tree")
    (fun () -> ignore (Gsim.Gate_sim.run tree stream))

let test_sim_rejects_short_stream () =
  let tree, profile, _, _ = paper_tree () in
  let rtl = Activity.Profile.rtl profile in
  let stream = Activity.Instr_stream.make rtl [| 0 |] in
  Alcotest.check_raises "short stream"
    (Invalid_argument "Gate_sim.run: stream shorter than two cycles") (fun () ->
      ignore (Gsim.Gate_sim.run tree stream))

let prop_validation_holds_on_random_instances =
  QCheck.Test.make ~name:"analytic = simulated on random gated instances" ~count:15
    QCheck.(pair (int_range 2 20) (int_range 1 1000))
    (fun (n, seed) ->
      let config, profile, sinks = setup ~n ~seed ~stream_length:120 () in
      let tree = Gcr.Router.route config profile sinks in
      let c = Gsim.Check.compare tree in
      c.Gsim.Check.rel_error_clock < 1e-9 && c.Gsim.Check.rel_error_ctrl < 1e-9)

let prop_validation_holds_after_reduction =
  QCheck.Test.make ~name:"analytic = simulated after arbitrary gate reduction"
    ~count:10
    QCheck.(pair (int_range 3 15) (float_range 0.0 1.0))
    (fun (n, fraction) ->
      let config, profile, sinks = setup ~n ~seed:(n * 31) ~stream_length:100 () in
      let tree = Gcr.Router.route config profile sinks in
      let reduced = Gcr.Gate_reduction.reduce_fraction tree ~fraction in
      let c = Gsim.Check.compare reduced in
      c.Gsim.Check.rel_error_clock < 1e-9 && c.Gsim.Check.rel_error_ctrl < 1e-9)

(* ------------------------------------------------------------------ *)
(* Trace: windowed power                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_mean_matches_gate_sim () =
  let config, profile, sinks = setup ~n:12 ~stream_length:200 () in
  let tree = Gcr.Router.route config profile sinks in
  let stream = Activity.Profile.stream profile in
  let trace = Gsim.Trace.power_trace tree stream ~window:16 in
  let sim = Gsim.Gate_sim.run tree stream in
  (* clock parts use the same per-cycle convention: exact match *)
  let clock_mean =
    let sum = ref 0.0 and cycles = ref 0 in
    Array.iteri
      (fun w v ->
        sum := !sum +. (v *. float_of_int trace.Gsim.Trace.cycles.(w));
        cycles := !cycles + trace.Gsim.Trace.cycles.(w))
      trace.Gsim.Trace.clock;
    !sum /. float_of_int !cycles
  in
  Alcotest.(check (float 1e-9)) "clock mean" sim.Gsim.Gate_sim.clock_switched clock_mean;
  (* total means agree up to the B vs B-1 control normalization *)
  let b = float_of_int (Activity.Instr_stream.length stream) in
  let expected_total =
    sim.Gsim.Gate_sim.clock_switched
    +. (sim.Gsim.Gate_sim.ctrl_switched *. ((b -. 1.0) /. b))
  in
  Alcotest.(check (float 1e-6)) "total mean" expected_total (Gsim.Trace.mean trace)

let test_trace_window_structure () =
  let config, profile, sinks = setup ~n:8 ~stream_length:100 () in
  let tree = Gcr.Router.route config profile sinks in
  let stream = Activity.Profile.stream profile in
  let trace = Gsim.Trace.power_trace tree stream ~window:30 in
  Alcotest.(check int) "4 windows" 4 (Array.length trace.Gsim.Trace.total);
  Alcotest.(check (array int)) "cycle counts" [| 30; 30; 30; 10 |]
    trace.Gsim.Trace.cycles;
  Alcotest.(check bool) "peak >= mean" true
    (Gsim.Trace.peak trace >= Gsim.Trace.mean trace);
  Alcotest.(check bool) "peak-to-average >= 1" true
    (Gsim.Trace.peak_to_average trace >= 1.0)

let test_trace_gated_varies_buffered_constant () =
  let config, profile, sinks = setup ~n:16 ~usage:0.2 ~stream_length:300 () in
  let stream = Activity.Profile.stream profile in
  let gated =
    Gcr.Gate_reduction.reduce_optimal (Gcr.Router.route config profile sinks)
  in
  let buffered = Gcr.Buffered.route config profile sinks in
  let tg = Gsim.Trace.power_trace gated stream ~window:25 in
  let tb = Gsim.Trace.power_trace buffered stream ~window:25 in
  (* a buffered tree burns the same power every cycle *)
  Alcotest.(check (float 1e-9)) "buffered flat" (Gsim.Trace.peak tb) (Gsim.Trace.mean tb);
  (* a gated tree at low activity is bursty *)
  Alcotest.(check bool) "gated bursty" true (Gsim.Trace.peak_to_average tg > 1.0)

let test_trace_validation () =
  let config, profile, sinks = setup ~n:4 ~stream_length:50 () in
  let tree = Gcr.Router.route config profile sinks in
  let stream = Activity.Profile.stream profile in
  Alcotest.check_raises "bad window"
    (Invalid_argument "Trace.power_trace: non-positive window") (fun () ->
      ignore (Gsim.Trace.power_trace tree stream ~window:0))

(* ------------------------------------------------------------------ *)
(* Variation: process-variation Monte Carlo                           *)
(* ------------------------------------------------------------------ *)

let test_variation_nominal_matches_elmore () =
  let config, profile, sinks = setup ~n:14 () in
  let tree = Gcr.Router.route config profile sinks in
  let unperturbed =
    Gsim.Variation.evaluate_perturbed tree ~r_scale:(fun _ -> 1.0)
      ~c_scale:(fun _ -> 1.0)
  in
  let reference =
    Clocktree.Elmore.evaluate tree.Gcr.Gated_tree.config.Gcr.Config.tech
      tree.Gcr.Gated_tree.embed
      ~gate_on_edge:(Gcr.Gated_tree.gate_on_edge tree)
  in
  Alcotest.(check (float 1e-6)) "same phase delay"
    (Clocktree.Elmore.phase_delay reference)
    (Clocktree.Elmore.phase_delay unperturbed);
  Alcotest.(check (float 1e-6)) "same (zero) skew" reference.Clocktree.Elmore.skew
    unperturbed.Clocktree.Elmore.skew

let test_variation_sigma_zero_keeps_zero_skew () =
  let config, profile, sinks = setup ~n:12 () in
  let tree = Gcr.Router.route config profile sinks in
  let r = Gsim.Variation.monte_carlo ~sigma:0.0 ~runs:5 tree in
  Alcotest.(check bool) "zero skew at sigma 0" true
    (r.Gsim.Variation.max_skew /. (1.0 +. r.Gsim.Variation.nominal_delay) < 1e-9)

let test_variation_grows_with_sigma () =
  let config, profile, sinks = setup ~n:20 () in
  let tree = Gcr.Router.route config profile sinks in
  let at sigma =
    (Gsim.Variation.monte_carlo ~seed:5 ~sigma ~runs:40 tree).Gsim.Variation.mean_skew
  in
  let s1 = at 0.01 and s5 = at 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "skew grows: %.1f @1%% < %.1f @5%%" s1 s5)
    true (s1 < s5);
  Alcotest.(check bool) "positive" true (s1 > 0.0)

let test_variation_deterministic () =
  let config, profile, sinks = setup ~n:10 () in
  let tree = Gcr.Router.route config profile sinks in
  let a = Gsim.Variation.monte_carlo ~seed:9 ~runs:10 tree in
  let b = Gsim.Variation.monte_carlo ~seed:9 ~runs:10 tree in
  Alcotest.(check (float 0.0)) "same mean" a.Gsim.Variation.mean_skew
    b.Gsim.Variation.mean_skew

let test_variation_validation () =
  let config, profile, sinks = setup ~n:4 () in
  let tree = Gcr.Router.route config profile sinks in
  Alcotest.check_raises "zero runs"
    (Invalid_argument "Variation.monte_carlo: runs must be positive") (fun () ->
      ignore (Gsim.Variation.monte_carlo ~runs:0 tree))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "paper_example",
        [
          Alcotest.test_case "validates" `Quick test_paper_tree_validates;
          Alcotest.test_case "edge counts" `Quick test_paper_tree_edge_counts;
          Alcotest.test_case "enable toggles" `Quick test_paper_enable_toggles_match_brute;
        ] );
      ( "cross_validation",
        [
          Alcotest.test_case "gated" `Quick test_gated_tree_validates;
          Alcotest.test_case "reduced" `Quick test_reduced_tree_validates;
          Alcotest.test_case "buffered" `Quick test_buffered_tree_validates;
          Alcotest.test_case "distributed controller" `Quick test_distributed_controller_validates;
          Alcotest.test_case "gating saves (measured)" `Quick
            test_gating_saves_versus_buffered_measured;
          qt prop_validation_holds_on_random_instances;
          qt prop_validation_holds_after_reduction;
        ] );
      ( "validation_errors",
        [
          Alcotest.test_case "wrong universe" `Quick test_sim_rejects_wrong_universe;
          Alcotest.test_case "short stream" `Quick test_sim_rejects_short_stream;
        ] );
      ( "trace",
        [
          Alcotest.test_case "mean matches gate_sim" `Quick test_trace_mean_matches_gate_sim;
          Alcotest.test_case "window structure" `Quick test_trace_window_structure;
          Alcotest.test_case "gated bursty, buffered flat" `Quick
            test_trace_gated_varies_buffered_constant;
          Alcotest.test_case "validation" `Quick test_trace_validation;
        ] );
      ( "variation",
        [
          Alcotest.test_case "nominal matches elmore" `Quick
            test_variation_nominal_matches_elmore;
          Alcotest.test_case "sigma zero" `Quick test_variation_sigma_zero_keeps_zero_skew;
          Alcotest.test_case "grows with sigma" `Quick test_variation_grows_with_sigma;
          Alcotest.test_case "deterministic" `Quick test_variation_deterministic;
          Alcotest.test_case "validation" `Quick test_variation_validation;
        ] );
    ]
