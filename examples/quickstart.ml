(* Quickstart: gated zero-skew clock routing in ~60 lines.

   Eight clocked modules on a 2x2 mm die, a tiny CPU description telling us
   which modules each instruction uses, an instruction trace — and out
   comes a zero-skew clock tree whose masking gates cut the switched
   capacitance, verified by cycle-accurate simulation.

   Run with:  dune exec examples/quickstart.exe
   Writes:    quickstart.svg (the routed tree) *)

let () =
  (* 1. The die and the clock sinks (one per module, location + load). *)
  let die = Geometry.Bbox.square ~side:2000.0 in
  let locations =
    [| (300.0, 350.0); (450.0, 300.0); (350.0, 500.0);   (* cluster A *)
       (1600.0, 1650.0); (1700.0, 1500.0);               (* cluster B *)
       (300.0, 1700.0); (450.0, 1600.0);                 (* cluster C *)
       (1650.0, 300.0) |]                                (* lone sink  *)
  in
  let sinks =
    Array.mapi
      (fun id (x, y) ->
        Clocktree.Sink.make ~id ~loc:(Geometry.Point.make x y) ~cap:20.0
          ~module_id:id)
      locations
  in

  (* 2. The activity model: an RTL description (instruction -> modules) and
     an instruction stream. Cluster A is the always-on core; B and C are
     occasional functional units; module 7 is almost never clocked. *)
  let rtl =
    Activity.Rtl.of_lists ~n_modules:8
      [
        [ 0; 1; 2 ];          (* I1: core only              *)
        [ 0; 1; 2; 3; 4 ];    (* I2: core + unit B          *)
        [ 0; 1; 2; 5; 6 ];    (* I3: core + unit C          *)
        [ 0; 1; 2; 7 ];       (* I4: core + the rare module *)
      ]
  in
  let model =
    Activity.Cpu_model.make ~locality:0.6 ~weights:[| 0.5; 0.25; 0.2; 0.05 |] rtl
  in
  let profile = Activity.Profile.generate model ~seed:42 ~length:5000 in
  Format.printf "RTL description:@.%a@." Activity.Rtl.pp rtl;
  Format.printf "Average module activity: %.2f@.@."
    (Activity.Profile.avg_activity profile);

  (* 3. Route: fully gated min-switched-capacitance tree, then remove the
     gates that do not pay for their control wiring. *)
  let config = Gcr.Config.make ~die () in
  let gated = Gcr.Router.route config profile sinks in
  let reduced = Gcr.Gate_reduction.reduce_optimal gated in
  let buffered = Gcr.Buffered.route config profile sinks in

  (* 4. Compare: the paper's Figure 3 in miniature. *)
  let reports =
    [
      Gcr.Report.of_tree ~name:"buffered" buffered;
      Gcr.Report.of_tree ~name:"gated (all gates)" gated;
      Gcr.Report.of_tree ~name:"gated (reduced)" reduced;
    ]
  in
  Util.Text_table.print (Gcr.Report.comparison_table reports);

  (* 5. Trust nothing: replay the instruction stream cycle by cycle and
     check the analytic switched capacitance against measurement. *)
  Gsim.Check.validate reduced;
  Format.printf "@.simulation check: %a@." Gsim.Check.pp (Gsim.Check.compare reduced);

  (* 6. Render the reduced tree. *)
  Gcr.Svg.write_file "quickstart.svg" (Gcr.Svg.render ~show_regions:true reduced);
  Format.printf "wrote quickstart.svg@."
