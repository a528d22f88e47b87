(* The paper's Section 3 worked example, end to end.

   Table 1's four-instruction, six-module RTL and a 20-cycle instruction
   stream with the probabilities worked out in the text: P(M1) = 0.75 and
   P(EN{M5,M6}) = 0.55. We print the IFT (Table 2) and IMATT (Table 3),
   place the six modules on a small die, run the gated clock router and
   cross-check every probability against brute-force stream scans and the
   cycle-accurate simulator.

   Run with:  dune exec examples/microprocessor.exe *)

let () =
  let profile = Activity.Profile.paper_example in
  let rtl = Activity.Profile.rtl profile in
  let stream = Activity.Profile.stream profile in

  Format.printf "=== Table 1: RTL description ===@.%a@." Activity.Rtl.pp rtl;
  Format.printf "=== Instruction stream (%d cycles) ===@.%a@.@."
    (Activity.Instr_stream.length stream)
    Activity.Instr_stream.pp stream;
  Format.printf "=== Table 2: Instruction Frequency Table ===@.%a@."
    Activity.Ift.pp (Activity.Profile.ift profile);
  Format.printf "=== Table 3: IMATT ===@.%a@." Activity.Imatt.pp
    (Activity.Profile.imatt profile);

  (* The probabilities the paper computes by hand in Section 3.2. *)
  let m56 = Activity.Module_set.of_list 6 [ 4; 5 ] in
  Format.printf "P(M1)        = %.3f   (paper: 0.75)@."
    (Activity.Profile.p_module profile 0);
  Format.printf "P(M5 or M6)  = %.3f   (paper: 0.55)@."
    (Activity.Profile.p profile m56);
  Format.printf "Ptr(M5,M6)   = %.4f  (= %d transitions / %d boundaries)@.@."
    (Activity.Profile.ptr profile m56)
    (Activity.Brute.transition_count stream m56)
    (Activity.Instr_stream.length stream - 1);

  (* Place the six modules on a 1.2mm die: datapath modules (M1..M4) in
     the middle band, the rarely used M5/M6 in a corner. *)
  let locs =
    [| (300.0, 600.0); (500.0, 550.0); (700.0, 600.0); (500.0, 750.0);
       (1000.0, 200.0); (1050.0, 320.0) |]
  in
  let sinks =
    Array.mapi
      (fun id (x, y) ->
        Clocktree.Sink.make ~id ~loc:(Geometry.Point.make x y) ~cap:25.0
          ~module_id:id)
      locs
  in
  let config = Gcr.Config.make ~die:(Geometry.Bbox.square ~side:1200.0) () in
  let gated = Gcr.Router.route config profile sinks in
  let reduced = Gcr.Gate_reduction.reduce_optimal gated in
  let buffered = Gcr.Buffered.route config profile sinks in
  Format.printf "=== Routing the six modules ===@.";
  Util.Text_table.print
    (Gcr.Report.comparison_table
       [
         Gcr.Report.of_tree ~name:"buffered" buffered;
         Gcr.Report.of_tree ~name:"gated" gated;
         Gcr.Report.of_tree ~name:"gated+reduced" reduced;
       ]);

  (* Cycle-accurate validation over the exact 20-cycle stream. *)
  Gsim.Check.validate gated;
  Gsim.Check.validate reduced;
  Format.printf "@.cycle-accurate check (gated):   %a@." Gsim.Check.pp
    (Gsim.Check.compare gated);
  Format.printf "cycle-accurate check (reduced): %a@." Gsim.Check.pp
    (Gsim.Check.compare reduced);

  Gcr.Svg.write_file "microprocessor.svg" (Gcr.Svg.render reduced);
  Format.printf "wrote microprocessor.svg@."
