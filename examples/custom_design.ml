(* Bring-your-own-design walkthrough.

   Shows the plain-text interchange formats (sinks / RTL / instruction
   stream), routing with a skew budget, load-proportional gate sizing,
   windowed power traces, and SPICE/CSV export — the full toolbox beyond
   the paper's core experiment.

   Run with:  dune exec examples/custom_design.exe
   Writes:    custom_design.sp (SPICE deck), custom_design.csv *)

let sinks_file =
  {|# a tiny SoC: 9 clock sinks across three blocks
# id  x     y     cap  module
0     100   100   15   0
1     220   140   20   0
2     160   260   25   0
3     820   850   25   1
4     880   760   10   1
5     760   900   18   1
6     120   820   30   2
7     180   880   12   2
8     260   800   22   2
|}

let rtl_file =
  {|# instruction -> exercised blocks
modules core fpu dma
nop:   core
alu:   core
fmul:  core fpu
fdiv:  core fpu
copy:  dma
burst: core dma
|}

let stream_file =
  {|# a bursty trace: FP phase, then DMA phase, then idle-ish loop
alu alu fmul fmul fdiv fmul fmul alu fdiv fmul
fmul fmul alu fdiv fmul fmul fdiv fmul alu fmul
copy copy burst copy copy burst burst copy copy copy
burst copy copy copy burst copy copy burst copy copy
nop alu nop nop alu nop nop alu nop nop
nop nop alu nop nop nop alu nop nop alu
|}

let () =
  (* 1. Parse the design (these also round-trip through files; see
     Formats.*.load / save). *)
  let sinks = Formats.Sinks_format.parse sinks_file in
  let rtl = Formats.Rtl_format.parse rtl_file in
  let stream = Formats.Stream_format.parse rtl stream_file in
  let profile = Activity.Profile.of_stream stream in
  Format.printf "Design: %d sinks over %d modules, %d-cycle trace, activity %.2f@.@."
    (Array.length sinks) (Activity.Rtl.n_modules rtl)
    (Activity.Instr_stream.length stream)
    (Activity.Profile.avg_activity profile);

  (* 2. Route with a small skew budget (2 ps = 2000 ohm*fF): zero skew is a
     constraint you can pay for; a budget saves snaking wire. *)
  let die =
    Geometry.Bbox.expand
      (Geometry.Bbox.of_points (Array.map (fun s -> s.Clocktree.Sink.loc) sinks))
      50.0
  in
  let config = Gcr.Config.make ~die () in
  let exact = Gcr.Router.route config profile sinks in
  let budgeted = Gcr.Router.route ~skew_budget:2000.0 config profile sinks in
  Format.printf "zero skew: %.1f um wire; 2ps budget: %.1f um wire@.@."
    (Gcr.Cost.clock_wirelength exact)
    (Gcr.Cost.clock_wirelength budgeted);

  (* 3. Reduce gates, then apply tapered sizing (uniform per tree level,
     so sibling drive strengths stay matched and zero skew is cheap). *)
  let reduced = Gcr.Gate_reduction.reduce_optimal exact in
  let sized = Gcr.Sizing.tapered ~min_scale:1.0 reduced in
  Util.Text_table.print
    (Gcr.Report.comparison_table
       [
         Gcr.Report.of_tree ~name:"gated (all)" exact;
         Gcr.Report.of_tree ~name:"reduced" reduced;
         Gcr.Report.of_tree ~name:"reduced+tapered" sized;
         Gcr.Report.of_tree ~name:"buffered" (Gcr.Buffered.route config profile sinks);
       ]);

  (* 4. Power over time: the FP phase, the DMA phase and the idle loop
     draw visibly different power through the gated tree. *)
  let trace = Gsim.Trace.power_trace sized stream ~window:10 in
  Format.printf "@.per-10-cycle switched capacitance (fF/cycle):@.";
  Array.iteri
    (fun w total ->
      Format.printf "  window %d (cycles %d-%d): %7.1f  %s@." w (w * 10)
        ((w * 10) + trace.Gsim.Trace.cycles.(w) - 1)
        total
        (String.make (int_of_float (total /. 25.0)) '#'))
    trace.Gsim.Trace.total;
  Format.printf "peak/average = %.2f@.@." (Gsim.Trace.peak_to_average trace);

  (* 5. Verify and export. *)
  Gsim.Check.validate sized;
  Gcr.Spice.write_file "custom_design.sp" (Gcr.Spice.render ~sections:3 sized);
  Formats.Report_csv.save "custom_design.csv"
    [ Gcr.Report.of_tree ~name:"reduced+tapered" sized ];
  Format.printf "verified against cycle-accurate simulation;@.";
  Format.printf "wrote custom_design.sp and custom_design.csv@."
