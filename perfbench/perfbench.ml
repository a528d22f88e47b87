(* perfbench: the router's end-to-end benchmark.

   One run executes one workload and prints, as the last line of its
   standard output, one JSON object with the keys [correct], [attempted],
   [failed] and [metrics]. With [--trace 0] the metrics are the
   end-to-end ones; with [--trace 1] they are the per-layer ones, and the
   benchmark's own spans are written under [.perfbench/]. A run whose
   outputs fail a check still prints its result, then exits 1.

   The program is driven only through its public entry points: inputs
   are texts parsed by [Formats]/[Conformance.Scenario], routing is
   [Gcr.Flow.run] (or its stage functions, in the traced run), serving is
   an in-process [Serve.Server] reached through [Serve.Client]. See
   README.md for the workloads and the metrics. *)

open Common

let () =
  let args = parse_args () in
  pf "perfbench: workload %s, seed %d, %g s, trace %d\n%!" args.workload args.seed
    args.seconds
    (if args.trace then 1 else 0);
  (match args.workload with
  | "paper-r1-r5" ->
    Batch.run args { Batch.designs = Designs.paper ~seed:args.seed; min_rounds = 3 }
  | "grouped-10k" ->
    Batch.run args { Batch.designs = Designs.grouped ~seed:args.seed; min_rounds = 6 }
  | w -> die_usage ("unknown workload " ^ w));
  if args.trace then
    Spans.write
      (Filename.concat ".perfbench"
         (Printf.sprintf "spans-%s-seed%d.jsonl" args.workload args.seed));
  print_result args
