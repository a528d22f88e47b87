(* Conformance subsystem: fuzz smoke, the exhaustive Flow matrix, seed-file
   round-trips, oracle unit behavior, and the mutation smoke test proving
   an injected skew bug is caught, shrunk and dumped as a reproducer. *)

module S = Conformance.Scenario
module F = Conformance.Fuzz

let scenario_at seed tag = S.generate (Util.Prng.create seed) ~tag

(* First seed >= start whose scenario has at least [min_sinks] sinks. *)
let rec scenario_with_sinks ?(min_sinks = 10) start tag =
  let sc = scenario_at start tag in
  if Array.length sc.S.sinks >= min_sinks then sc
  else scenario_with_sinks ~min_sinks (start + 1) tag

let contains ~affix s = Astring.String.is_infix ~affix s

(* ------------------------------------------------------------------ *)
(* Fuzz smoke                                                         *)
(* ------------------------------------------------------------------ *)

let test_fuzz_smoke () =
  let stats = F.run ~count:25 ~seed:7 () in
  Alcotest.(check int) "scenarios" 25 stats.F.scenarios;
  Alcotest.(check int) "failures" 0 (List.length stats.F.failures);
  Alcotest.(check bool) "several coverage buckets" true
    (List.length stats.F.coverage > 3);
  Alcotest.(check int) "coverage counts sum to scenarios" 25
    (List.fold_left (fun acc (_, n) -> acc + n) 0 stats.F.coverage)

(* ------------------------------------------------------------------ *)
(* Exhaustive Flow matrix                                             *)
(* ------------------------------------------------------------------ *)

let test_flow_matrix () =
  let sc = scenario_with_sinks 42 "matrix" in
  let config = S.config sc in
  let profile = S.profile sc in
  let tech = sc.S.tech in
  let budget =
    tech.Clocktree.Tech.unit_res *. tech.Clocktree.Tech.unit_cap
    *. sc.S.die_side *. sc.S.die_side *. 0.01
  in
  List.iter
    (fun reduction ->
      List.iter
        (fun sizing ->
          List.iter
            (fun skew_budget ->
              let options =
                { Gcr.Flow.skew_budget; reduction; sizing;
                  shards = Gcr.Flow.Flat; gate_share = Gcr.Flow.No_share;
                  eco = Gcr.Flow.No_eco }
              in
              let tree = Gcr.Flow.run ~options config profile sc.S.sinks in
              Gsim.Check.validate tree)
            [ 0.0; budget ])
        [
          Gcr.Flow.No_sizing; Gcr.Flow.Tapered; Gcr.Flow.Uniform 1.5;
          Gcr.Flow.Proportional;
        ])
    [ Gcr.Flow.No_reduction; Gcr.Flow.Optimal; Gcr.Flow.Rules;
      Gcr.Flow.Fraction 0.5 ]

(* ------------------------------------------------------------------ *)
(* Scenario seed-file round-trip                                      *)
(* ------------------------------------------------------------------ *)

let test_scenario_roundtrip () =
  for seed = 0 to 19 do
    let sc = scenario_at seed (Printf.sprintf "roundtrip %d" seed) in
    let text = S.render sc in
    let sc2 = S.parse text in
    Alcotest.(check string) "render fixpoint" text (S.render sc2);
    Alcotest.(check bool) "sinks equal" true (sc2.S.sinks = sc.S.sinks);
    Alcotest.(check bool) "stream equal" true (sc2.S.stream = sc.S.stream);
    Alcotest.(check bool) "options equal" true (sc2.S.options = sc.S.options);
    Alcotest.(check bool) "tech equal" true (sc2.S.tech = sc.S.tech);
    Alcotest.(check (float 0.0)) "die side" sc.S.die_side sc2.S.die_side;
    Alcotest.(check int) "controllers" sc.S.k_controllers sc2.S.k_controllers;
    Alcotest.(check (float 0.0)) "control weight" sc.S.control_weight
      sc2.S.control_weight;
    Alcotest.(check string) "tag" sc.S.tag sc2.S.tag
  done

let test_scenario_reduction_spelling () =
  let sc = scenario_at 3 "spelling" in
  let options = { sc.S.options with Gcr.Flow.reduction = Gcr.Flow.Optimal } in
  let text = S.render { sc with S.options } in
  Alcotest.(check bool) "rendered as optimal" true
    (contains ~affix:"reduction optimal" text);
  let parsed t = (S.parse t).S.options.Gcr.Flow.reduction in
  Alcotest.(check bool) "optimal parses back" true (parsed text = Gcr.Flow.Optimal);
  (* older reproducer files spell the same pass "greedy" *)
  let old =
    String.concat "\n"
      (List.map
         (fun l -> if l = "reduction optimal" then "reduction greedy" else l)
         (String.split_on_char '\n' text))
  in
  Alcotest.(check bool) "greedy parses to optimal" true (parsed old = Gcr.Flow.Optimal)

let test_scenario_parse_errors () =
  let sc = scenario_at 5 "errors" in
  let text = S.render sc in
  let expect_error mangled =
    match S.parse mangled with
    | _ -> Alcotest.fail "expected Parse.Error"
    | exception Formats.Parse.Error _ -> ()
  in
  (* missing header line *)
  expect_error
    (String.concat "\n"
       (List.filter
          (fun l -> not (contains ~affix:"skew-budget" l))
          (String.split_on_char '\n' text)));
  (* unterminated section *)
  expect_error
    (String.concat "\n"
       (List.filter
          (fun l -> l <> "end stream")
          (String.split_on_char '\n' text)))

(* ------------------------------------------------------------------ *)
(* Invariant and oracle unit behavior                                 *)
(* ------------------------------------------------------------------ *)

let all_gated_tree sc =
  let options =
    { sc.S.options with Gcr.Flow.reduction = Gcr.Flow.No_reduction;
      sizing = Gcr.Flow.No_sizing }
  in
  Gcr.Flow.run ~options (S.config sc) (S.profile sc) sc.S.sinks

(* A copy of the tree's embedding with one leaf edge lengthened: the
   Elmore recomputation must see the skew. *)
let tampered_embed (tree : Gcr.Gated_tree.t) =
  let e = Clocktree.Embed.copy tree.Gcr.Gated_tree.embed in
  Clocktree.Mseg.set_edge_len e.Clocktree.Embed.mseg 0
    (Clocktree.Mseg.edge_len e.Clocktree.Embed.mseg 0 +. 40.0);
  e

let test_zero_skew_detects_tamper () =
  let sc = { (scenario_with_sinks 11 "tamper") with S.options =
               { Gcr.Flow.skew_budget = 0.0; reduction = Gcr.Flow.No_reduction;
                 sizing = Gcr.Flow.No_sizing; shards = Gcr.Flow.Flat;
                 gate_share = Gcr.Flow.No_share; eco = Gcr.Flow.No_eco } }
  in
  let tree = all_gated_tree sc in
  Gsim.Invariant.zero_skew tree;
  match Gsim.Invariant.zero_skew ~embed:(tampered_embed tree) tree with
  | () -> Alcotest.fail "tampered embedding accepted"
  | exception Util.Gcr_error.Error err ->
    Alcotest.(check bool) "names the invariant" true
      (contains ~affix:"zero_skew" (Util.Gcr_error.to_string err))

let test_same_tree_detects_kind_flip () =
  let sc = scenario_with_sinks 13 "kinds" in
  let tree = all_gated_tree sc in
  Conformance.Oracles.same_tree ~what:"identity" tree tree;
  let kinds = Gcr.Gated_tree.kinds_copy tree in
  let flip =
    let found = ref (-1) in
    Array.iteri
      (fun v k -> if !found < 0 && k = Gcr.Gated_tree.Gated then found := v)
      kinds;
    !found
  in
  Alcotest.(check bool) "has a gate to flip" true (flip >= 0);
  kinds.(flip) <- Gcr.Gated_tree.Plain;
  let other = Gcr.Gated_tree.rebuild_with_kinds tree kinds in
  match Conformance.Oracles.same_tree ~what:"flip" tree other with
  | () -> Alcotest.fail "kind flip not detected"
  | exception Util.Gcr_error.Error err ->
    Alcotest.(check bool) "names same_tree" true
      (contains ~affix:"same_tree" (Util.Gcr_error.to_string err))

let test_oracles_pass_on_fixed_scenario () =
  let sc = scenario_with_sinks 17 "oracles" in
  let tree = all_gated_tree sc in
  Conformance.Oracles.analytic_vs_simulated tree;
  Conformance.Oracles.signature_vs_tables tree;
  Conformance.Oracles.engine_vs_dense sc;
  Conformance.Oracles.domains_determinism sc

(* ------------------------------------------------------------------ *)
(* Mutation smoke test: injected skew bug -> caught, shrunk, dumped    *)
(* ------------------------------------------------------------------ *)

let buggy_check sc =
  let tree = Gcr.Flow.run ~options:sc.S.options (S.config sc) (S.profile sc) sc.S.sinks in
  Gsim.Invariant.zero_skew ~embed:(tampered_embed tree) tree

let test_mutation_caught_and_shrunk () =
  let out_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcr-fuzz-mutation-%d" (Unix.getpid ()))
  in
  let stats = F.run ~out_dir ~check:buggy_check ~count:10 ~seed:3 () in
  Alcotest.(check bool) "injected bug caught" true (stats.F.failures <> []);
  let f = List.hd stats.F.failures in
  Alcotest.(check bool) "failure names zero_skew" true
    (contains ~affix:"zero_skew" f.F.error);
  (* the bug fires on any zero-budget scenario, so shrinking bottoms out *)
  Alcotest.(check int) "shrunk to the minimal sink count" 2
    (Array.length f.F.shrunk.S.sinks);
  Alcotest.(check bool) "stream shrunk" true
    (Array.length f.F.shrunk.S.stream <= 4);
  Alcotest.(check bool) "options defaulted" true
    (f.F.shrunk.S.options.Gcr.Flow.reduction = Gcr.Flow.No_reduction
     && f.F.shrunk.S.options.Gcr.Flow.sizing = Gcr.Flow.No_sizing
     && f.F.shrunk.S.options.Gcr.Flow.skew_budget = 0.0);
  let path =
    match f.F.seed_file with
    | Some p -> p
    | None -> Alcotest.fail "no reproducer dumped"
  in
  Alcotest.(check bool) "reproducer file exists" true (Sys.file_exists path);
  let loaded = S.load path in
  Alcotest.(check bool) "reproducer still fails" true
    (F.fails buggy_check loaded <> None);
  Alcotest.(check bool) "reproducer passes the real check" true
    (F.fails F.check loaded = None)

let test_minimize_preserves_failure () =
  (* minimize must return a scenario that still fails, for any failing
     check, here one that trips only above a size threshold *)
  let check sc = if Array.length sc.S.sinks > 4 then failwith "too big" in
  let sc = scenario_with_sinks ~min_sinks:20 29 "threshold" in
  let shrunk = F.minimize check sc in
  Alcotest.(check bool) "still fails" true (F.fails check shrunk <> None);
  Alcotest.(check int) "minimal failing size" 5 (Array.length shrunk.S.sinks)

let () =
  Alcotest.run "conformance"
    [
      ( "fuzz",
        [
          Alcotest.test_case "smoke 25 scenarios" `Quick test_fuzz_smoke;
          Alcotest.test_case "mutation caught and shrunk" `Quick
            test_mutation_caught_and_shrunk;
          Alcotest.test_case "minimize preserves failure" `Quick
            test_minimize_preserves_failure;
        ] );
      ( "flow matrix",
        [ Alcotest.test_case "all options x skew combos" `Quick test_flow_matrix ] );
      ( "scenario",
        [
          Alcotest.test_case "seed-file roundtrip" `Quick test_scenario_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_scenario_parse_errors;
          Alcotest.test_case "reduction spelling" `Quick test_scenario_reduction_spelling;
        ] );
      ( "invariants and oracles",
        [
          Alcotest.test_case "zero_skew detects tamper" `Quick
            test_zero_skew_detects_tamper;
          Alcotest.test_case "same_tree detects kind flip" `Quick
            test_same_tree_detects_kind_flip;
          Alcotest.test_case "oracles pass on fixed scenario" `Quick
            test_oracles_pass_on_fixed_scenario;
        ] );
    ]
