(* The workloads: Flow.run over a fixed list of designs, in rounds that
   visit every design once, so that slow stretches of the host spread
   over all designs alike. *)

open Common

type workload = {
  designs : Designs.design list;
  min_rounds : int;  (** timed rounds made however long they take *)
}

(* One design's set-up: its three texts parsed and its profile built,
   from a collected heap so that earlier calls do not weigh on it. *)
let set_up design texts =
  Gc.full_major ();
  let t0 = now () in
  let input = Designs.set_up design texts in
  (input, now () -. t0)

(* The daemon's layers on the workload's smallest design, for the
   traced run: a cold route, a warm route and an update, each checked
   against a one-shot run. *)
let serve_probe (it : Layers.item) =
  let s =
    {
      Served.idx = 0;
      text = Conformance.Scenario.render it.Layers.input.Designs.parsed;
      input = it.Layers.input;
      chunk = it.Layers.design.Designs.chunk;
    }
  in
  let daemon = Served.start_daemon () in
  let results =
    Served.with_client daemon (fun c ->
        List.map
          (fun (id, update) ->
            attempt ();
            Spans.with_
              ~name:(if update then "serve.update" else "serve.route")
              ~req:id
              (fun _ -> Served.exchange c ~id ~update s))
          [ (1, false); (2, false); (3, true) ])
  in
  Served.stop_daemon daemon;
  let answers = List.filter_map (fun r -> Option.map (fun a -> (r, a)) (Served.answer r)) results in
  let known = [ ((0, 0), Ok (digest it.Layers.tree, Gcr.Cost.w_total it.Layers.tree)) ] in
  let refs = Served.references ~known [| s |] answers in
  Served.check_responses ~updates_to:[| 1 |] refs results;
  Served.serve_layers results

let run args w =
  let designs = Array.of_list w.designs in
  let texts = Array.map Designs.texts designs in
  let n = Array.length designs in
  pf "designs: %s\n%!"
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun d -> Printf.sprintf "%s (%d sinks)" (Designs.name d) (Designs.n_sinks d))
             designs)));
  (* Set-up is sampled per design, right before each of its calls (and
     twice more around the run): on this host a set-up ran at one speed
     or at 1.5 times it by stretches of a few seconds, so samples must
     be spread over the whole run. [setup_s] sums the designs' medians. *)
  let setups = Array.make n [] in
  let sample d =
    let input, dt = set_up designs.(d) texts.(d) in
    setups.(d) <- dt :: setups.(d);
    input
  in
  (* Only the first set-up's inputs are kept. *)
  let inputs = Array.init n sample in
  let sample_all () = Array.iteri (fun d _ -> ignore (sample d)) designs in
  sample_all ();
  (* Warm-up round, untimed: its trees are the references every later
     call must reproduce, and they are the ones fully checked. *)
  let warm =
    Array.map
      (fun i -> op ("Flow.run on " ^ i.Designs.label) (fun () -> Designs.run_flow i))
      inputs
  in
  let refs = Array.map (Option.map (fun t -> (digest t, Gcr.Cost.w_total t))) warm in
  Array.iteri
    (fun d t ->
      match t with
      | None -> ()
      | Some t -> (
        match check_tree t with
        | None -> ()
        | Some what -> fail "%s: %s" inputs.(d).Designs.label what))
    warm;
  if not args.trace then begin
    (* Timed rounds: per design, a set-up sample, then one Flow.run.
       Rounds run while the next one, as long as the quickest so far,
       still ends within the run's seconds, and at least [min_rounds]. *)
    let call k d =
      ignore (sample d);
      let i = inputs.(d) in
      match op ("Flow.run on " ^ i.Designs.label) (fun () -> measure (fun () -> Designs.run_flow i)) with
      | None -> None
      | Some (t, dt, words) ->
        (match refs.(d) with
        | None -> ()
        | Some expect -> (
          match compare_output ~expect ~got:(digest t, Gcr.Cost.w_total t) with
          | None -> ()
          | Some what -> fail "round %d, %s: %s" k i.Designs.label what));
        Some (dt, words)
    in
    let t0 = now () in
    let peak = ref None in
    let rec rounds k acc quickest =
      if k >= w.min_rounds && now () -. t0 +. quickest > args.seconds then List.rev acc
      else begin
        let r0 = now () in
        let calls = Array.init n (call k) in
        let took = now () -. r0 in
        (* The peak heap after set-up, warm-up and one timed round,
           however many rounds the run then makes. *)
        if !peak = None then peak := Some (peak_heap_mb ());
        pf "round %d:%s (%.3f s)\n%!" k
          (String.concat ""
             (Array.to_list
                (Array.map (function Some (dt, _) -> Printf.sprintf " %.3f" dt | None -> " -") calls)))
          took;
        rounds (k + 1) (calls :: acc) (Float.min quickest took)
      end
    in
    let all = rounds 0 [] Float.infinity in
    sample_all ();
    Array.iteri
      (fun d xs ->
        pf "set-ups, %s: %s s\n" inputs.(d).Designs.label
          (String.concat " " (List.rev_map (Printf.sprintf "%.4f") xs)))
      setups;
    put "setup_s" "s" (sum (Array.to_list (Array.map median setups)));
    (* Each design's median call, summed: printed, not gated, because
       on the host the bounds were set on it drifted by more than any
       bound allows within ten runs (README.md). *)
    pf "flow_s (not gated) %.4f s\n"
      (sum
         (List.init n (fun d ->
              median (List.filter_map (fun calls -> Option.map fst calls.(d)) all))));
    put "flow_alloc_mw" "Mw"
      (sum (Array.to_list (Array.map (function Some (_, words) -> words | None -> 0.0) (List.hd all)))
      /. 1e6);
    put "peak_heap_mb" "MB" (Option.value ~default:Float.nan !peak);
    put "w_total_pf" "pF"
      (sum (Array.to_list (Array.map (function Some (_, w) -> w /. 1000.0 | None -> Float.nan) refs)))
  end
  else begin
    let items =
      List.filter_map
        (fun d ->
          Option.map
            (fun tree -> { Layers.design = designs.(d); texts = texts.(d); input = inputs.(d); tree })
            warm.(d))
        (List.init n Fun.id)
    in
    Spans.on := true;
    Layers.input_layers items;
    Layers.flow_layers ~budget:args.seconds items;
    serve_probe (List.hd items)
  end;
  (* The checks on known-bad outputs, on the smallest design's tree. *)
  match (refs.(0), warm.(0)) with
  | Some expect, Some tree -> self_test ~expect ~tree
  | _ -> fail "self-test: no warm-up tree"
