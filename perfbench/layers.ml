(* The traced run's per-layer numbers, each timed from outside around
   the layer's public call and recorded as a span. *)

open Common

(* A design as the traced run sees it: its generated inputs, its set-up
   input and the warm-up tree every later tree must reproduce. *)
type item = {
  design : Designs.design;
  texts : Designs.texts;
  input : Designs.input;
  tree : Gcr.Gated_tree.t;
}

let ms s = 1000.0 *. s

let sum_items items f = sum (List.mapi f items)

let mean_items items f = mean (List.mapi f items)

(* Set-up and request-path layers: text formats, profile build, trace
   update, scenario parse, protocol codec and the daemon's audit. *)
let input_layers items =
  let reps = 3 in
  put "formats.parse_s" "s"
    (sum_items items (fun req it ->
         layer_time ~name:"formats.parse" ~req ~reps (fun () -> Designs.parse_texts it.texts)));
  put "activity.profile_s" "s"
    (sum_items items (fun req it ->
         let stream = Activity.Profile.stream it.input.Designs.profile in
         layer_time ~name:"activity.profile" ~req ~reps (fun () ->
             Activity.Profile.of_stream stream)));
  put "activity.stream_update_ms" "ms"
    (ms
       (mean_items items (fun req it ->
            median
              (List.init reps (fun _ ->
                   let acc = Designs.accumulator it.input in
                   Spans.with_ ~name:"activity.stream_update" ~req (fun _ ->
                       time (fun () -> Designs.update acc it.design.Designs.chunk)))))));
  let scenario_text it = Conformance.Scenario.render it.input.Designs.parsed in
  put "conformance.scenario_parse_ms" "ms"
    (ms
       (mean_items items (fun req it ->
            let text = scenario_text it in
            layer_time ~name:"conformance.scenario_parse" ~req ~reps (fun () ->
                Conformance.Scenario.parse text))));
  (* Both codecs of a request carrying the design and of its answer. *)
  put "serve.proto_ms" "ms"
    (ms
       (mean_items items (fun req it ->
            let request =
              {
                Serve.Proto.id = req;
                scenario = scenario_text it;
                budget_ms = None;
                paranoid = false;
                kind = Serve.Proto.Update { chunk = it.design.Designs.chunk };
              }
            in
            let answer =
              Serve.Proto.Answer
                {
                  Serve.Proto.id = req;
                  rung = "route";
                  degraded = [];
                  digest = digest it.tree;
                  w_total = Gcr.Cost.w_total it.tree;
                  gates = Gcr.Gated_tree.gate_count it.tree;
                  buffers = Gcr.Gated_tree.buffer_count it.tree;
                  wirelen = Clocktree.Embed.total_wirelength it.tree.Gcr.Gated_tree.embed;
                  audit_hits = 0;
                  audit_misses = 0;
                  cache_warm = true;
                  epoch = 0;
                  elapsed_ms = 0.0;
                }
            in
            layer_time ~name:"serve.proto" ~req ~reps (fun () ->
                (match Serve.Proto.request_of_json (Serve.Proto.request_to_json request) with
                | Ok _ -> ()
                | Error (m, _) -> fail "request codec: %s" m);
                match Serve.Proto.response_of_json (Serve.Proto.response_to_json answer) with
                | Ok _ -> ()
                | Error (m, _) -> fail "response codec: %s" m))));
  (* The daemon's post-route audit of the warm-up tree, on a cache of
     our own, once filled: what a warm request pays. *)
  put "serve.audit_ms" "ms"
    (ms
       (mean_items items (fun req it ->
            let cache = Serve.Cache.create ~slots:1 () in
            let key, _, epoch, _ = Serve.Cache.profile cache it.input.Designs.parsed in
            match Serve.Cache.pcache cache ~key ~slot:0 ~epoch with
            | `Stale _ ->
              fail "audit: a fresh cache reports a stale epoch";
              0.0
            | `Pcache pc ->
              ignore (Serve.Cache.audit pc it.tree);
              layer_time ~name:"serve.audit" ~req ~reps (fun () -> Serve.Cache.audit pc it.tree))))

(* ------------------------------------------------------------------ *)
(* Flow.run, stage by stage                                           *)
(* ------------------------------------------------------------------ *)

let c_merge_steps = Util.Obs.counter "greedy.merge_steps"

let c_heap_pops = Util.Obs.counter "greedy.heap_pops"

let c_stale = Util.Obs.counter "greedy.stale_discards"

let c_sig_queries = Util.Obs.counter "signature.queries"

type stage = { s : float; w : float }

type staged = {
  merge : stage;
  build : stage;
  reduce : stage;
  share : stage;
  size : stage;
  gates_routed : int;
  gates_kept : int;
}

(* Flow.run's stages called one by one: merge (the flat router's or the
   sharded router's topology), build (enables, embedding, gates), then
   reduce, share and size. The composed tree is what Flow.run returns. *)
let staged_run ~parent ~req (i : Designs.input) =
  let o = i.Designs.parsed.Conformance.Scenario.options in
  let sinks = i.Designs.parsed.Conformance.Scenario.sinks in
  let stage name f =
    Spans.with_ ~name ~parent ~req (fun _ ->
        let v, s, w = measure f in
        (v, { s; w }))
  in
  let topo, merge =
    stage "clocktree.merge" (fun () ->
        match o.Gcr.Flow.shards with
        | Gcr.Flow.Flat -> Gcr.Router.route_topology_only i.Designs.config i.Designs.profile sinks
        | Gcr.Flow.Auto_shards ->
          Gcr.Shard_router.route_topology i.Designs.config i.Designs.profile sinks
        | Gcr.Flow.Shards shards ->
          Gcr.Shard_router.route_topology ~shards i.Designs.config i.Designs.profile sinks)
  in
  let skew_budget = if o.Gcr.Flow.skew_budget > 0.0 then Some o.Gcr.Flow.skew_budget else None in
  let routed, build =
    stage "gcr.build" (fun () ->
        Gcr.Gated_tree.build ?skew_budget i.Designs.config i.Designs.profile sinks topo
          ~kind:(fun _ -> Gcr.Gated_tree.Gated))
  in
  let reduced, reduce = stage "gcr.reduce" (fun () -> Gcr.Flow.apply_reduction o routed) in
  let shared, share = stage "gcr.share" (fun () -> Gcr.Flow.apply_share o reduced) in
  let sized, size = stage "gcr.size" (fun () -> Gcr.Flow.apply_sizing o shared) in
  ( sized,
    {
      merge;
      build;
      reduce;
      share;
      size;
      gates_routed = Gcr.Gated_tree.gate_count routed;
      gates_kept = Gcr.Gated_tree.gate_count sized;
    } )

(* Untraced Flow.run passes and traced staged passes over the items, by
   turns, for at least one pair and then while another pair as quick as
   the quickest so far fits in [budget] seconds. Counters and
   allocation come from the first traced pass, where they repeat
   exactly; stage times are medians over traced passes, and
   [gcr.flow_s] sums each design's median untraced Flow.run. The median
   traced pass over the median untraced one is the tracing overhead. *)
let flow_layers ~budget items =
  let same what it t =
    attempt ();
    if not (String.equal (digest t) (digest it.tree)) then
      fail "%s: %s tree differs from the warm-up tree" it.input.Designs.label what
  in
  let untraced () =
    Spans.on := false;
    let runs = List.map (fun it -> measure (fun () -> Designs.run_flow it.input)) items in
    Spans.on := true;
    List.iter2 (fun it (t, _, _) -> same "Flow.run" it t) items runs;
    List.map (fun (_, dt, _) -> dt) runs
  in
  let traced k =
    Util.Obs.reset ();
    Util.Obs.set_enabled true;
    let t0 = now () in
    let out =
      Spans.with_ ~name:"flow.pass" ~req:k (fun parent ->
          List.mapi
            (fun req it ->
              Spans.with_ ~name:"flow.run" ~parent ~req (fun parent ->
                  staged_run ~parent ~req it.input))
            items)
    in
    let dt = now () -. t0 in
    Util.Obs.set_enabled false;
    List.iter2 (fun it (t, _) -> same "staged" it t) items out;
    (out, dt)
  in
  let t0 = now () in
  let u0 = untraced () in
  let first, d0 = traced 0 in
  let merges = Util.Obs.value c_merge_steps and pops = Util.Obs.value c_heap_pops in
  let stale = Util.Obs.value c_stale and queries = Util.Obs.value c_sig_queries in
  let rec more k us ts quickest =
    if now () -. t0 +. quickest > budget then (us, ts)
    else
      let u = untraced () in
      let ((_, d) as t) = traced k in
      more (k + 1) (u :: us) (t :: ts) (Float.min quickest (sum u +. d))
  in
  let us, ts = more 1 [ u0 ] [ (first, d0) ] (sum u0 +. d0) in
  pf "flow layers: %d untraced and %d traced passes\n" (List.length us) (List.length ts);
  let per_design f =
    sum
      (List.mapi
         (fun i _ -> median (List.map (fun (out, _) -> f (snd (List.nth out i))) ts))
         items)
  in
  let of_first f = sum (List.map (fun (_, st) -> f st) first) in
  put "clocktree.merge_s" "s" (per_design (fun st -> st.merge.s));
  put "clocktree.merge_alloc_mw" "Mw" (of_first (fun st -> st.merge.w) /. 1e6);
  puti "clocktree.merge_steps" "count" merges;
  puti "clocktree.heap_pops" "count" pops;
  puti "clocktree.stale_discards" "count" stale;
  put "clocktree.useful_pop_ratio" "ratio"
    (if pops = 0 then 0.0 else float_of_int (pops - stale) /. float_of_int pops);
  puti "activity.signature_queries" "count" queries;
  put "gcr.build_s" "s" (per_design (fun st -> st.build.s));
  put "gcr.enables_s" "s"
    (sum_items items (fun req it ->
         layer_time ~name:"gcr.enables" ~req ~reps:3 (fun () ->
             Gcr.Enable.compute_all it.input.Designs.profile it.tree.Gcr.Gated_tree.topo
               it.input.Designs.parsed.Conformance.Scenario.sinks)));
  put "gcr.reduce_s" "s" (per_design (fun st -> st.reduce.s));
  put "gcr.reduce_alloc_mw" "Mw" (of_first (fun st -> st.reduce.w) /. 1e6);
  puti "gcr.gates_routed" "count"
    (int_of_float (of_first (fun st -> float_of_int st.gates_routed)));
  puti "gcr.gates_kept" "count" (int_of_float (of_first (fun st -> float_of_int st.gates_kept)));
  put "gcr.share_s" "s" (per_design (fun st -> st.share.s));
  put "gcr.size_s" "s" (per_design (fun st -> st.size.s));
  put "gcr.flow_s" "s"
    (sum (List.mapi (fun i _ -> median (List.map (fun u -> List.nth u i) us)) items));
  put "trace.overhead_ratio" "ratio" (median (List.map snd ts) /. median (List.map sum us))
