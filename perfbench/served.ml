(* An in-process daemon ([Serve.Server.run] on a loopback TCP port)
   reached through [Serve.Client], and the checks of its answers against
   one-shot [Flow.run_checked_info] runs. *)

open Common

type daemon = {
  address : Serve.Server.address;
  stop : bool Atomic.t;
  thread : Thread.t;
  stats : Serve.Server.stats option ref;
}

let start_daemon () =
  let cfg =
    {
      (Serve.Server.default_config (Serve.Server.Tcp ("127.0.0.1", 0))) with
      Serve.Server.workers = 2;
      queue_cap = 64;
    }
  in
  let stop = Atomic.make false in
  let ready = Atomic.make None and broken = Atomic.make None in
  let stats = ref None in
  let thread =
    Thread.create
      (fun () ->
        match
          Serve.Server.run
            ~stop:(fun () -> Atomic.get stop)
            ~on_ready:(fun a -> Atomic.set ready (Some a))
            cfg
        with
        | s -> stats := Some s
        | exception e -> Atomic.set broken (Some (Printexc.to_string e)))
      ()
  in
  let deadline = now () +. 30.0 in
  let rec wait () =
    match (Atomic.get ready, Atomic.get broken) with
    | Some (Unix.ADDR_INET (_, port)), _ -> Serve.Server.Tcp ("127.0.0.1", port)
    | Some _, _ -> failwith "daemon bound a non-TCP address"
    | None, Some msg -> failwith ("daemon failed to start: " ^ msg)
    | None, None ->
      if now () > deadline then failwith "daemon not ready after 30 s";
      Thread.delay 0.001;
      wait ()
  in
  { address = wait (); stop; thread; stats }

(* Drain the daemon and check that it drained cleanly, with no
   backstop errors. *)
let stop_daemon d =
  Atomic.set d.stop true;
  Thread.join d.thread;
  match !(d.stats) with
  | Some s ->
    if s.Serve.Server.backstop_errors <> 0 then
      fail "daemon reported %d backstop errors" s.Serve.Server.backstop_errors;
    if not s.Serve.Server.drained_clean then fail "daemon did not drain cleanly"
  | None -> fail "daemon returned no stats"

let with_client d f =
  let c = Serve.Client.connect d.address in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

(* A scenario as the daemon receives it, with its set-up input. *)
type scen = {
  idx : int;
  text : string;  (** the rendered scenario: the request payload *)
  input : Designs.input;
  chunk : int array;  (** what every update of this scenario carries *)
}

type served = {
  id : int;
  sc : int;
  update : bool;
  latency_ms : float;  (** send to answer, as the client sees it *)
  response : (Serve.Proto.response, string) result;
}

let request ~id ~update s =
  {
    Serve.Proto.id;
    scenario = s.text;
    budget_ms = None;
    paranoid = false;
    kind = (if update then Serve.Proto.Update { chunk = s.chunk } else Serve.Proto.Route);
  }

let exchange client ~id ~update s =
  let s0 = now () in
  let response =
    match
      Serve.Client.send client (request ~id ~update s);
      Serve.Client.recv ~timeout_s:120.0 client
    with
    | Ok (Some r) -> Ok r
    | Ok None -> Error "daemon closed the connection"
    | Error e -> Error e
    | exception e -> Error (exn_message e)
  in
  { id; sc = s.idx; update; latency_ms = (now () -. s0) *. 1000.0; response }

let answer r =
  match r.response with Ok (Serve.Proto.Answer a) -> Some a | _ -> None

(* ------------------------------------------------------------------ *)
(* One-shot references                                                *)
(* ------------------------------------------------------------------ *)

(* The (digest, W) a one-shot run gives per (scenario, epoch), computed
   for every pair some answer reports. [known] supplies pairs already
   computed. *)
let references ?(known = []) scens answers =
  let refs = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace refs k v) known;
  let wanted =
    List.sort_uniq compare
      (List.filter_map
         (fun (r, (a : Serve.Proto.answer)) ->
           let e = a.Serve.Proto.epoch in
           if Hashtbl.mem refs (r.sc, e) || e < 0 then None else Some (r.sc, e))
         answers)
  in
  List.iter
    (fun ((sc, epoch) as k) ->
      attempt ();
      let s = scens.(sc) in
      let v =
        match Designs.one_shot (Designs.at_epoch s.input s.chunk epoch) with
        | t -> Ok (digest t, Gcr.Cost.w_total t)
        | exception e ->
          let e = exn_message e in
          fail "one-shot reference for scenario %d epoch %d raised %s" sc epoch e;
          Error e
      in
      Hashtbl.replace refs k v)
    wanted;
  refs

(* Every response: an answer with its id, an epoch no later than the
   updates sent to its scenario, and the reference digest and W at that
   epoch. Rejects and errors are failures. *)
let check_responses ~updates_to refs results =
  List.iter
    (fun r ->
      match r.response with
      | Error e -> fail "request %d: %s" r.id e
      | Ok (Serve.Proto.Reject j) -> fail "request %d rejected: %s" r.id j.Serve.Proto.message
      | Ok (Serve.Proto.Answer a) -> (
        let epoch = a.Serve.Proto.epoch in
        let got = (a.Serve.Proto.digest, a.Serve.Proto.w_total) in
        if a.Serve.Proto.id <> r.id then fail "request %d answered as %d" r.id a.Serve.Proto.id
        else if epoch < 0 || epoch > updates_to.(r.sc) then
          fail "request %d: epoch %d after %d updates" r.id epoch updates_to.(r.sc)
        else
          match Hashtbl.find_opt refs (r.sc, epoch) with
          | None | Some (Error _) ->
            fail "request %d: no one-shot reference for scenario %d epoch %d" r.id r.sc epoch
          | Some (Ok expect) -> (
            match compare_output ~expect ~got with
            | None -> ()
            | Some what ->
              fail "request %d (scenario %d, epoch %d): %s" r.id r.sc epoch what)))
    results

(* The serve layers' numbers over a set of answered requests, for the
   traced run. Queue wait is what the client saw beyond the daemon's own
   service time: framing, the socket and the admission queue. *)
let serve_layers results =
  let answers = List.filter_map (fun r -> Option.map (fun a -> (r, a)) (answer r)) results in
  let service = List.map (fun (_, a) -> a.Serve.Proto.elapsed_ms) answers in
  let waits = List.map (fun (r, a) -> r.latency_ms -. a.Serve.Proto.elapsed_ms) answers in
  put "serve.queue_wait_p50_ms" "ms" (median waits);
  let label, wait_tail, n = tail waits in
  pf "serve.queue_wait_tail_ms is the %s of %d answers\n" label n;
  put "serve.queue_wait_tail_ms" "ms" wait_tail;
  put "serve.service_ms" "ms" (median service);
  let hits, total =
    List.fold_left
      (fun (h, t) (_, a) ->
        (h + a.Serve.Proto.audit_hits, t + a.Serve.Proto.audit_hits + a.Serve.Proto.audit_misses))
      (0, 0) answers
  in
  put "serve.audit_hit_rate" "ratio"
    (if total = 0 then 0.0 else float_of_int hits /. float_of_int total);
  puti "serve.cold_answers" "count"
    (List.length (List.filter (fun (_, a) -> not a.Serve.Proto.cache_warm) answers));
  puti "serve.rejects" "count"
    (List.length
       (List.filter
          (fun r -> match r.response with Ok (Serve.Proto.Reject _) -> true | _ -> false)
          results));
  puti "serve.degraded" "count"
    (List.length
       (List.filter
          (fun (_, a) -> a.Serve.Proto.degraded <> [])
          answers))
