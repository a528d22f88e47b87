(* What every workload shares: the command line, statistics, the result
   line, the benchmark's own spans, and timing and allocation counts
   taken from outside the calls they measure. *)

let now = Util.Obs.Clock.now

let pf = Printf.printf

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let usage =
  "usage: perfbench --workload paper-r1-r5|grouped-10k --seed N --seconds S \
   --trace 0|1"

let die_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 64

let parse_args () =
  let workload = ref None and seed = ref 0 and seconds = ref 45.0 in
  let trace = ref false in
  let num conv flag v =
    match conv v with Some x -> x | None -> die_usage ("bad value for " ^ flag)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := num int_of_string_opt "--seed" v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := num float_of_string_opt "--seconds" v;
      go rest
    | "--trace" :: v :: rest ->
      (trace :=
         match v with
         | "0" -> false
         | "1" -> true
         | _ -> die_usage "--trace is 0 or 1");
      go rest
    | arg :: _ -> die_usage ("unexpected argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  let workload =
    match !workload with Some w -> w | None -> die_usage "--workload is required"
  in
  if not (!seconds > 0.0 && Float.is_finite !seconds) then
    die_usage "--seconds must be positive";
  if !seed < 0 then die_usage "--seed must be non-negative";
  { workload; seed = !seed; seconds = !seconds; trace = !trace }

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest of a few fixed percentiles that still has at least ten
   samples beyond it (nearest rank), with its label and the sample
   count; the maximum when there are too few samples for any. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let rec pick = function
    | [] -> if n = 0 then ("none", Float.nan) else ("max", a.(n - 1))
    | p :: rest ->
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      if rank >= 1 && n - rank >= 10 then (Printf.sprintf "p%g" p, a.(rank - 1))
      else pick rest
  in
  let label, v = pick [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ] in
  (label, v, n)

let sum = List.fold_left ( +. ) 0.0

let mean xs = sum xs /. float_of_int (max 1 (List.length xs))

(* ------------------------------------------------------------------ *)
(* Result accounting                                                  *)
(* ------------------------------------------------------------------ *)

let attempted = Atomic.make 0

let failed = Atomic.make 0

let attempt () = Atomic.incr attempted

let exn_message = function
  | Util.Gcr_error.Error e -> Util.Gcr_error.to_string e
  | e -> Printexc.to_string e

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Atomic.incr failed;
      prerr_endline ("perfbench: FAILED " ^ msg))
    fmt

(* One operation — a Flow call or a request: counted, and a raise is a
   failed operation rather than an abort. *)
let op what f =
  attempt ();
  match f () with
  | v -> Some v
  | exception e ->
    fail "%s raised %s" what (exn_message e);
    None

let metrics : (string * float * string) list ref = ref []

let put name unit_ v = metrics := (name, v, unit_) :: !metrics

let puti name unit_ v = put name unit_ (float_of_int v)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The human-readable lines, then the result object as the last line.
   A run with a failed check exits 1 after printing it. *)
let print_result args =
  let ms = List.rev !metrics in
  List.iter
    (fun (name, v, unit_) ->
      if not (Float.is_finite v) then fail "metric %s is not a finite number" name;
      pf "%-32s %s %s\n" name (json_number v) unit_)
    ms;
  let failed = Atomic.get failed and attempted = Atomic.get attempted in
  let correct = failed = 0 in
  pf "workload %s, seed %d, trace %d: %d attempted, %d failed, %s\n" args.workload
    args.seed
    (if args.trace then 1 else 0)
    attempted failed
    (if correct then "correct" else "NOT CORRECT");
  let field (name, v, unit_) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (json_number (if Float.is_finite v then v else 0.0))
      unit_
  in
  pf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 attempted) failed
    (String.concat ", " (List.map field ms));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans                                          *)
(* ------------------------------------------------------------------ *)

(* Spans around each layer call of the traced run, kept in memory and
   written when the run ends: name, start, end, parent span and design
   or request id. Client threads record concurrently, hence the lock. *)
module Spans = struct
  type t = {
    id : int;
    name : string;
    parent : int;
    req : int;
    start : float;
    stop : float;
  }

  let on = ref false

  let lock = Mutex.create ()

  let recorded = ref []

  let next_id = ref 0

  (* [f] receives the new span's id, to pass on as its children's
     parent; -1 everywhere while spans are off. *)
  let with_ ~name ?(parent = -1) ?(req = -1) f =
    if not !on then f (-1)
    else begin
      let id =
        Mutex.protect lock (fun () ->
            incr next_id;
            !next_id)
      in
      let start = now () in
      Fun.protect
        ~finally:(fun () ->
          let stop = now () in
          Mutex.protect lock (fun () ->
              recorded := { id; name; parent; req; start; stop } :: !recorded))
        (fun () -> f id)
    end

  (* Per span name: count, total and self time, where a span's self time
     is its duration minus the part of it that its children cover. *)
  let summary () =
    let spans = !recorded in
    let children = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.add children s.parent s) spans;
    let covered s =
      (* children of one parent may overlap (concurrent clients): merge
         their intervals before subtracting *)
      let ivs =
        List.sort compare
          (List.map (fun c -> (c.start, c.stop)) (Hashtbl.find_all children s.id))
      in
      let rec go acc cur = function
        | [] -> (match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
        | (a, b) :: rest -> (
          match cur with
          | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
          | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest
          | None -> go acc (Some (a, b)) rest)
      in
      go 0.0 None ivs
    in
    let by_name = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let d = s.stop -. s.start in
        let n, tot, self =
          Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
        in
        Hashtbl.replace by_name s.name (n + 1, tot +. d, self +. (d -. covered s)))
      spans;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

  let write path =
    let spans = List.sort (fun a b -> compare a.id b.id) !recorded in
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %d, \"start_s\": \
           %.9f, \"end_s\": %.9f}\n"
          s.id s.name s.parent s.req s.start s.stop)
      spans;
    close_out oc;
    pf "spans: %d written to %s\n" (List.length spans) path;
    pf "%-28s %6s %12s %12s\n" "span" "count" "total_s" "self_s";
    List.iter
      (fun (name, (n, tot, self)) -> pf "%-28s %6d %12.6f %12.6f\n" name n tot self)
      (summary ())
end

(* ------------------------------------------------------------------ *)
(* Timing and allocation                                              *)
(* ------------------------------------------------------------------ *)

(* Words allocated so far on every domain: minor-heap words plus direct
   major-heap allocations, i.e. major words that were not promoted. The
   minor collection first makes [Gc.quick_stat] current: it reports each
   domain's figures as of its last minor collection, and the domains
   that [Util.Parallel] spawns fold theirs in when they exit. The calling
   domain alone ([Gc.counters]) misses the work other domains did. *)
let alloc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Result, wall seconds and words allocated on every domain by [f]. *)
let measure f =
  let w0 = alloc_words () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  (v, t1 -. t0, alloc_words () -. w0)

let time f =
  let t0 = now () in
  ignore (f ());
  now () -. t0

(* The median of [reps] timed calls, each recorded as a span. *)
let layer_time ~name ?parent ?req ~reps f =
  median (List.init reps (fun _ -> Spans.with_ ~name ?parent ?req (fun _ -> time f)))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let digest tree = Serve.Digest.to_hex (Serve.Digest.tree tree)

(* ------------------------------------------------------------------ *)
(* Output checks                                                      *)
(* ------------------------------------------------------------------ *)

(* An output against its reference: the tree digest and W must be
   bit-identical. [None] when they agree, else what differs. *)
let compare_output ~expect:(d0, w0) ~got:(d, w) =
  if not (String.equal d0 d) then Some (Printf.sprintf "digest %s, expected %s" d d0)
  else if not (Float.equal w0 w) then
    Some (Printf.sprintf "W %.17g, expected %.17g" w w0)
  else None

let flip_digest d =
  String.mapi (fun i c -> if i = 0 then if c = '0' then '1' else '0' else c) d

let perturb_w w = Float.succ w

(* Trees of at most this many sinks are also cycle-simulated. *)
let gsim_max_sinks = 1000

(* Structural checks on every tree, and the independent cycle simulator
   on trees of at most [gsim_max_sinks] sinks. [None] when they pass. *)
let check_tree tree =
  match Gcr.Verify.structural tree with
  | exception e -> Some ("Verify.structural: " ^ exn_message e)
  | () ->
    if Array.length tree.Gcr.Gated_tree.sinks > gsim_max_sinks then None
    else (
      match Gsim.Check.validate ~structural:false tree with
      | () -> None
      | exception e -> Some ("Gsim.Check.validate: " ^ exn_message e))

(* Breaks a tree in place: the first sink's edge grows by a twentieth of
   the die, so its delay no longer matches the other sinks'. *)
let corrupt_tree (tree : Gcr.Gated_tree.t) =
  let mseg = tree.Gcr.Gated_tree.embed.Clocktree.Embed.mseg in
  let die = tree.Gcr.Gated_tree.config.Gcr.Config.die in
  let side = Geometry.Bbox.width die in
  Clocktree.Mseg.set_edge_len mseg 0 (Clocktree.Mseg.edge_len mseg 0 +. (0.05 *. side))

(* The checks run on known-bad outputs: a flipped digest, a perturbed W
   and a corrupted tree must each be reported. A check that lets one
   through fails the run. [tree] is consumed (corrupted in place). *)
let self_test ~expect ~tree =
  let d, w = expect in
  let missed =
    List.filter_map
      (fun (what, detected) -> if detected then None else Some what)
      [
        ("a flipped digest", compare_output ~expect ~got:(flip_digest d, w) <> None);
        ("a perturbed W", compare_output ~expect ~got:(d, perturb_w w) <> None);
        ( "a corrupted tree",
          (corrupt_tree tree;
           check_tree tree <> None) );
      ]
  in
  if missed = [] then pf "self-test: flipped digest, perturbed W and corrupted tree detected\n"
  else List.iter (fail "self-test: %s was not detected") missed
