(* The workloads' inputs, made from the seed, and their set-up.

   Every design is a [Conformance.Scenario.t] — sinks, RTL, instruction
   stream, controller and Flow options — because that is also the form
   the daemon takes. Its configuration (central controller, weight 1,
   default technology) is exactly the one [Benchmarks.Suite] uses, so
   seed 0 routes the published suite. The program only ever sees the
   rendered texts: set-up parses them back and builds the profile. *)

type design = {
  sc : Conformance.Scenario.t;
  chunk : int array;
      (** a drifted trace chunk: the same RTL under a shifted
          instruction mix, what an update ingests *)
}

(* The seed perturbs the published placement: every sink moves by a
   seeded offset of up to half the 400 um sink pitch of [Rbench] in x
   and in y, clamped to the die. Seed 0 keeps the placement. Coordinates
   are whole micrometres either way, which the sink format renders
   exactly. Sizes, module clusters, RTL and streams never change with
   the seed, so a run's work and W stay comparable across seeds. *)
let place seed (spec : Benchmarks.Rbench.spec) sinks =
  let side = Float.floor spec.Benchmarks.Rbench.die_side in
  let prng = Util.Prng.create (spec.Benchmarks.Rbench.seed + (7919 * seed)) in
  let coord x =
    let x = if seed = 0 then x else x +. Util.Prng.range prng (-200.0) 200.0 in
    Float.min side (Float.max 0.0 (Float.round x))
  in
  Array.map
    (fun (s : Clocktree.Sink.t) ->
      let p = s.Clocktree.Sink.loc in
      let x = coord p.Geometry.Point.x in
      let y = coord p.Geometry.Point.y in
      Clocktree.Sink.make ~id:s.Clocktree.Sink.id ~cap:s.Clocktree.Sink.cap
        ~module_id:s.Clocktree.Sink.module_id ~loc:(Geometry.Point.make x y))
    sinks

let drifted_chunk ~seed rtl =
  let w = Activity.Cpu_model.zipf_weights rtl ~s:1.1 in
  let k = Array.length w in
  let model =
    Activity.Cpu_model.make ~locality:0.7
      ~weights:(Array.init k (fun i -> w.((i + (k / 2)) mod k)))
      rtl
  in
  let s = Activity.Cpu_model.generate model (Util.Prng.create seed) 1_000 in
  Array.init (Activity.Instr_stream.length s) (Activity.Instr_stream.get s)

let of_case ~seed ~options (c : Benchmarks.Suite.case) =
  let spec = c.Benchmarks.Suite.spec in
  let profile = c.Benchmarks.Suite.profile in
  let rtl = Activity.Profile.rtl profile in
  let stream = Activity.Profile.stream profile in
  {
    sc =
      {
        Conformance.Scenario.tag = Printf.sprintf "%s seed %d" c.Benchmarks.Suite.name seed;
        die_side = spec.Benchmarks.Rbench.die_side;
        k_controllers = 1;
        control_weight = 1.0;
        tech = Clocktree.Tech.default;
        sinks = place seed spec c.Benchmarks.Suite.sinks;
        rtl;
        stream =
          Array.init (Activity.Instr_stream.length stream)
            (Activity.Instr_stream.get stream);
        options;
        test_en = false;
      };
    chunk = drifted_chunk ~seed:((spec.Benchmarks.Rbench.seed * 104_729) + seed) rtl;
  }

let name d = d.sc.Conformance.Scenario.tag

let n_sinks d = Array.length d.sc.Conformance.Scenario.sinks

(* The paper's evaluation: Flow.default (flat Eq. (3) router, greedy
   reduction) on r1..r5 at the published sizes, one module per sink. *)
let paper ~seed =
  List.map
    (fun n ->
      of_case ~seed ~options:Gcr.Flow.default
        (Benchmarks.Suite.case (Benchmarks.Rbench.by_name n)))
    [ "r1"; "r2"; "r3"; "r4"; "r5" ]

(* The large-design flow: 10^4 sinks over 16 module groups (r5 scaled),
   sharded, with rule-based reduction, free gate sharing and tapered
   sizing. *)
let grouped_options =
  {
    Gcr.Flow.default with
    Gcr.Flow.shards = Gcr.Flow.Auto_shards;
    reduction = Gcr.Flow.Rules;
    gate_share = Gcr.Flow.Share { min_instances = 1; eps = 0 };
    sizing = Gcr.Flow.Tapered;
  }

let grouped ~seed =
  let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r5") ~n_sinks:10_000 in
  [ of_case ~seed ~options:grouped_options (Benchmarks.Suite.case_grouped spec) ]

(* ------------------------------------------------------------------ *)
(* Texts and set-up                                                   *)
(* ------------------------------------------------------------------ *)

(* A design as the program receives it in a batch flow: three files. *)
type texts = { sinks_text : string; rtl_text : string; stream_text : string }

let texts d =
  let sc = d.sc in
  {
    sinks_text = Formats.Sinks_format.render sc.Conformance.Scenario.sinks;
    rtl_text = Formats.Rtl_format.render sc.Conformance.Scenario.rtl;
    stream_text = Formats.Stream_format.render (Conformance.Scenario.instr_stream sc);
  }

(* A design ready to route: what set-up produces. *)
type input = {
  label : string;
  parsed : Conformance.Scenario.t;  (** the design as parsed back *)
  config : Gcr.Config.t;
  profile : Activity.Profile.t;
}

let input_of parsed profile =
  {
    label = parsed.Conformance.Scenario.tag;
    parsed;
    config = Conformance.Scenario.config parsed;
    profile;
  }

let parse_texts t =
  let sinks = Formats.Sinks_format.parse t.sinks_text in
  let rtl = Formats.Rtl_format.parse t.rtl_text in
  let stream = Formats.Stream_format.parse rtl t.stream_text in
  (sinks, rtl, stream)

(* Batch set-up: parse the three texts, then build the profile. *)
let set_up d t =
  let sinks, rtl, stream = parse_texts t in
  let profile = Activity.Profile.of_stream stream in
  input_of
    {
      d.sc with
      Conformance.Scenario.sinks;
      rtl;
      stream = Array.init (Activity.Instr_stream.length stream) (Activity.Instr_stream.get stream);
    }
    profile

let run_flow (i : input) =
  Gcr.Flow.run ~options:i.parsed.Conformance.Scenario.options i.config i.profile
    i.parsed.Conformance.Scenario.sinks

(* The input of a design at a streaming epoch: its trace followed by
   [epoch] copies of its drift chunk, which is what [epoch] updates
   leave in the daemon's profile. *)
let at_epoch (i : input) chunk epoch =
  if epoch = 0 then i
  else
    let parsed =
      {
        i.parsed with
        Conformance.Scenario.stream =
          Array.concat (i.parsed.Conformance.Scenario.stream :: List.init epoch (fun _ -> chunk));
      }
    in
    input_of parsed (Conformance.Scenario.profile parsed)

(* A trace update: a [Stream_update] accumulator holding the design's
   trace, made first, then [update] ingests the drift chunk into it and
   builds the drifted profile — what an update request does, and what a
   batch user does before routing again. *)
let accumulator (i : input) = Activity.Stream_update.of_stream (Activity.Profile.stream i.profile)

let update acc chunk =
  Activity.Stream_update.ingest acc chunk;
  Activity.Stream_update.profile ~patch:false acc

(* What the daemon answers for a design: Flow.run_checked_info, no
   budget. Raises on an error. *)
let one_shot (i : input) =
  match
    Gcr.Flow.run_checked_info ~options:i.parsed.Conformance.Scenario.options i.config
      i.profile i.parsed.Conformance.Scenario.sinks
  with
  | Ok c -> c.Gcr.Flow.tree
  | Error (e :: _) -> Util.Gcr_error.raise_t e
  | Error [] -> failwith "run_checked_info: empty error list"
