type t = {
  tag : string;
  die_side : float;
  k_controllers : int;
  control_weight : float;
  tech : Clocktree.Tech.t;
  sinks : Clocktree.Sink.t array;
  rtl : Activity.Rtl.t;
  stream : int array;
  options : Gcr.Flow.options;
  test_en : bool;  (** check the pipeline output in test mode too *)
}

(* Quantize to a 0.25 grid: exactly representable in binary and at most 6
   significant digits below 10^4, so the %.6g sink serialization of
   Formats.Sinks_format round-trips bit-for-bit. *)
let quant x = Float.round (x *. 4.0) /. 4.0

let generate prng ~tag =
  let n_sinks = 2 + Util.Prng.int prng 39 in
  let die_side = float_of_int (250 * (1 + Util.Prng.int prng 8)) in
  let identity = Util.Prng.bool prng in
  let n_modules = if identity then n_sinks else 1 + Util.Prng.int prng n_sinks in
  let sinks =
    Array.init n_sinks (fun id ->
        Clocktree.Sink.make ~id
          ~loc:
            (Geometry.Point.make
               (quant (Util.Prng.range prng 0.0 die_side))
               (quant (Util.Prng.range prng 0.0 die_side)))
          ~cap:(quant (Util.Prng.range prng 5.0 50.0))
          ~module_id:(if identity then id else Util.Prng.int prng n_modules))
  in
  let n_instr = 2 + Util.Prng.int prng 11 in
  let usage = Util.Prng.range prng 0.15 0.7 in
  let uses =
    List.init n_instr (fun _ ->
        let used =
          List.filter
            (fun _ -> Util.Prng.float prng 1.0 < usage)
            (List.init n_modules Fun.id)
        in
        if used = [] then [ Util.Prng.int prng n_modules ] else used)
  in
  let rtl = Activity.Rtl.of_lists ~n_modules uses in
  let len = 60 + Util.Prng.int prng 341 in
  let locality = Util.Prng.range prng 0.0 0.8 in
  let stream = Array.make len 0 in
  stream.(0) <- Util.Prng.int prng n_instr;
  for cycle = 1 to len - 1 do
    stream.(cycle) <-
      (if Util.Prng.float prng 1.0 < locality then stream.(cycle - 1)
       else Util.Prng.int prng n_instr)
  done;
  let tech =
    if Util.Prng.bool prng then Clocktree.Tech.default
    else begin
      let r () = float_of_int (50 + Util.Prng.int prng 151) /. 100.0 in
      let d = Clocktree.Tech.default in
      let g = r () in
      {
        d with
        Clocktree.Tech.unit_res = d.Clocktree.Tech.unit_res *. r ();
        unit_cap = d.Clocktree.Tech.unit_cap *. r ();
        and_gate = Clocktree.Tech.scale_gate d.Clocktree.Tech.and_gate g;
        buffer = Clocktree.Tech.scale_gate d.Clocktree.Tech.buffer g;
      }
    end
  in
  let reduction =
    match Util.Prng.int prng 4 with
    | 0 -> Gcr.Flow.No_reduction
    | 1 -> Gcr.Flow.Optimal
    | 2 -> Gcr.Flow.Rules
    | _ -> Gcr.Flow.Fraction (float_of_int (Util.Prng.int prng 101) /. 100.0)
  in
  let sizing =
    match Util.Prng.int prng 4 with
    | 0 -> Gcr.Flow.No_sizing
    | 1 -> Gcr.Flow.Tapered
    | 2 -> Gcr.Flow.Proportional
    | _ -> Gcr.Flow.Uniform (0.5 +. (float_of_int (Util.Prng.int prng 51) /. 20.0))
  in
  let skew_budget =
    if Util.Prng.bool prng then 0.0
    else
      tech.Clocktree.Tech.unit_res *. tech.Clocktree.Tech.unit_cap *. die_side
      *. die_side
      *. Util.Prng.range prng 0.001 0.05
  in
  let shards =
    match Util.Prng.int prng 4 with
    | 0 -> Gcr.Flow.Auto_shards
    | 1 -> Gcr.Flow.Shards (2 + Util.Prng.int prng 3)
    | _ -> Gcr.Flow.Flat
  in
  let gate_share =
    match Util.Prng.int prng 4 with
    | 0 -> Gcr.Flow.Share { min_instances = 1; eps = 0 }
    | 1 ->
      Gcr.Flow.Share
        { min_instances = 1 + Util.Prng.int prng 4; eps = Util.Prng.int prng 3 }
    | _ -> Gcr.Flow.No_share
  in
  let eco =
    match Util.Prng.int prng 4 with
    | 0 ->
      Gcr.Flow.Eco
        { threshold = float_of_int (1 + Util.Prng.int prng 20) /. 100.0 }
    | _ -> Gcr.Flow.No_eco
  in
  let test_en = Util.Prng.int prng 4 = 0 in
  let k_controllers = Util.Prng.choose prng [| 1; 4; 9; 16 |] in
  let control_weight = Util.Prng.choose prng [| 1.0; 0.5; 2.0 |] in
  {
    tag;
    die_side;
    k_controllers;
    control_weight;
    tech;
    sinks;
    rtl;
    stream;
    options = { Gcr.Flow.skew_budget; reduction; sizing; shards; gate_share; eco };
    test_en;
  }

let config t =
  let die = Geometry.Bbox.square ~side:t.die_side in
  Gcr.Config.make ~tech:t.tech
    ~controller:(Gcr.Controller.distributed die ~k:t.k_controllers)
    ~control_weight:t.control_weight ~die ()

let instr_stream t = Activity.Instr_stream.make t.rtl t.stream

let profile t = Activity.Profile.of_stream (instr_stream t)

let label t =
  Gcr.Flow.label t.options
  ^ (if t.options.Gcr.Flow.skew_budget > 0.0 then "+skew" else "+zs")
  ^ if t.test_en then "+test" else ""

(* ------------------------------------------------------------------ *)
(* Serialization: a re-runnable seed file                             *)
(* ------------------------------------------------------------------ *)

let render t =
  let b = Buffer.create 8192 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  add "# gcr conformance scenario (re-runnable fuzz reproducer)";
  add "tag %s" t.tag;
  add "die %.17g" t.die_side;
  add "controllers %d" t.k_controllers;
  add "control-weight %.17g" t.control_weight;
  let gate (g : Clocktree.Tech.gate) =
    Printf.sprintf "%.17g %.17g %.17g %.17g" g.Clocktree.Tech.input_cap
      g.Clocktree.Tech.drive_res g.Clocktree.Tech.intrinsic_delay
      g.Clocktree.Tech.area
  in
  add "tech %.17g %.17g %.17g %s %s" t.tech.Clocktree.Tech.unit_res
    t.tech.Clocktree.Tech.unit_cap t.tech.Clocktree.Tech.wire_area
    (gate t.tech.Clocktree.Tech.and_gate)
    (gate t.tech.Clocktree.Tech.buffer);
  add "skew-budget %.17g" t.options.Gcr.Flow.skew_budget;
  (match t.options.Gcr.Flow.reduction with
  | Gcr.Flow.No_reduction -> add "reduction none"
  | Gcr.Flow.Optimal -> add "reduction optimal"
  | Gcr.Flow.Rules -> add "reduction rules"
  | Gcr.Flow.Fraction f -> add "reduction fraction %.17g" f);
  (match t.options.Gcr.Flow.sizing with
  | Gcr.Flow.No_sizing -> add "sizing none"
  | Gcr.Flow.Tapered -> add "sizing tapered"
  | Gcr.Flow.Proportional -> add "sizing proportional"
  | Gcr.Flow.Uniform k -> add "sizing uniform %.17g" k);
  (match t.options.Gcr.Flow.shards with
  | Gcr.Flow.Flat -> add "shards flat"
  | Gcr.Flow.Auto_shards -> add "shards auto"
  | Gcr.Flow.Shards s -> add "shards %d" s);
  (match t.options.Gcr.Flow.gate_share with
  | Gcr.Flow.No_share -> add "gate-share none"
  | Gcr.Flow.Share { min_instances; eps } ->
    add "gate-share %d %d" min_instances eps);
  (match t.options.Gcr.Flow.eco with
  | Gcr.Flow.No_eco -> add "eco none"
  | Gcr.Flow.Eco { threshold } -> add "eco %.17g" threshold);
  add "test-en %d" (if t.test_en then 1 else 0);
  add "begin sinks";
  Buffer.add_string b (Formats.Sinks_format.render t.sinks);
  add "end sinks";
  add "begin rtl";
  Buffer.add_string b (Formats.Rtl_format.render t.rtl);
  add "end rtl";
  add "begin stream";
  Buffer.add_string b (Formats.Stream_format.render (instr_stream t));
  add "end stream";
  Buffer.contents b

let strip_comment s =
  match String.index_opt s '#' with None -> s | Some i -> String.sub s 0 i

let parse ?(source = "<scenario>") contents =
  let raw = Array.of_list (String.split_on_char '\n' contents) in
  let n = Array.length raw in
  let sections = Hashtbl.create 4 in
  let header = Hashtbl.create 8 in
  (* Header keys and sections must be unique: a reproducer with two
     [skew-budget] lines is almost certainly a botched hand edit, and
     last-write-wins would silently check something other than what the
     file says. The duplicate is rejected with a caret under it. *)
  let section_lines = Hashtbl.create 4 in
  let i = ref 0 in
  while !i < n do
    let lineno = !i + 1 in
    let text = raw.(!i) in
    let lf = Formats.Parse.located_fields (strip_comment text) in
    incr i;
    match lf with
    | [ (_, "begin"); (col, name) ] ->
      (match Hashtbl.find_opt section_lines name with
      | Some first ->
        Formats.Parse.fail ~source ~line:lineno ~col ~text
          "duplicate section %S (first at line %d)" name first
      | None -> Hashtbl.replace section_lines name lineno);
      let buf = Buffer.create 1024 in
      let rec consume () =
        if !i >= n then
          Formats.Parse.fail ~source ~line:lineno "unterminated section %S" name;
        let fs = Formats.Parse.fields (strip_comment raw.(!i)) in
        incr i;
        match fs with
        | [ "end"; name' ] when String.equal name name' -> ()
        | _ ->
          Buffer.add_string buf raw.(!i - 1);
          Buffer.add_char buf '\n';
          consume ()
      in
      consume ();
      Hashtbl.replace sections name (Buffer.contents buf)
    | [] -> ()
    | (col, key) :: rest ->
      (match Hashtbl.find_opt header key with
      | Some (first, _) ->
        Formats.Parse.fail ~source ~line:lineno ~col ~text
          "duplicate %S line (first at line %d)" key first
      | None -> Hashtbl.replace header key (lineno, List.map snd rest))
  done;
  let req key =
    match Hashtbl.find_opt header key with
    | Some v -> v
    | None -> Formats.Parse.fail ~source ~line:0 "missing %S line" key
  in
  let one_float ~what key =
    let line, fields = req key in
    match fields with
    | [ s ] -> Formats.Parse.float_field ~source ~line ~what s
    | _ -> Formats.Parse.fail ~source ~line "expected a single value for %s" what
  in
  let die_side = one_float ~what:"die side" "die" in
  if not (die_side > 0.0) then
    Formats.Parse.fail ~source ~line:0 "die side must be positive";
  let k_controllers =
    let line, fields = req "controllers" in
    match fields with
    | [ s ] -> Formats.Parse.int_field ~source ~line ~what:"controller count" s
    | _ -> Formats.Parse.fail ~source ~line "expected a single controller count"
  in
  let control_weight = one_float ~what:"control weight" "control-weight" in
  let tech =
    let line, fields = req "tech" in
    let num s =
      Formats.Parse.float_field ~source ~line ~what:"tech parameter" s
    in
    match List.map num fields with
    | [ ur; uc; wa; ai; ar; ad; aa; bi; br; bd; ba ] ->
      let gate input_cap drive_res intrinsic_delay area =
        { Clocktree.Tech.input_cap; drive_res; intrinsic_delay; area }
      in
      let tech =
        {
          Clocktree.Tech.unit_res = ur;
          unit_cap = uc;
          wire_area = wa;
          and_gate = gate ai ar ad aa;
          buffer = gate bi br bd ba;
        }
      in
      (try Clocktree.Tech.validate tech
       with Invalid_argument msg -> Formats.Parse.fail ~source ~line "%s" msg);
      tech
    | _ -> Formats.Parse.fail ~source ~line "expected 11 tech parameters"
  in
  let skew_budget = one_float ~what:"skew budget" "skew-budget" in
  let reduction =
    let line, fields = req "reduction" in
    match fields with
    | [ "none" ] -> Gcr.Flow.No_reduction
    (* "greedy" names the same pass in older reproducer files *)
    | [ "optimal" ] | [ "greedy" ] -> Gcr.Flow.Optimal
    | [ "rules" ] -> Gcr.Flow.Rules
    | [ "fraction"; f ] ->
      Gcr.Flow.Fraction (Formats.Parse.float_field ~source ~line ~what:"fraction" f)
    | _ ->
      Formats.Parse.fail ~source ~line
        "reduction expects none | optimal | rules | fraction <f>"
  in
  let sizing =
    let line, fields = req "sizing" in
    match fields with
    | [ "none" ] -> Gcr.Flow.No_sizing
    | [ "tapered" ] -> Gcr.Flow.Tapered
    | [ "proportional" ] -> Gcr.Flow.Proportional
    | [ "uniform"; k ] ->
      Gcr.Flow.Uniform
        (Formats.Parse.float_field ~source ~line ~what:"uniform scale" k)
    | _ ->
      Formats.Parse.fail ~source ~line
        "sizing expects none | tapered | proportional | uniform <k>"
  in
  (* Optional for compatibility with pre-sharding scenario files. *)
  let shards =
    match Hashtbl.find_opt header "shards" with
    | None | Some (_, [ "flat" ]) -> Gcr.Flow.Flat
    | Some (_, [ "auto" ]) -> Gcr.Flow.Auto_shards
    | Some (line, [ s ]) ->
      let s = Formats.Parse.int_field ~source ~line ~what:"shard count" s in
      if s < 1 then
        Formats.Parse.fail ~source ~line "shard count must be positive";
      Gcr.Flow.Shards s
    | Some (line, _) ->
      Formats.Parse.fail ~source ~line "shards expects flat | auto | <n>"
  in
  (* Optional for compatibility with pre-sharing scenario files. *)
  let gate_share =
    match Hashtbl.find_opt header "gate-share" with
    | None | Some (_, [ "none" ]) -> Gcr.Flow.No_share
    | Some (line, [ mi; eps ]) ->
      let mi =
        Formats.Parse.int_field ~source ~line ~what:"min instances" mi
      in
      let eps = Formats.Parse.int_field ~source ~line ~what:"sharing eps" eps in
      if mi < 0 || eps < 0 then
        Formats.Parse.fail ~source ~line
          "gate-share parameters must be non-negative";
      Gcr.Flow.Share { min_instances = mi; eps }
    | Some (line, _) ->
      Formats.Parse.fail ~source ~line
        "gate-share expects none | <min-instances> <eps>"
  in
  (* Optional for compatibility with pre-streaming scenario files. *)
  let eco =
    match Hashtbl.find_opt header "eco" with
    | None | Some (_, [ "none" ]) -> Gcr.Flow.No_eco
    | Some (line, [ s ]) ->
      let threshold =
        Formats.Parse.float_field ~source ~line ~what:"eco drift threshold" s
      in
      if not (Float.is_finite threshold && threshold > 0.0) then
        Formats.Parse.fail ~source ~line
          "eco drift threshold must be finite and positive";
      Gcr.Flow.Eco { threshold }
    | Some (line, _) ->
      Formats.Parse.fail ~source ~line "eco expects none | <threshold>"
  in
  let test_en =
    match Hashtbl.find_opt header "test-en" with
    | None | Some (_, [ "0" ]) -> false
    | Some (_, [ "1" ]) -> true
    | Some (line, _) -> Formats.Parse.fail ~source ~line "test-en expects 0 | 1"
  in
  let tag =
    match Hashtbl.find_opt header "tag" with
    | Some (_, rest) -> String.concat " " rest
    | None -> "replay"
  in
  let section name =
    match Hashtbl.find_opt sections name with
    | Some s -> s
    | None -> Formats.Parse.fail ~source ~line:0 "missing section %S" name
  in
  let sinks =
    Formats.Sinks_format.parse ~source:(source ^ ":sinks") (section "sinks")
  in
  let rtl = Formats.Rtl_format.parse ~source:(source ^ ":rtl") (section "rtl") in
  let stream_t =
    Formats.Stream_format.parse ~source:(source ^ ":stream") rtl (section "stream")
  in
  let stream =
    Array.init (Activity.Instr_stream.length stream_t)
      (Activity.Instr_stream.get stream_t)
  in
  let n_mods = Activity.Rtl.n_modules rtl in
  Array.iter
    (fun s ->
      if s.Clocktree.Sink.module_id >= n_mods then
        Formats.Parse.fail ~source ~line:0
          "sink %d references module %d outside the %d-module RTL"
          s.Clocktree.Sink.id s.Clocktree.Sink.module_id n_mods)
    sinks;
  {
    tag;
    die_side;
    k_controllers;
    control_weight;
    tech;
    sinks;
    rtl;
    stream;
    options = { Gcr.Flow.skew_budget; reduction; sizing; shards; gate_share; eco };
    test_en;
  }

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render t))

let load path = parse ~source:path (Formats.Parse.read_file path)

let pp ppf t =
  Format.fprintf ppf "%s: %d sinks, %d modules, %d instrs, %d cycles, die %g, k=%d, %s"
    t.tag (Array.length t.sinks)
    (Activity.Rtl.n_modules t.rtl)
    (Activity.Rtl.n_instructions t.rtl)
    (Array.length t.stream) t.die_side t.k_controllers (label t)
