(* The merge core is exposed as a [forest] so the sharded router can
   drive the same cost/merge machinery per region and again over the
   region roots during stitching. *)

(* Per-root enable state. Sampled profiles keep the instruction-hit
   signature of each internal root, so a merge derives the parent's
   P/Ptr by a word-wise OR plus two weighted popcounts (as
   Enable.compute_all does) — bit-for-bit what rescanning the union's
   module set gives. A leaf's signature is built from its sink when the
   leaf is merged rather than held from the start: signatures are
   several times larger than module sets, and a 10^4-sink stitch forest
   would otherwise pin all of them at once. Analytic profiles keep
   module sets and the closed form. Entries of consumed roots are
   released to the parent's, so only live roots pin memory. *)
type activity =
  | Signatures of Activity.Signature.kernel * Activity.Signature.t array
      (* indexed by id - n_sinks *)
  | Sets of Activity.Module_set.t array

type forest = {
  config : Config.t;
  profile : Activity.Profile.t;
  grow : Clocktree.Grow.t;
  sinks : Clocktree.Sink.t array;
  activity : activity;
  p : float array;  (* P(EN_v) *)
  star : float array;  (* v's controller-star term of Eq. (3) *)
}

(* Fill the per-root terms of Eq. (3) once, when [v] becomes a root: the
   star wire runs from the controller to the middle of v's merging
   sector, which is fixed from then on. Same float expression as
   Cost.merge_sc's [control]. *)
let activate t v ~p ~ptr =
  let config = t.config in
  let tech = config.Config.tech in
  let c = tech.Clocktree.Tech.unit_cap in
  let cg = tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap in
  let len =
    Controller.wire_length config.Config.controller
      (Clocktree.Grow.center_point t.grow v)
  in
  let star = ((c *. len) +. cg) *. ptr *. config.Config.control_weight in
  t.p.(v) <- p;
  t.star.(v) <- star

let forest (config : Config.t) profile sinks =
  Clocktree.Sink.validate_array sinks;
  let tech = config.Config.tech in
  let n = Array.length sinks in
  let grow =
    Clocktree.Grow.create tech
      ~edge_gate:(Some tech.Clocktree.Tech.and_gate)
      sinks
  in
  let size = (2 * n) - 1 in
  let leaf v = Enable.sink_set profile sinks.(v) in
  let activity =
    match Activity.Profile.signature_kernel profile with
    | Some kern -> Signatures (kern, Array.make (n - 1) (Activity.Signature.create kern))
    | None -> Sets (Array.make size (leaf 0))
  in
  let t =
    {
      config;
      profile;
      grow;
      sinks;
      activity;
      p = Array.make size 0.0;
      star = Array.make size 0.0;
    }
  in
  for v = 0 to n - 1 do
    let mods = leaf v in
    (match activity with Sets sets -> sets.(v) <- mods | Signatures _ -> ());
    let e = Enable.of_set profile mods in
    activate t v ~p:e.Enable.p ~ptr:e.Enable.ptr
  done;
  t

let grow t = t.grow

(* Smallest e >= 0 with base + lin e + quad e^2 = target: Zskew's
   solve_length on unboxed floats. *)
let[@inline] solve_length base lin quad target =
  let rhs = target -. base in
  if rhs <= 0.0 then 0.0
  else if quad <= 0.0 then
    if lin <= 0.0 then invalid_arg "Zskew: cannot snake with zero wire parasitics"
    else rhs /. lin
  else
    let disc = (lin *. lin) +. (4.0 *. quad *. rhs) in
    ((-.lin) +. sqrt disc) /. (2.0 *. quad)

(* Arena.dist over the bound columns. Plain comparisons stand in for
   Float.max, whose signed-zero test is a C call per use (most of a
   pair bound's time): on finite coordinates they return the same float,
   since the only disagreement — max (-0.) (+0.) — is then absorbed by
   the outer max against +0. (A NaN coordinate still raises, at its
   first Grow.merge.) *)
let[@inline] fmax (x : float) y = if y > x then y else x

let[@inline] gap alo ahi blo bhi = fmax 0.0 (fmax (blo -. ahi) (alo -. bhi))

let[@inline] dist (ar : Clocktree.Arena.t) a b =
  fmax
    (gap ar.ulo.(a) ar.uhi.(a) ar.ulo.(b) ar.uhi.(b))
    (gap ar.vlo.(a) ar.vhi.(a) ar.vlo.(b) ar.vhi.(b))

(* Eq. (3) of roots [a] and [b], with [a] as the zero-skew split's first
   branch: Zskew.split (gated branches) followed by Cost.merge_sc,
   operation for operation, but read straight from the arena columns and
   the activation terms — no split, branch or coefficient records and no
   midpoints, so a cost allocates nothing and equals the reference path
   bit-for-bit (the tests compare the two). *)
let[@inline] eq3 t (ar : Clocktree.Arena.t) a b =
  let tech = t.config.Config.tech in
  let r = tech.Clocktree.Tech.unit_res and c = tech.Clocktree.Tech.unit_cap in
  let g = tech.Clocktree.Tech.and_gate in
  let dr = g.Clocktree.Tech.drive_res and cg = g.Clocktree.Tech.input_cap in
  let d = dist ar a b in
  let q = r *. c /. 2.0 in
  let a0 = ar.delay.(a) +. g.Clocktree.Tech.intrinsic_delay +. (dr *. ar.cap.(a)) in
  let a1 = (r *. ar.cap.(a)) +. (dr *. c) in
  let b0 = ar.delay.(b) +. g.Clocktree.Tech.intrinsic_delay +. (dr *. ar.cap.(b)) in
  let b1 = (r *. ar.cap.(b)) +. (dr *. c) in
  let denom = a1 +. b1 +. (2.0 *. q *. d) in
  let x =
    if denom <= 0.0 then if a0 <= b0 then d else 0.0
    else (b0 -. a0 +. (b1 *. d) +. (q *. d *. d)) /. denom
  in
  (* x < 0: branch a is too slow even with no wire, snake b; x > d:
     snake a. The zero-wire delays are Zskew's eval at e = 0. *)
  let ea =
    if x < 0.0 then 0.0
    else if x > d then
      Float.max d (solve_length a0 a1 q (b0 +. (b1 *. 0.0) +. (q *. 0.0 *. 0.0)))
    else x
  in
  let eb =
    if x < 0.0 then
      Float.max d (solve_length b0 b1 q (a0 +. (a1 *. 0.0) +. (q *. 0.0 *. 0.0)))
    else if x > d then 0.0
    else d -. x
  in
  (((c *. ea) +. cg) *. t.p.(a))
  +. (((c *. eb) +. cg) *. t.p.(b))
  +. t.star.(a) +. t.star.(b)

(* Eq. (3) is orientation-sensitive in the last ulp (the split solves
   from one side), so every caller evaluates a pair with the larger id as
   the first branch — the orientation the exhaustive scan always used —
   and the cost is symmetric as the greedy engine requires. *)
let[@inline] eq3_sym t ar a b = if a > b then eq3 t ar a b else eq3 t ar b a

let cost t a b =
  if not (Clocktree.Grow.is_active t.grow a && Clocktree.Grow.is_active t.grow b) then
    invalid_arg (Printf.sprintf "Router.cost: (%d, %d) are not both active roots" a b);
  eq3_sym t (Clocktree.Grow.arena t.grow) a b

(* Floating-point admissibility of the bounds below. Write u = 2^-53.
   Every term of Eq. (3) is a product and sum of nonnegative floats, so
   each rounding scales a partial result by a factor in [1-u, 1+u] and
   nothing cancels. Over the reals, with P = min(pa, pb),
     eq3 = (c ea + cg) pa + (c eb + cg) pb + sa + sb
         >= cg pa + cg pb + sa + sb + c P (ea + eb),
   and ea + eb >= d (1-u): an unsnaked split has eb = fl(d - x) >=
   (d - x)(1-u) with 0 <= x <= d, and a snaked one keeps one side at
   max(d, ...) >= d. The star terms sa, sb are the very floats [activate]
   stored. So the computed cost is >= (1-u)^7 R, where R = L(a) + L(b)
   + c P d over the reals with L(v) = cg pv + sv, while the computed
   pair bound before shaving is <= (1+u)^6 R (its own roundings, those
   of [share], and the rounded product with [shave] one more). Shaving
   by 1 - 1e-9 dwarfs the ~13u ~ 1.5e-15 gap, so the shaved bound never
   exceeds the cost; the per-root key needs fewer roundings still. The
   margin is needed: without the shave the admissibility property in
   the tests fails. This relies on no term underflowing to a subnormal:
   a positive sampled probability is >= 1/B (B cycles) and the gate
   input capacitance cg > 0, so a nonzero cost is far above 2^-1022
   (and with P = 0 the dropped term is exactly 0 on both sides). *)
let shave = 1.0 -. 1e-9

(* L(v) = cg P(EN_v) + star v: v's share of any Eq. (3) cost it enters. *)
let[@inline] share t v =
  let cg = t.config.Config.tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap in
  (cg *. t.p.(v)) +. t.star.(v)

let lower_bound t v = share t v *. shave

let[@inline] pair_bound_raw t ar a b =
  let c = t.config.Config.tech.Clocktree.Tech.unit_cap in
  let pa = t.p.(a) and pb = t.p.(b) in
  (share t a +. share t b +. (c *. (if pa < pb then pa else pb) *. dist ar a b))
  *. shave

let pair_bound t a b = pair_bound_raw t (Clocktree.Grow.arena t.grow) a b

let merge t a b =
  let k = Clocktree.Grow.merge t.grow a b in
  (match t.activity with
  | Signatures (kern, sigs) ->
    let n = Array.length t.sinks in
    let sig_of v =
      if v < n then Activity.Signature.of_set kern (Enable.sink_set t.profile t.sinks.(v))
      else sigs.(v - n)
    in
    let s = Activity.Signature.union (sig_of a) (sig_of b) in
    sigs.(k - n) <- s;
    if a >= n then sigs.(a - n) <- s;
    if b >= n then sigs.(b - n) <- s;
    activate t k ~p:(Activity.Signature.p kern s) ~ptr:(Activity.Signature.ptr kern s)
  | Sets mods ->
    let e = Enable.of_set t.profile (Activity.Module_set.union mods.(a) mods.(b)) in
    mods.(k) <- e.Enable.mods;
    mods.(a) <- e.Enable.mods;
    mods.(b) <- e.Enable.mods;
    activate t k ~p:e.Enable.p ~ptr:e.Enable.ptr);
  k

(* Greedy-merge active roots down to one through the bounded source:
   roots sorted by the additive key [lower_bound], each walked candidate
   screened by [pair_bound], the survivors costed in place. The engine
   sees a dense 0..r-1 problem; [ids] maps its ids to forest ids. *)
let merge_roots t roots =
  let r = Array.length roots in
  if r = 0 then invalid_arg "Router.merge_roots: no roots";
  let ids = Array.make ((2 * r) - 1) (-1) in
  Array.blit roots 0 ids 0 r;
  let next = ref r in
  let ar = Clocktree.Grow.arena t.grow in
  let cost i j = eq3_sym t ar ids.(i) ids.(j) in
  let cost_many i js cnt out =
    let a = ids.(i) in
    for k = 0 to cnt - 1 do
      out.(k) <- eq3_sym t ar a ids.(js.(k))
    done
  in
  let pair i js cnt out =
    let a = ids.(i) in
    for k = 0 to cnt - 1 do
      out.(k) <- pair_bound_raw t ar a ids.(js.(k))
    done
  in
  let merge i j =
    let k = merge t ids.(i) ids.(j) in
    ids.(!next) <- k;
    let meta = !next in
    incr next;
    meta
  in
  let source =
    Clocktree.Greedy.bound_scan ~pair Clocktree.Greedy.Sum
      ~lower:(fun i -> lower_bound t ids.(i))
  in
  ids.(Clocktree.Greedy.merge_all_with ~cost_many source ~n:r ~cost ~merge)

let run ?(dense = false) t =
  let n = Clocktree.Grow.n_sinks t.grow in
  if dense then begin
    let ar = Clocktree.Grow.arena t.grow in
    ignore
      (Clocktree.Greedy.merge_all_dense ~n
         ~cost:(fun a b -> eq3_sym t ar a b)
         ~merge:(merge t))
  end
  else ignore (merge_roots t (Array.init n Fun.id))

let grow_and_merge ?dense (config : Config.t) profile sinks =
  let f = forest config profile sinks in
  run ?dense f;
  Clocktree.Grow.topology f.grow

let route_topology_only config profile sinks = grow_and_merge config profile sinks

let route ?skew_budget config profile sinks =
  let topo = grow_and_merge config profile sinks in
  Gated_tree.build ?skew_budget config profile sinks topo
    ~kind:(fun _ -> Gated_tree.Gated)

let route_dense ?skew_budget config profile sinks =
  let topo = grow_and_merge ~dense:true config profile sinks in
  Gated_tree.build ?skew_budget config profile sinks topo
    ~kind:(fun _ -> Gated_tree.Gated)
