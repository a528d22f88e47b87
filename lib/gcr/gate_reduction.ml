type thresholds = {
  activity_high : float;
  min_switched_cap : float;
  parent_delta : float;
  force_cap_multiple : float;
}

let default_thresholds =
  {
    activity_high = 0.95;
    min_switched_cap = 40.0;
    parent_delta = 0.02;
    force_cap_multiple = 10.0;
  }

(* ------------------------------------------------------------------ *)
(* Exact DP over gate placements                                      *)
(* ------------------------------------------------------------------ *)

(* The estimate freezes the wire lengths of the input embedding (removing
   a gate re-balances the zero-skew splits slightly; the final assignment
   is re-embedded exactly). Under it the cost of the subtree hanging on
   the edge above [v] depends only on the probability [q] with which the
   clock at parent(v) toggles: the enable of the lowest gated strict
   ancestor, or 1 under the root. A cell's input capacitance sits at the
   parent node, so it toggles at [q]; the edge's wire and the loads at [v]
   toggle at the edge's own probability (p_v if gated here, q otherwise),
   which children inherit as their context. Only edges the input gates are
   decided (kept gated, or demoted to a buffer: removing a gate ties its
   enable high, so the cell becomes an always-on buffer and sibling delays
   stay matched); every other edge keeps its hardware and passes [q]
   through.

   A node with [m] input-gated strict ancestors below the root has [m+1]
   possible contexts: free-running (row 0) or the [j]-th such ancestor's
   enable (row [j], counted from the top). [cost.(v)] holds one row per
   context; with a gate budget a row is a vector over the number of gates
   kept in the subtree, otherwise it has the single entry "any count". *)
let reduce_optimal ?gates tree =
  let topo = tree.Gated_tree.topo in
  let cfg = tree.Gated_tree.config in
  let tech = cfg.Config.tech in
  let c = tech.Clocktree.Tech.unit_cap in
  let cg = tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap in
  let cb = tech.Clocktree.Tech.buffer.Clocktree.Tech.input_cap in
  let n = Clocktree.Topo.n_nodes topo in
  let root = Clocktree.Topo.root topo in
  let decided v = tree.Gated_tree.kind.(v) = Gated_tree.Gated in
  let left = Array.make n (-1) and right = Array.make n (-1) in
  (* input gates in the subtree hanging on the edge above each node *)
  let below = Array.make n 0 in
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      let own = if decided v then 1 else 0 in
      match Clocktree.Topo.children topo v with
      | None -> below.(v) <- own
      | Some (a, b) ->
        left.(v) <- a;
        right.(v) <- b;
        below.(v) <- own + below.(a) + below.(b));
  let budget =
    match gates with
    | None -> 0
    | Some k ->
      if k < 0 || k > below.(root) then
        invalid_arg "Gate_reduction.reduce_optimal: gates outside [0, gate count]";
      k
  in
  (* a kept gate advances the count only when it is being counted *)
  let step = if gates = None then 0 else 1 in
  let width v = 1 + Int.min below.(v) budget in
  let cost = Array.make n [||] in
  (* [merge (h, share) w v j] fills [h.(k)], k < w, with the cheapest
     children of [v] in context [j] holding [k] gates between them, and
     [share.(k)] with the left child's part of those. *)
  let merge (h, share) w v j =
    let a = left.(v) and b = right.(v) in
    Array.fill h 0 w infinity;
    if a < 0 then begin
      h.(0) <- 0.0;
      share.(0) <- 0
    end
    else begin
      let wa = width a and wb = width b and ra = cost.(a) and rb = cost.(b) in
      for ka = 0 to Int.min (wa - 1) (w - 1) do
        for kb = 0 to Int.min (wb - 1) (w - 1 - ka) do
          let x = ra.((j * wa) + ka) +. rb.((j * wb) + kb) in
          if x < h.(ka + kb) then begin
            h.(ka + kb) <- x;
            share.(ka + kb) <- ka
          end
        done
      done
    end
  in
  let scratch () = (Array.make (budget + 1) infinity, Array.make (budget + 1) 0) in
  let ((keep_h, _) as keep) = scratch () and ((gate_h, _) as gate) = scratch () in
  (* ctx.(j): the probability of context j on the current root path *)
  let ctx = Array.make (below.(root) + 1) 1.0 in
  let p v = tree.Gated_tree.enables.(v).Enable.p in
  let load v =
    (c *. Clocktree.Embed.edge_len tree.Gated_tree.embed v)
    +. if left.(v) < 0 then tree.Gated_tree.sinks.(v).Clocktree.Sink.cap else 0.0
  in
  let head v = if tree.Gated_tree.kind.(v) = Gated_tree.Plain then 0.0 else cb in
  (* the controller's share of a gate on edge [v] *)
  let ctrl v =
    let len =
      Controller.wire_length cfg.Config.controller (Gated_tree.gate_location tree v)
    in
    ((c *. len) +. cg) *. tree.Gated_tree.enables.(v).Enable.ptr
    *. cfg.Config.control_weight
  in
  (* Two options for edge [v] in context [j] with [k] gates below: keep
     its hardware, clocked at the context's probability (plus the
     children in [keep]); or, for decided edges, gate it (plus the
     children in [gate], merged in the context the gate opens). The gate
     wins ties. *)
  let keep_cost ~head ~load q = (head *. q) +. (load *. q) [@@inline] in
  let gate_cost ~ctrl ~load ~p q = (cg *. q) +. ctrl +. (load *. p) [@@inline] in
  let gated d kc gc k =
    d && k >= step && gc +. gate_h.(k - step) <= kc +. keep_h.(k)
  [@@inline]
  in
  let rec solve v m =
    let d = decided v in
    if d then ctx.(m + 1) <- p v;
    if left.(v) >= 0 then begin
      let m' = if d then m + 1 else m in
      solve left.(v) m';
      solve right.(v) m'
    end;
    let w = width v in
    let row = Array.make ((m + 1) * w) infinity in
    let head = head v and load = load v and p = p v in
    let ctrl = if d then ctrl v else 0.0 in
    if d then merge gate w v (m + 1);
    for j = 0 to m do
      merge keep w v j;
      let kc = keep_cost ~head ~load ctx.(j) in
      let gc = if d then gate_cost ~ctrl ~load ~p ctx.(j) else infinity in
      for k = 0 to w - 1 do
        row.((j * w) + k) <-
          (if gated d kc gc k then gc +. gate_h.(k - step) else kc +. keep_h.(k))
      done
    done;
    cost.(v) <- row
  in
  (* replay the choices behind [cost.(v)] at context [j] with [k] gates *)
  let kinds = Gated_tree.kinds_copy tree in
  let rec assign v m j k =
    let d = decided v and w = width v and load = load v in
    if d then merge gate w v (m + 1);
    merge keep w v j;
    let kc = keep_cost ~head:(head v) ~load ctx.(j) in
    let gc = if d then gate_cost ~ctrl:(ctrl v) ~load ~p:(p v) ctx.(j) else infinity in
    let g = gated d kc gc k in
    if d then begin
      ctx.(m + 1) <- p v;
      kinds.(v) <- (if g then Gated_tree.Gated else Gated_tree.Buffered)
    end;
    let j', k', (_, share) = if g then (m + 1, k - step, gate) else (j, k, keep) in
    (* read before the children reuse the scratch vectors *)
    let ka = share.(k') in
    if left.(v) >= 0 then begin
      let m' = if d then m + 1 else m in
      assign left.(v) m' j' ka;
      assign right.(v) m' j' (k' - ka)
    end
  in
  if left.(root) >= 0 then begin
    solve left.(root) 0;
    solve right.(root) 0;
    merge keep (budget + 1) root 0;
    let ka = (snd keep).(budget) in
    assign left.(root) 0 0 ka;
    assign right.(root) 0 0 (budget - ka)
  end;
  Gated_tree.rebuild_with_kinds tree kinds

let reduce_fraction tree ~fraction =
  if not (Float.is_finite fraction && fraction >= 0.0 && fraction <= 1.0) then
    invalid_arg "Gate_reduction.reduce_fraction: fraction outside [0,1]";
  let g = Gated_tree.gate_count tree in
  reduce_optimal tree ~gates:(g - int_of_float (Float.round (fraction *. float_of_int g)))

(* ------------------------------------------------------------------ *)
(* Rule-based pass                                                    *)
(* ------------------------------------------------------------------ *)

let reduce_rules ?(thresholds = default_thresholds) tree =
  let topo = tree.Gated_tree.topo in
  let root = Clocktree.Topo.root topo in
  let kinds = Gated_tree.kinds_copy tree in
  (* Rules 1-3, judged on the fully gated tree. *)
  Clocktree.Topo.iter_bottom_up topo (fun v ->
      if kinds.(v) = Gated_tree.Gated then begin
        let p = tree.Gated_tree.enables.(v).Enable.p in
        let p_parent =
          match Clocktree.Topo.parent topo v with
          | None -> 1.0
          | Some parent ->
            if parent = root then 1.0 else tree.Gated_tree.enables.(parent).Enable.p
        in
        let rule1 = p >= thresholds.activity_high in
        let rule2 = Cost.subtree_switched_cap tree v <= thresholds.min_switched_cap in
        let rule3 = p_parent -. p <= thresholds.parent_delta in
        if rule1 || rule2 || rule3 then kinds.(v) <- Gated_tree.Buffered
      end);
  (* Forced insertion: cap the capacitance accumulated since the enclosing
     gate so the removals cannot let the phase delay grow unchecked. *)
  let tech = tree.Gated_tree.config.Config.tech in
  let cg = tech.Clocktree.Tech.and_gate.Clocktree.Tech.input_cap in
  let limit = thresholds.force_cap_multiple *. cg in
  (* c * |e_v| + load at v under the current [kinds]: the capacitance that
     toggles with the edge above v *)
  let edge_cap v =
    let side c =
      match kinds.(c) with
      | Gated_tree.Plain -> 0.0
      | Gated_tree.Buffered -> tech.Clocktree.Tech.buffer.Clocktree.Tech.input_cap
      | Gated_tree.Gated -> cg
    in
    (tech.Clocktree.Tech.unit_cap *. Clocktree.Embed.edge_len tree.Gated_tree.embed v)
    +.
    match Clocktree.Topo.children topo v with
    | None -> tree.Gated_tree.sinks.(v).Clocktree.Sink.cap
    | Some (a, b) -> side a +. side b
  in
  let unmasked = Array.make (Clocktree.Topo.n_nodes topo) 0.0 in
  Clocktree.Topo.iter_top_down topo (fun v ->
      match Clocktree.Topo.parent topo v with
      | None -> unmasked.(v) <- 0.0
      | Some p ->
        if kinds.(v) = Gated_tree.Gated then unmasked.(v) <- 0.0
        else begin
          let acc = unmasked.(p) +. edge_cap v in
          if Gated_tree.is_gated tree v && acc >= limit then begin
            kinds.(v) <- Gated_tree.Gated;
            unmasked.(v) <- 0.0
          end
          else unmasked.(v) <- acc
        end);
  Gated_tree.rebuild_with_kinds tree kinds
