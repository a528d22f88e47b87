(* Distributed gate controllers: the paper's Section 6 / Figure 6 study.

   A single centralized controller star-routes every enable across half
   the die; partitioning the chip into k cells with one controller each
   shrinks the total star length by about sqrt(k). The paper derives
   G*D/(4*sqrt k) analytically; here we measure it on a routed design and
   print the analytic prediction next to the measured wire length.

   Run with:  dune exec examples/distributed_controller.exe *)

let () =
  let spec = Benchmarks.Rbench.scaled (Benchmarks.Rbench.by_name "r2") ~n_sinks:192 in
  let case = Benchmarks.Suite.case ~stream_length:3000 spec in
  let { Benchmarks.Suite.profile; sinks; _ } = case in
  let die = Benchmarks.Rbench.die spec in
  let d = Geometry.Bbox.width die in

  let open Util.Text_table in
  let table =
    create ~title:"Distributed controllers (cf. paper Figure 6)"
      [
        ("k", Right);
        ("ctrl wire (mm)", Right);
        ("analytic G*D/(4 sqrt k) (mm)", Right);
        ("W ctrl (pF)", Right);
        ("W total (pF)", Right);
        ("ctrl area (10^3 um^2)", Right);
      ]
  in
  List.iter
    (fun k ->
      let controller = Gcr.Controller.distributed die ~k in
      let config = Gcr.Config.make ~controller ~die () in
      (* re-route for each controller layout: Eq (3) sees the star cost *)
      let tree =
        Gcr.Gate_reduction.reduce_optimal (Gcr.Router.route config profile sinks)
      in
      let g = float_of_int (Gcr.Gated_tree.gate_count tree) in
      let measured = Gcr.Cost.control_wirelength_total tree in
      let analytic = g *. d /. (4.0 *. sqrt (float_of_int k)) in
      let area = Gcr.Area.of_tree tree in
      add_row table
        [
          string_of_int k;
          Printf.sprintf "%.2f" (measured /. 1000.0);
          Printf.sprintf "%.2f" (analytic /. 1000.0);
          Printf.sprintf "%.2f" (Gcr.Cost.w_ctrl tree /. 1000.0);
          Printf.sprintf "%.2f" (Gcr.Cost.w_total tree /. 1000.0);
          Printf.sprintf "%.1f" (area.Gcr.Area.control_wire /. 1000.0);
        ])
    [ 1; 4; 16; 64 ];
  print table;
  Format.printf
    "@.Star wiring shrinks roughly as 1/sqrt(k), as the paper's analysis\n\
     predicts; the controller-tree switched capacitance follows.@."
