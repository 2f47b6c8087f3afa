module Cx = Cxnum.Cx
module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates

let controls_of (cs : Op.control list) = List.map (fun (c : Op.control) -> (c.cq, c.pos)) cs

module Make (B : Dd.Backend.S) = struct
  module Pkg = B.Pkg
  module Vec = B.Vec
  module Mat = B.Mat

  let apply_op p ~n state op =
    match (op : Op.t) with
    | Apply { gate; controls; target } ->
      Mat.apply_gate p ~n ~controls:(controls_of controls) ~target
        (Gates.matrix gate) state
    | Swap (a, b) -> Mat.apply_swap p ~n a b state
    | Measure _ | Reset _ | Cond _ | Barrier _ ->
      invalid_arg "Dd_sim.apply_op: non-unitary operation"

  let mul_op_left p ~n op m =
    match (op : Op.t) with
    | Apply { gate; controls; target } ->
      Mat.mul_gate_left p ~n ~controls:(controls_of controls) ~target
        (Gates.matrix gate) m
    | Swap (a, b) -> Mat.mul_swap_left p ~n a b m
    | Measure _ | Reset _ | Cond _ | Barrier _ ->
      invalid_arg "Dd_sim.mul_op_left: non-unitary operation"

  let mul_op_right p ~n op m =
    match (op : Op.t) with
    | Apply { gate; controls; target } ->
      Mat.mul_gate_right p ~n ~controls:(controls_of controls) ~target
        (Gates.matrix gate) m
    | Swap (a, b) -> Mat.mul_swap_right p ~n a b m
    | Measure _ | Reset _ | Cond _ | Barrier _ ->
      invalid_arg "Dd_sim.mul_op_right: non-unitary operation"

  let simulate p (c : Circ.t) =
    if Circ.is_dynamic c then
      invalid_arg "Dd_sim.simulate: dynamic circuit (use Extraction.run)";
    let n = c.Circ.num_qubits in
    Pkg.with_root_v p (Pkg.zero_state p n) (fun r ->
        let step op =
          match (op : Op.t) with
          | Measure _ | Barrier _ -> ()
          | Apply _ | Swap _ ->
            Pkg.set_vroot r (apply_op p ~n (Pkg.vroot_edge r) op);
            Pkg.checkpoint p
          | Reset _ | Cond _ -> assert false (* excluded by is_dynamic *)
        in
        List.iter step c.Circ.ops;
        Pkg.vroot_edge r)

  let build_unitary p (c : Circ.t) =
    let n = c.Circ.num_qubits in
    Pkg.with_root_m p (Pkg.ident p n) (fun r ->
        let step op =
          match (op : Op.t) with
          | Barrier _ -> ()
          | Apply _ | Swap _ ->
            Pkg.set_mroot r (mul_op_left p ~n op (Pkg.mroot_edge r));
            Pkg.checkpoint p
          | Measure _ | Reset _ | Cond _ ->
            invalid_arg "Dd_sim.build_unitary: non-unitary operation in circuit"
        in
        List.iter step c.Circ.ops;
        Pkg.mroot_edge r)

  let measured_distribution p state ~n ~num_cbits ~measures ?(cutoff = 1e-12)
      ?(limit = 1 lsl 22) () =
    let cbit_of = Hashtbl.create 16 in
    List.iter (fun (q, cb) -> Hashtbl.replace cbit_of q cb) measures;
    let paths = Vec.nonzero_paths p state ~n ~cutoff ~limit () in
    let dist : (string, float) Hashtbl.t = Hashtbl.create 64 in
    let record (bits, prob) =
      let key = Bytes.make num_cbits '0' in
      Array.iteri
        (fun q b ->
          match Hashtbl.find_opt cbit_of q with
          | Some cb -> if b = 1 then Bytes.set key cb '1'
          | None -> ())
        bits;
      let key = Bytes.to_string key in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt dist key) in
      Hashtbl.replace dist key (prev +. prob)
    in
    List.iter record paths;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) dist []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

include Make (Dd.Classic)
