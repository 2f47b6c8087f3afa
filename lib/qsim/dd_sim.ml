module Cx = Cxnum.Cx
module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates

let controls_of (cs : Op.control list) = List.map (fun (c : Op.control) -> (c.cq, c.pos)) cs

module Pkg = Dd.Pkg
module Vec = Dd.Vec
module Mat = Dd.Mat

type instr =
  | Gate of Pkg.gate_sig
  | Cond of Op.cond * Pkg.gate_sig
  | Measure of
      { qubit : int
      ; cbit : int
      }
  | Reset of
      { qubit : int
      ; x : Pkg.gate_sig
      }

let sig_of p op =
  match (op : Op.t) with
  | Apply { gate; controls; target } ->
    Pkg.gate_sig p ~controls:(controls_of controls) ~target (Gates.matrix gate)
  | Swap (a, b) -> Pkg.swap_sig p a b
  | Measure _ | Reset _ | Cond _ | Barrier _ ->
    invalid_arg "Dd_sim: non-unitary operation"

let apply_op p ~n state op = Mat.apply_sig p ~n (sig_of p op) state

let compile p ops =
  let x = Gates.matrix Gates.X in
  let instr op =
    match (op : Op.t) with
    | Barrier _ -> None
    | Apply _ | Swap _ -> Some (Gate (sig_of p op))
    | Cond { cond; op } -> Some (Cond (cond, sig_of p op))
    | Measure { qubit; cbit } -> Some (Measure { qubit; cbit })
    | Reset qubit ->
      Some (Reset { qubit; x = Pkg.gate_sig p ~controls:[] ~target:qubit x })
  in
  Array.of_list (List.filter_map instr ops)

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
  let cbit_of = Array.make n (-1) in
  List.iter (fun (q, cb) -> cbit_of.(q) <- cb) measures;
  let assignment (bits, prob) =
    let key = Bytes.make num_cbits '0' in
    Array.iteri
      (fun q b -> if b = 1 && cbit_of.(q) >= 0 then Bytes.set key cbit_of.(q) '1')
      bits;
    (Bytes.to_string key, prob)
  in
  Classical.canonical
    (List.map assignment (Vec.nonzero_paths p state ~n ~cutoff ~limit ()))
