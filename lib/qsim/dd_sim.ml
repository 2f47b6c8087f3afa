module Cx = Cxnum.Cx
module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates

let controls_of (cs : Op.control list) = List.map (fun (c : Op.control) -> (c.cq, c.pos)) cs

module Pkg = Dd.Pkg
module Mat = Dd.Mat
open Dd.Types

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

let run p ~n prog state =
  Pkg.with_root_v p state (fun r ->
      Array.iter
        (function
          | Gate s ->
            Pkg.set_vroot r (Mat.apply_sig p ~n s (Pkg.vroot_edge r));
            Pkg.checkpoint p
          | Measure _ -> ()
          | Cond _ | Reset _ ->
            invalid_arg "Dd_sim.run: dynamic program (use Extraction.run)")
        prog;
      Pkg.vroot_edge r)

let simulate p (c : Circ.t) =
  if Circ.is_dynamic c then
    invalid_arg "Dd_sim.simulate: dynamic circuit (use Extraction.run)";
  let n = c.Circ.num_qubits in
  let prog = compile p c.Circ.ops in
  run p ~n prog (Pkg.zero_state p n)

let build_unitary p (c : Circ.t) =
  let n = c.Circ.num_qubits in
  let prog = compile p c.Circ.ops in
  Pkg.with_root_m p (Pkg.ident p n) (fun r ->
      Array.iter
        (function
          | Gate s ->
            Pkg.set_mroot r (Mat.mul_sig p ~n ~left:true s (Pkg.mroot_edge r));
            Pkg.checkpoint p
          | Cond _ | Measure _ | Reset _ ->
            invalid_arg "Dd_sim.build_unitary: non-unitary operation in circuit")
        prog;
      Pkg.mroot_edge r)

let readout_limit = 1 lsl 22

let measured_distribution state ~n ~num_cbits ~measures ?(cutoff = 1e-12) () =
  (* a classical bit holds what its last measurement read; [sets.(q)]
     are the bits that qubit [q] ends up in *)
  let source = Array.make num_cbits (-1) in
  List.iter (fun (q, cb) -> source.(cb) <- q) measures;
  let sets = Array.make n [] in
  Array.iteri (fun cb q -> if q >= 0 then sets.(q) <- cb :: sets.(q)) source;
  let key = Bytes.make num_cbits '0' in
  let out = ref [] and paths = ref 0 in
  let mass_of (e : vedge) = Cx.abs2 (Cxnum.Cx_table.to_cx e.vw) in
  (* [mass] is the probability of reaching [t]; a level's key bits are
     written before its subtrees are walked, so [key] holds the path's *)
  let rec walk (t : vnode option) mass =
    if mass > cutoff && !paths < readout_limit then
      match t with
      | None ->
        incr paths;
        out := (Bytes.to_string key, mass) :: !out
      | Some nd -> (
        match sets.(nd.vvar) with
        | [] when vnode_id nd.v0.vt = vnode_id nd.v1.vt ->
          walk nd.v0.vt (mass *. (mass_of nd.v0 +. mass_of nd.v1))
        | bits ->
          let set c = List.iter (fun cb -> Bytes.set key cb c) bits in
          set '0';
          edge nd.v0 mass;
          set '1';
          edge nd.v1 mass)
  and edge (e : vedge) mass = if not (vedge_is_zero e) then walk e.vt (mass *. mass_of e) in
  edge state 1.0;
  Classical.canonical (List.rev !out)
