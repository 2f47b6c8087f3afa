module Circ = Circuit.Circ

type result =
  { counts : (string * int) list
  ; shots : int
  }

let empirical r =
  let total = float_of_int r.shots in
  List.map (fun (k, v) -> (k, float_of_int v /. total)) r.counts

module Pkg = Dd.Pkg
module Vec = Dd.Vec
module Mat = Dd.Mat

let one_shot ~rng p ~n prog num_cbits =
  let cvals = Bytes.make num_cbits '0' in
  let sample state qubit =
    let p0, p1 = Vec.probabilities p state qubit in
    let outcome = if Random.State.float rng (p0 +. p1) < p0 then 0 else 1 in
    (outcome, Vec.project p state qubit outcome)
  in
  let step r (i : Dd_sim.instr) =
    let state = Pkg.vroot_edge r in
    (match i with
     | Gate s -> Pkg.set_vroot r (Mat.apply_sig p ~n s state)
     | Cond (cond, s) ->
       if Classical.cond_holds cond cvals then
         Pkg.set_vroot r (Mat.apply_sig p ~n s state)
     | Measure { qubit; cbit } ->
       let outcome, state = sample state qubit in
       Bytes.set cvals cbit (if outcome = 1 then '1' else '0');
       Pkg.set_vroot r state
     | Reset { qubit; x } ->
       let outcome, state = sample state qubit in
       Pkg.set_vroot r (if outcome = 1 then Mat.apply_sig p ~n x state else state));
    Pkg.checkpoint p
  in
  Pkg.with_root_v p (Pkg.zero_state p n) (fun r -> Array.iter (step r) prog);
  Bytes.to_string cvals

let run ~seed ~shots (c : Circ.t) =
  let rng = Random.State.make [| seed; shots; 0x5a0d |] in
  let n = c.Circ.num_qubits in
  let counts = Hashtbl.create 64 in
  (* one package for all shots: states from different shots share nodes,
     which is exactly what makes repeated runs affordable *)
  let p = Pkg.create () in
  let prog = Dd_sim.compile p c.Circ.ops in
  for _ = 1 to shots do
    let key = one_shot ~rng p ~n prog c.Circ.num_cbits in
    let prev = Option.value ~default:0 (Hashtbl.find_opt counts key) in
    Hashtbl.replace counts key (prev + 1)
  done;
  let counts =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { counts; shots }
