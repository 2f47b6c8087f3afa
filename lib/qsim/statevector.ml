module Cx = Cxnum.Cx
module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates

type t =
  { n : int
  ; amps : Cx.t array
  }

let init n =
  let amps = Array.make (1 lsl n) Cx.zero in
  amps.(0) <- Cx.one;
  { n; amps }

let of_bits n bits =
  let amps = Array.make (1 lsl n) Cx.zero in
  let idx = ref 0 in
  for q = 0 to n - 1 do
    if bits q then idx := !idx lor (1 lsl q)
  done;
  amps.(!idx) <- Cx.one;
  { n; amps }

let copy sv = { sv with amps = Array.copy sv.amps }

let apply_gate sv ~controls ~target u =
  let mask = 1 lsl target in
  let active i =
    List.for_all (fun (q, pos) -> (i lsr q) land 1 = Bool.to_int pos) controls
  in
  let dim = Array.length sv.amps in
  for i = 0 to dim - 1 do
    (* visit each amplitude pair once, via its low member *)
    if i land mask = 0 && active i then begin
      let j = i lor mask in
      let a0 = sv.amps.(i) and a1 = sv.amps.(j) in
      sv.amps.(i) <- Cx.add (Cx.mul u.(0) a0) (Cx.mul u.(1) a1);
      sv.amps.(j) <- Cx.add (Cx.mul u.(2) a0) (Cx.mul u.(3) a1)
    end
  done

let apply_swap sv a b =
  let dim = Array.length sv.amps in
  let ma = 1 lsl a and mb = 1 lsl b in
  for i = 0 to dim - 1 do
    if i land ma <> 0 && i land mb = 0 then begin
      let j = (i lxor ma) lor mb in
      let tmp = sv.amps.(i) in
      sv.amps.(i) <- sv.amps.(j);
      sv.amps.(j) <- tmp
    end
  done

let apply_unitary_op sv op =
  match (op : Op.t) with
  | Apply { gate; controls; target } ->
    let controls = List.map (fun (c : Op.control) -> (c.cq, c.pos)) controls in
    apply_gate sv ~controls ~target (Gates.matrix gate)
  | Swap (a, b) -> apply_swap sv a b
  | Measure _ | Reset _ | Cond _ | Barrier _ ->
    invalid_arg "Statevector.apply_unitary_op: non-unitary operation"

let run_unitary c =
  if Circ.is_dynamic c then
    invalid_arg "Statevector.run_unitary: dynamic circuit (use extract_distribution)";
  let sv = init c.Circ.num_qubits in
  let step op =
    match (op : Op.t) with
    | Measure _ | Barrier _ -> ()
    | Apply _ | Swap _ -> apply_unitary_op sv op
    | Reset _ | Cond _ -> assert false (* excluded by is_dynamic *)
  in
  List.iter step c.Circ.ops;
  sv

let probabilities sv q =
  let mask = 1 lsl q in
  let p0 = ref 0.0 and p1 = ref 0.0 in
  Array.iteri
    (fun i a -> if i land mask = 0 then p0 := !p0 +. Cx.abs2 a else p1 := !p1 +. Cx.abs2 a)
    sv.amps;
  (!p0, !p1)

let project sv q outcome =
  let mask = 1 lsl q in
  let keep i = (if outcome = 0 then i land mask = 0 else i land mask <> 0) in
  let p = ref 0.0 in
  Array.iteri (fun i a -> if keep i then p := !p +. Cx.abs2 a) sv.amps;
  if !p <= 1e-14 then invalid_arg "Statevector.project: outcome has zero probability";
  let scale = 1.0 /. Float.sqrt !p in
  Array.iteri
    (fun i a -> sv.amps.(i) <- (if keep i then Cx.scale scale a else Cx.zero))
    sv.amps

let probability_of sv bits =
  let idx = ref 0 in
  for q = 0 to sv.n - 1 do
    if bits q then idx := !idx lor (1 lsl q)
  done;
  Cx.abs2 sv.amps.(!idx)

let norm sv =
  Float.sqrt (Array.fold_left (fun acc a -> acc +. Cx.abs2 a) 0.0 sv.amps)

let fidelity a b =
  if a.n <> b.n then invalid_arg "Statevector.fidelity: size mismatch";
  let ip = ref Cx.zero in
  Array.iteri (fun i x -> ip := Cx.add !ip (Cx.mul (Cx.conj x) b.amps.(i))) a.amps;
  Cx.abs2 !ip

(* Dense branching extraction: the same algorithm as the paper's Section 5
   (and Extraction in this library), but over dense vectors; kept as an
   independent oracle for the DD implementation. *)
let extract_distribution ?(cutoff = 1e-12) (c : Circ.t) =
  let leaves = ref [] in
  let record cvals prob = leaves := (Bytes.to_string cvals, prob) :: !leaves in
  let rec walk sv ops cvals prob =
    if prob > cutoff then begin
      match ops with
      | [] -> record cvals prob
      | op :: rest ->
        (match (op : Op.t) with
         | Apply _ | Swap _ ->
           apply_unitary_op sv op;
           walk sv rest cvals prob
         | Barrier _ -> walk sv rest cvals prob
         | Cond { cond; op } ->
           if Classical.cond_holds cond cvals then apply_unitary_op sv op;
           walk sv rest cvals prob
         | Measure { qubit; cbit } ->
           let p0, p1 = probabilities sv qubit in
           let total = p0 +. p1 in
           let p0 = p0 /. total and p1 = p1 /. total in
           if p1 *. prob > cutoff then begin
             let sv1 = copy sv in
             project sv1 qubit 1;
             let cvals1 = Bytes.copy cvals in
             Bytes.set cvals1 cbit '1';
             walk sv1 rest cvals1 (prob *. p1)
           end;
           if p0 *. prob > cutoff then begin
             project sv qubit 0;
             Bytes.set cvals cbit '0';
             walk sv rest cvals (prob *. p0)
           end
         | Reset qubit ->
           let p0, p1 = probabilities sv qubit in
           let total = p0 +. p1 in
           let p0 = p0 /. total and p1 = p1 /. total in
           if p1 *. prob > cutoff then begin
             let sv1 = copy sv in
             project sv1 qubit 1;
             apply_gate sv1 ~controls:[] ~target:qubit (Gates.matrix Gates.X);
             walk sv1 rest (Bytes.copy cvals) (prob *. p1)
           end;
           if p0 *. prob > cutoff then begin
             project sv qubit 0;
             walk sv rest cvals (prob *. p0)
           end)
    end
  in
  let cvals = Bytes.make c.Circ.num_cbits '0' in
  walk (init c.Circ.num_qubits) c.Circ.ops cvals 1.0;
  Classical.canonical !leaves

let unitary_matrix (c : Circ.t) =
  let n = c.Circ.num_qubits in
  let dim = 1 lsl n in
  let cols =
    Array.init dim (fun col ->
      let sv = of_bits n (fun q -> (col lsr q) land 1 = 1) in
      let step op =
        match (op : Op.t) with
        | Measure _ | Barrier _ -> ()
        | Apply _ | Swap _ -> apply_unitary_op sv op
        | Reset _ | Cond _ ->
          invalid_arg "Statevector.unitary_matrix: non-unitary circuit"
      in
      List.iter step c.Circ.ops;
      sv.amps)
  in
  Array.init dim (fun row -> Array.init dim (fun col -> cols.(col).(row)))
