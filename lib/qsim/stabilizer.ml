module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates

(* Aaronson-Gottesman tableau: rows 0..n-1 are destabilizers, n..2n-1
   stabilizers; each row is a Pauli string with x/z bit vectors and a sign
   bit. *)
type t =
  { n : int
  ; x : Bytes.t array (* (2n) rows of n bytes, 0/1 *)
  ; z : Bytes.t array
  ; r : Bytes.t (* 2n sign bits *)
  }

let getb b i = Bytes.get_uint8 b i
let setb b i v = Bytes.set_uint8 b i v

let init n =
  let x = Array.init (2 * n) (fun _ -> Bytes.make n '\000') in
  let z = Array.init (2 * n) (fun _ -> Bytes.make n '\000') in
  (* destabilizer i = X_i, stabilizer n+i = Z_i *)
  for i = 0 to n - 1 do
    setb x.(i) i 1;
    setb z.(n + i) i 1
  done;
  { n; x; z; r = Bytes.make (2 * n) '\000' }

let num_qubits st = st.n

let copy st =
  { st with
    x = Array.map Bytes.copy st.x
  ; z = Array.map Bytes.copy st.z
  ; r = Bytes.copy st.r
  }

(* single-qubit Clifford conjugations *)
let apply_h st q =
  for i = 0 to (2 * st.n) - 1 do
    let xi = getb st.x.(i) q and zi = getb st.z.(i) q in
    setb st.r i (getb st.r i lxor (xi land zi));
    setb st.x.(i) q zi;
    setb st.z.(i) q xi
  done

let apply_s st q =
  for i = 0 to (2 * st.n) - 1 do
    let xi = getb st.x.(i) q and zi = getb st.z.(i) q in
    setb st.r i (getb st.r i lxor (xi land zi));
    setb st.z.(i) q (zi lxor xi)
  done

let apply_x st q =
  for i = 0 to (2 * st.n) - 1 do
    setb st.r i (getb st.r i lxor getb st.z.(i) q)
  done

let apply_z st q =
  for i = 0 to (2 * st.n) - 1 do
    setb st.r i (getb st.r i lxor getb st.x.(i) q)
  done

let apply_y st q =
  for i = 0 to (2 * st.n) - 1 do
    setb st.r i (getb st.r i lxor (getb st.x.(i) q lxor getb st.z.(i) q))
  done

let apply_cx st c t =
  for i = 0 to (2 * st.n) - 1 do
    let xc = getb st.x.(i) c and zc = getb st.z.(i) c in
    let xt = getb st.x.(i) t and zt = getb st.z.(i) t in
    setb st.r i (getb st.r i lxor (xc land zt land (xt lxor zc lxor 1)));
    setb st.x.(i) t (xt lxor xc);
    setb st.z.(i) c (zc lxor zt)
  done

let is_clifford_gate (g : Gates.t) =
  match g with
  | Gates.I | Gates.X | Gates.Y | Gates.Z | Gates.H | Gates.S | Gates.Sdg
  | Gates.SX | Gates.SXdg -> true
  | Gates.T | Gates.Tdg | Gates.RX _ | Gates.RY _ | Gates.RZ _ | Gates.P _
  | Gates.U2 _ | Gates.U3 _ -> false

let apply_gate st (g : Gates.t) q =
  match g with
  | Gates.I -> ()
  | Gates.X -> apply_x st q
  | Gates.Y -> apply_y st q
  | Gates.Z -> apply_z st q
  | Gates.H -> apply_h st q
  | Gates.S -> apply_s st q
  | Gates.Sdg ->
    apply_s st q;
    apply_z st q
  | Gates.SX ->
    (* sqrt X = H . S . H up to global phase *)
    apply_h st q;
    apply_s st q;
    apply_h st q
  | Gates.SXdg ->
    apply_h st q;
    apply_s st q;
    apply_z st q;
    apply_h st q
  | Gates.T | Gates.Tdg | Gates.RX _ | Gates.RY _ | Gates.RZ _ | Gates.P _
  | Gates.U2 _ | Gates.U3 _ ->
    invalid_arg (Fmt.str "Stabilizer: %s is not a Clifford gate" (Gates.name g))

let apply_unitary_op st (op : Op.t) =
  match op with
  | Apply { gate; controls = []; target } -> apply_gate st gate target
  | Apply { gate = Gates.X; controls = [ { cq; pos = true } ]; target } ->
    apply_cx st cq target
  | Apply { gate = Gates.Z; controls = [ { cq; pos = true } ]; target } ->
    apply_h st target;
    apply_cx st cq target;
    apply_h st target
  | Swap (a, b) ->
    apply_cx st a b;
    apply_cx st b a;
    apply_cx st a b
  | Apply _ -> invalid_arg "Stabilizer: unsupported controlled operation"
  | Measure _ | Reset _ | Cond _ | Barrier _ ->
    invalid_arg "Stabilizer.apply_unitary_op: non-unitary operation"

let clifford_op (op : Op.t) =
  match op with
  | Apply { gate; controls = []; _ } -> is_clifford_gate gate
  | Apply { gate = Gates.X; controls = [ { pos = true; _ } ]; _ } -> true
  | Apply { gate = Gates.Z; controls = [ { pos = true; _ } ]; _ } -> true
  | Apply _ -> false
  | Swap _ | Measure _ | Reset _ | Barrier _ -> true
  | Cond _ -> false (* handled by the recursive check below *)

let rec clifford_op_rec (op : Op.t) =
  match op with
  | Cond { op; _ } -> clifford_op_rec op
  | _ -> clifford_op op

let is_clifford_circuit (c : Circ.t) = List.for_all clifford_op_rec c.Circ.ops

(* phase-tracking row multiplication: row h <- row h * row i (AG's rowsum),
   with the exponent of the i prefactor accumulated mod 4 *)
let rowsum st h i =
  let g x1 z1 x2 z2 =
    (* exponent of i contributed by multiplying single-qubit Paulis *)
    if x1 = 0 && z1 = 0 then 0
    else if x1 = 1 && z1 = 1 then z2 - x2
    else if x1 = 1 && z1 = 0 then z2 * ((2 * x2) - 1)
    else x2 * (1 - (2 * z2))
  in
  let total = ref ((2 * getb st.r h) + (2 * getb st.r i)) in
  for j = 0 to st.n - 1 do
    total :=
      !total + g (getb st.x.(i) j) (getb st.z.(i) j) (getb st.x.(h) j) (getb st.z.(h) j)
  done;
  (* stabilizer-row sums are always 0 or 2 mod 4; destabilizer rows may
     anticommute with the row being merged in, giving odd sums — their
     phases carry no meaning, so any consistent choice works *)
  let m = ((!total mod 4) + 4) mod 4 in
  setb st.r h ((m / 2) land 1);
  for j = 0 to st.n - 1 do
    setb st.x.(h) j (getb st.x.(h) j lxor getb st.x.(i) j);
    setb st.z.(h) j (getb st.z.(h) j lxor getb st.z.(i) j)
  done

(* does any stabilizer row anticommute with Z_q? *)
let random_row st q =
  let rec find p = if p = 2 * st.n then None
    else if getb st.x.(p) q = 1 then Some p
    else find (p + 1)
  in
  find st.n

(* deterministic outcome of measuring Z_q: combine the stabilizer rows
   singled out by the destabilizers into a scratch row *)
let deterministic_outcome st q =
  let scratch_x = Bytes.make st.n '\000' and scratch_z = Bytes.make st.n '\000' in
  let scratch_r = ref 0 in
  (* emulate rowsum into a scratch row *)
  let g x1 z1 x2 z2 =
    if x1 = 0 && z1 = 0 then 0
    else if x1 = 1 && z1 = 1 then z2 - x2
    else if x1 = 1 && z1 = 0 then z2 * ((2 * x2) - 1)
    else x2 * (1 - (2 * z2))
  in
  let add_row i =
    let total = ref ((2 * !scratch_r) + (2 * getb st.r i)) in
    for j = 0 to st.n - 1 do
      total := !total + g (getb st.x.(i) j) (getb st.z.(i) j) (getb scratch_x j) (getb scratch_z j)
    done;
    let m = ((!total mod 4) + 4) mod 4 in
    scratch_r := m / 2;
    for j = 0 to st.n - 1 do
      setb scratch_x j (getb scratch_x j lxor getb st.x.(i) j);
      setb scratch_z j (getb scratch_z j lxor getb st.z.(i) j)
    done
  in
  for i = 0 to st.n - 1 do
    if getb st.x.(i) q = 1 then add_row (i + st.n)
  done;
  !scratch_r

let measure_probabilities st q =
  match random_row st q with
  | Some _ -> (0.5, 0.5)
  | None -> if deterministic_outcome st q = 0 then (1.0, 0.0) else (0.0, 1.0)

(* collapse after a random-outcome measurement *)
let collapse_random st p q outcome =
  for i = 0 to (2 * st.n) - 1 do
    if i <> p && getb st.x.(i) q = 1 then rowsum st i p
  done;
  (* destabilizer takes the old stabilizer row; the stabilizer becomes
     (+/-) Z_q *)
  Bytes.blit st.x.(p) 0 st.x.(p - st.n) 0 st.n;
  Bytes.blit st.z.(p) 0 st.z.(p - st.n) 0 st.n;
  setb st.r (p - st.n) (getb st.r p);
  Bytes.fill st.x.(p) 0 st.n '\000';
  Bytes.fill st.z.(p) 0 st.n '\000';
  setb st.z.(p) q 1;
  setb st.r p outcome

let project st q outcome =
  match random_row st q with
  | Some p -> collapse_random st p q outcome
  | None ->
    if deterministic_outcome st q <> outcome then
      invalid_arg "Stabilizer.project: outcome has zero probability"


(* Section 5 extraction on the tableau: deterministic measurements follow a
   single branch, random ones split 50/50. *)
let extract_distribution (c : Circ.t) =
  if not (is_clifford_circuit c) then
    invalid_arg "Stabilizer.extract_distribution: non-Clifford circuit";
  let leaves = ref [] in
  let rec walk st ops cvals prob =
    match ops with
    | [] -> leaves := (Bytes.to_string cvals, prob) :: !leaves
    | op :: rest ->
      (match (op : Op.t) with
       | Barrier _ -> walk st rest cvals prob
       | Apply _ | Swap _ ->
         apply_unitary_op st op;
         walk st rest cvals prob
       | Cond { cond; op } ->
         if Classical.cond_holds cond cvals then apply_unitary_op st op;
         walk st rest cvals prob
       | Reset q ->
         (* a reset of an entangled qubit is a branching point too: the two
            projection outcomes leave different states on the other qubits,
            they just feed the same classical assignment *)
         (match random_row st q with
          | None ->
            if deterministic_outcome st q = 1 then apply_x st q;
            walk st rest cvals prob
          | Some p ->
            let other = copy st in
            collapse_random st p q 0;
            walk st rest cvals (prob /. 2.0);
            (match random_row other q with
             | Some p1 ->
               collapse_random other p1 q 1;
               apply_x other q
             | None -> assert false);
            walk other rest (Bytes.copy cvals) (prob /. 2.0))
       | Measure { qubit; cbit } ->
         (match random_row st qubit with
          | None ->
            let outcome = deterministic_outcome st qubit in
            Bytes.set cvals cbit (if outcome = 1 then '1' else '0');
            walk st rest cvals prob
          | Some p ->
            let other = copy st in
            collapse_random st p qubit 0;
            Bytes.set cvals cbit '0';
            let cvals1 = Bytes.copy cvals in
            Bytes.set cvals1 cbit '1';
            walk st rest cvals (prob /. 2.0);
            (match random_row other qubit with
             | Some p1 -> collapse_random other p1 qubit 1
             | None -> assert false);
            walk other rest cvals1 (prob /. 2.0)))
  in
  walk (init c.Circ.num_qubits) c.Circ.ops (Bytes.make c.Circ.num_cbits '0') 1.0;
  Classical.canonical !leaves

let run_shot ~rng (c : Circ.t) =
  let st = init c.Circ.num_qubits in
  let cvals = Bytes.make c.Circ.num_cbits '0' in
  let sample q =
    match random_row st q with
    | None -> deterministic_outcome st q
    | Some p ->
      let outcome = if Random.State.bool rng then 1 else 0 in
      collapse_random st p q outcome;
      outcome
  in
  let step op =
    match (op : Op.t) with
    | Barrier _ -> ()
    | Apply _ | Swap _ -> apply_unitary_op st op
    | Cond { cond; op } ->
      if Classical.cond_holds cond cvals then apply_unitary_op st op
    | Reset q ->
      let outcome = sample q in
      if outcome = 1 then apply_x st q
    | Measure { qubit; cbit } ->
      let outcome = sample qubit in
      Bytes.set cvals cbit (if outcome = 1 then '1' else '0')
  in
  List.iter step c.Circ.ops;
  Bytes.to_string cvals
