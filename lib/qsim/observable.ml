module Cx = Cxnum.Cx
module Gates = Circuit.Gates

type pauli =
  | I
  | X
  | Y
  | Z

type term =
  { coefficient : float
  ; paulis : (int * pauli) list
  }

type t = term list

let z q = [ { coefficient = 1.0; paulis = [ (q, Z) ] } ]
let zz a b = [ { coefficient = 1.0; paulis = [ (a, Z); (b, Z) ] } ]
let parity qubits = [ { coefficient = 1.0; paulis = List.map (fun q -> (q, Z)) qubits } ]

let number qubits =
  { coefficient = 0.5 *. float_of_int (List.length qubits); paulis = [] }
  :: List.map (fun q -> { coefficient = -0.5; paulis = [ (q, Z) ] }) qubits

let scale s obs = List.map (fun t -> { t with coefficient = s *. t.coefficient }) obs
let add a b = a @ b

let matrix_of_pauli = function
  | I -> Gates.matrix Gates.I
  | X -> Gates.matrix Gates.X
  | Y -> Gates.matrix Gates.Y
  | Z -> Gates.matrix Gates.Z

let validate_term term =
  let qs = List.map fst term.paulis in
  if List.length (List.sort_uniq compare qs) <> List.length qs then
    invalid_arg "Observable: duplicate qubit in a Pauli string"

module Pkg = Dd.Pkg
module Vec = Dd.Vec
module Mat = Dd.Mat

let expectation p state ~n obs =
  (* root the input and the per-term transformed state so the loop can
     pass through auto-GC safepoints between Pauli applications *)
  Pkg.with_root_v p state (fun rs ->
      let term_value term =
        validate_term term;
        Pkg.with_root_v p (Pkg.vroot_edge rs) (fun rt ->
            List.iter
              (fun (q, pauli) ->
                match pauli with
                | I -> ()
                | _ ->
                  Pkg.set_vroot rt
                    (Mat.apply_gate p ~n ~controls:[] ~target:q
                       (matrix_of_pauli pauli) (Pkg.vroot_edge rt));
                  Pkg.checkpoint p)
              term.paulis;
            term.coefficient
            *. (Vec.inner_product p (Pkg.vroot_edge rs) (Pkg.vroot_edge rt))
                 .Cx.re)
      in
      List.fold_left (fun acc term -> acc +. term_value term) 0.0 obs)

let expectation_dense (sv : Statevector.t) obs =
  let term_value term =
    validate_term term;
    let copy = Statevector.copy sv in
    List.iter
      (fun (q, pauli) ->
        match pauli with
        | I -> ()
        | _ -> Statevector.apply_gate copy ~controls:[] ~target:q (matrix_of_pauli pauli))
      term.paulis;
    let ip = ref Cx.zero in
    Array.iteri
      (fun i a -> ip := Cx.add !ip (Cx.mul (Cx.conj a) copy.Statevector.amps.(i)))
      sv.Statevector.amps;
    term.coefficient *. !ip.Cx.re
  in
  List.fold_left (fun acc term -> acc +. term_value term) 0.0 obs

let expectation_density d obs =
  let rho = Density.final_density d in
  let dim = Array.length rho in
  let n =
    let rec log2 x acc = if x = 1 then acc else log2 (x / 2) (acc + 1) in
    log2 dim 0
  in
  (* Tr(rho P) with P a Pauli string: sum over basis states of the matrix
     element <i| rho P |i>; evaluate P |i> = phase * |j> directly. *)
  let term_value term =
    validate_term term;
    let total = ref Cx.zero in
    for i = 0 to dim - 1 do
      (* compute P|i> = phase |j| *)
      let j = ref i and phase = ref Cx.one in
      List.iter
        (fun (q, pauli) ->
          if q >= n then invalid_arg "Observable.expectation_density: qubit range";
          let bit = (!j lsr q) land 1 in
          match pauli with
          | I -> ()
          | X -> j := !j lxor (1 lsl q)
          | Y ->
            j := !j lxor (1 lsl q);
            phase := Cx.mul !phase (if bit = 0 then Cx.i else Cx.neg Cx.i)
          | Z -> if bit = 1 then phase := Cx.neg !phase)
        term.paulis;
      (* <i| rho (phase |j>) ... careful: we need Tr(rho P) = sum_i (rho P)_{ii}
         = sum_i rho_{i,j(i)} * phase(i) where P|i> = phase |j> means
         P_{j,i} = phase, so (rho P)_{ii} = rho_{i,j} P_{j,i}. *)
      total := Cx.add !total (Cx.mul rho.(i).(!j) !phase)
    done;
    term.coefficient *. !total.Cx.re
  in
  List.fold_left (fun acc term -> acc +. term_value term) 0.0 obs
