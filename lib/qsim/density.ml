module Cx = Cxnum.Cx
module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates

type rho = Cx.t array array

type t =
  { n : int
  ; ensemble : (string, rho) Hashtbl.t
  }

let dim_of n = 1 lsl n

let zero_rho n =
  let dim = dim_of n in
  Array.init dim (fun _ -> Array.make dim Cx.zero)

let init_rho n =
  let m = zero_rho n in
  m.(0).(0) <- Cx.one;
  m

(* Apply a (not necessarily unitary) 2x2 operator [k] to qubit [target] of
   rho from the left (k rho) and its adjoint from the right (rho k^dagger),
   i.e. rho <- k rho k^dagger, restricted to rows/columns where [controls]
   are satisfied.  Left action transforms row pairs; right action column
   pairs with the conjugated matrix. *)
let conjugate_by ~n ~controls ~target (k : Cx.t array) (m : rho) =
  let dim = dim_of n in
  let mask = 1 lsl target in
  let active i =
    List.for_all (fun (q, pos) -> (i lsr q) land 1 = Bool.to_int pos) controls
  in
  (* rows: m <- k m on active row pairs *)
  for i = 0 to dim - 1 do
    if i land mask = 0 && active i then begin
      let j = i lor mask in
      for c = 0 to dim - 1 do
        let a0 = m.(i).(c) and a1 = m.(j).(c) in
        m.(i).(c) <- Cx.add (Cx.mul k.(0) a0) (Cx.mul k.(1) a1);
        m.(j).(c) <- Cx.add (Cx.mul k.(2) a0) (Cx.mul k.(3) a1)
      done
    end
  done;
  (* columns: m <- m k^dagger on active column pairs;
     (m k^dagger)_{r,i} = m_{r,i} conj(k00) + m_{r,j} conj(k01) etc. *)
  for i = 0 to dim - 1 do
    if i land mask = 0 && active i then begin
      let j = i lor mask in
      for r = 0 to dim - 1 do
        let a0 = m.(r).(i) and a1 = m.(r).(j) in
        m.(r).(i) <- Cx.add (Cx.mul a0 (Cx.conj k.(0))) (Cx.mul a1 (Cx.conj k.(1)));
        m.(r).(j) <- Cx.add (Cx.mul a0 (Cx.conj k.(2))) (Cx.mul a1 (Cx.conj k.(3)))
      done
    end
  done

let copy_rho m = Array.map Array.copy m

let add_into dst src =
  Array.iteri (fun r row -> Array.iteri (fun c v -> dst.(r).(c) <- Cx.add dst.(r).(c) v) row) src

let trace_rho m =
  let t = ref 0.0 in
  Array.iteri (fun i row -> t := !t +. row.(i).Cx.re) m;
  !t

let projector outcome =
  if outcome = 0 then [| Cx.one; Cx.zero; Cx.zero; Cx.zero |]
  else [| Cx.zero; Cx.zero; Cx.zero; Cx.one |]

let x_matrix = Gates.matrix Gates.X

let apply_unitary ~n op m =
  match (op : Op.t) with
  | Apply { gate; controls; target } ->
    let controls = List.map (fun (c : Op.control) -> (c.cq, c.pos)) controls in
    conjugate_by ~n ~controls ~target (Gates.matrix gate) m
  | Swap (a, b) ->
    (* native: SWAP rho SWAP exchanges the rows, then the columns, of every
       index pair differing exactly in bits [a] and [b] *)
    let dim = dim_of n in
    let ma = 1 lsl a
    and mb = 1 lsl b in
    for i = 0 to dim - 1 do
      if i land ma <> 0 && i land mb = 0 then begin
        let j = i lxor ma lxor mb in
        let row = m.(i) in
        m.(i) <- m.(j);
        m.(j) <- row
      end
    done;
    for r = 0 to dim - 1 do
      let row = m.(r) in
      for i = 0 to dim - 1 do
        if i land ma <> 0 && i land mb = 0 then begin
          let j = i lxor ma lxor mb in
          let v = row.(i) in
          row.(i) <- row.(j);
          row.(j) <- v
        end
      done
    done
  | Measure _ | Reset _ | Cond _ | Barrier _ ->
    invalid_arg "Density.apply_unitary: non-unitary operation"

type state = t

type noise =
  { depolarizing : float
  ; amplitude_damping : float
  }

let noiseless = { depolarizing = 0.0; amplitude_damping = 0.0 }

(* rho <- sum_k K_k rho K_k^dagger on one qubit; each conjugation is applied
   to a private copy and the results summed. *)
let apply_kraus ~n ~target kraus (m : rho) =
  match kraus with
  | [] -> invalid_arg "Density.apply_kraus: empty channel"
  | first :: rest ->
    let parts =
      List.map
        (fun k ->
          let b = copy_rho m in
          conjugate_by ~n ~controls:[] ~target k b;
          b)
        rest
    in
    conjugate_by ~n ~controls:[] ~target first m;
    List.iter (fun b -> add_into m b) parts

let scale_matrix s k = Array.map (fun z -> Cx.scale s z) k

let apply_noise ~n noise qubits (m : rho) =
  let depolarizing_kraus =
    let p = noise.depolarizing in
    if p <= 0.0 then []
    else begin
      let w_id = Float.sqrt (1.0 -. p) and w_pauli = Float.sqrt (p /. 3.0) in
      [ scale_matrix w_id (Gates.matrix Gates.I)
      ; scale_matrix w_pauli (Gates.matrix Gates.X)
      ; scale_matrix w_pauli (Gates.matrix Gates.Y)
      ; scale_matrix w_pauli (Gates.matrix Gates.Z)
      ]
    end
  in
  let damping_kraus =
    let g = noise.amplitude_damping in
    if g <= 0.0 then []
    else
      [ [| Cx.one; Cx.zero; Cx.zero; Cx.of_float (Float.sqrt (1.0 -. g)) |]
      ; [| Cx.zero; Cx.of_float (Float.sqrt g); Cx.zero; Cx.zero |]
      ]
  in
  let apply target =
    if depolarizing_kraus <> [] then apply_kraus ~n ~target depolarizing_kraus m;
    if damping_kraus <> [] then apply_kraus ~n ~target damping_kraus m
  in
  List.iter apply (List.sort_uniq compare qubits)

let step ?(noise = noiseless) ~n (st : state) op =
  let noisy st =
    if noise = noiseless then st
    else begin
      let qubits = Op.qubits op in
      Hashtbl.iter (fun _ m -> apply_noise ~n noise qubits m) st.ensemble;
      st
    end
  in
  noisy
  @@
  match (op : Op.t) with
  | Barrier _ -> st
  | Apply _ | Swap _ ->
    Hashtbl.iter (fun _ m -> apply_unitary ~n op m) st.ensemble;
    st
  | Cond { cond; op } ->
    Hashtbl.iter
      (fun key m ->
        let cvals = Bytes.of_string key in
        if Classical.cond_holds cond cvals then apply_unitary ~n op m)
      st.ensemble;
    st
  | Reset q ->
    (* channel: P0 rho P0 + X P1 rho P1 X, entry by entry, no splitting *)
    Hashtbl.iter
      (fun _ m ->
        let keep = copy_rho m in
        conjugate_by ~n ~controls:[] ~target:q (projector 0) m;
        conjugate_by ~n ~controls:[] ~target:q (projector 1) keep;
        conjugate_by ~n ~controls:[] ~target:q x_matrix keep;
        add_into m keep)
      st.ensemble;
    st
  | Measure { qubit; cbit } ->
    let next = Hashtbl.create (2 * Hashtbl.length st.ensemble) in
    let merge key m =
      match Hashtbl.find_opt next key with
      | Some existing -> add_into existing m
      | None -> Hashtbl.replace next key m
    in
    Hashtbl.iter
      (fun key m ->
        let branch outcome =
          let b = copy_rho m in
          conjugate_by ~n ~controls:[] ~target:qubit (projector outcome) b;
          if trace_rho b > 1e-15 then begin
            let key' = Bytes.of_string key in
            Bytes.set key' cbit (if outcome = 1 then '1' else '0');
            merge (Bytes.to_string key') b
          end
        in
        branch 0;
        branch 1)
      st.ensemble;
    { st with ensemble = next }

let run_noisy ~noise (c : Circ.t) =
  let n = c.Circ.num_qubits in
  let st = { n; ensemble = Hashtbl.create 8 } in
  Hashtbl.replace st.ensemble (String.make c.Circ.num_cbits '0') (init_rho n);
  List.fold_left (fun st op -> step ~noise ~n st op) st c.Circ.ops

let run c = run_noisy ~noise:noiseless c

let num_qubits st = st.n
let entries st = Hashtbl.length st.ensemble

let distribution st =
  Classical.canonical
    (Hashtbl.fold (fun key m acc -> (key, trace_rho m) :: acc) st.ensemble [])

let final_density st =
  let total = zero_rho st.n in
  Hashtbl.iter (fun _ m -> add_into total m) st.ensemble;
  total

let trace st = trace_rho (final_density st)

let purity st =
  let m = final_density st in
  let dim = dim_of st.n in
  let p = ref 0.0 in
  for r = 0 to dim - 1 do
    for c = 0 to dim - 1 do
      (* Tr(rho^2) = sum_{r,c} rho_{r,c} rho_{c,r}; hermitian, so this is
         sum |rho_{r,c}|^2 *)
      p := !p +. (Cx.mul m.(r).(c) m.(c).(r)).Cx.re
    done
  done;
  !p

let qubit_probability st q =
  let m = final_density st in
  let dim = dim_of st.n in
  let mask = 1 lsl q in
  let p = ref 0.0 in
  for i = 0 to dim - 1 do
    if i land mask <> 0 then p := !p +. m.(i).(i).Cx.re
  done;
  !p
