type t =
  { name : string
  ; num_qubits : int
  ; num_cbits : int
  ; ops : Op.t list
  }

let make ~name ~qubits ~cbits ops =
  if qubits < 0 || cbits < 0 then invalid_arg "Circ.make: negative register size";
  List.iteri
    (fun i op ->
      match Op.validate ~num_qubits:qubits ~num_cbits:cbits op with
      | Ok () -> ()
      | Error msg ->
        invalid_arg (Fmt.str "Circ.make(%s): op %d invalid: %s" name i msg))
    ops;
  { name; num_qubits = qubits; num_cbits = cbits; ops }

let make_unchecked ~name ~qubits ~cbits ops =
  if qubits < 0 || cbits < 0 then
    invalid_arg "Circ.make_unchecked: negative register size";
  { name; num_qubits = qubits; num_cbits = cbits; ops }

type op_counts =
  { gates : int
  ; measurements : int
  ; resets : int
  ; conditioned : int
  ; barriers : int
  }

let op_counts c =
  let zero = { gates = 0; measurements = 0; resets = 0; conditioned = 0; barriers = 0 } in
  let count acc op =
    match op with
    | Op.Apply _ | Op.Swap _ -> { acc with gates = acc.gates + 1 }
    | Op.Measure _ -> { acc with measurements = acc.measurements + 1 }
    | Op.Reset _ -> { acc with resets = acc.resets + 1 }
    | Op.Cond _ ->
      { acc with gates = acc.gates + 1; conditioned = acc.conditioned + 1 }
    | Op.Barrier _ -> { acc with barriers = acc.barriers + 1 }
  in
  List.fold_left count zero c.ops

let gate_count c = (op_counts c).gates
let total_ops c = List.length c.ops

let is_dynamic c =
  (* A measurement is dynamic when anything after it acts on the measured
     qubit or reads its classical bit; resets and conditions always are. *)
  let rec scan = function
    | [] -> false
    | Op.Reset _ :: _ -> true
    | Op.Cond _ :: _ -> true
    | Op.Measure { qubit; cbit } :: rest ->
      let uses op =
        List.mem qubit (Op.qubits op) || List.mem cbit (Op.cbits_read op)
      in
      List.exists uses rest || scan rest
    | (Op.Apply _ | Op.Swap _ | Op.Barrier _) :: rest -> scan rest
  in
  scan c.ops

let measurements c =
  List.filter_map
    (function Op.Measure { qubit; cbit } -> Some (qubit, cbit) | _ -> None)
    c.ops

let strip_measurements c =
  let keep = function
    | Op.Measure _ | Op.Barrier _ -> false
    | Op.Apply _ | Op.Swap _ | Op.Reset _ | Op.Cond _ -> true
  in
  { c with ops = List.filter keep c.ops }

let inverse c =
  let inverted = List.rev_map Op.adjoint c.ops in
  { c with name = c.name ^ "_inv"; ops = inverted }

let is_permutation p =
  let n = Array.length p in
  let seen = Array.make n false in
  Array.for_all
    (fun q ->
      let fresh = q >= 0 && q < n && not seen.(q) in
      if fresh then seen.(q) <- true;
      fresh)
    p

let remap c ~perm =
  if Array.length perm <> c.num_qubits then
    invalid_arg "Circ.remap: permutation size mismatch";
  if not (is_permutation perm) then invalid_arg "Circ.remap: not a permutation";
  { c with ops = List.map (Op.map_qubits (fun q -> perm.(q))) c.ops }

let append a b =
  if a.num_qubits <> b.num_qubits || a.num_cbits <> b.num_cbits then
    invalid_arg "Circ.append: register mismatch";
  { a with ops = a.ops @ b.ops }

let with_name c name = { c with name }

(* Content digest over the canonical op stream.  Everything that cannot
   change the implemented channel is left out: the circuit name (and any
   source-level metadata like comments or line numbers, which the parsers
   already discard), barriers, control list order, swap operand order.
   Under [perm_invariant] qubits are relabeled by first use in structural
   order — the label walk visits wire positions in the same sequence for a
   circuit and any [remap] of it, so permuted copies serialize
   identically. *)
let digest ?(perm_invariant = false) c =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "qcd/v1|q%d|c%d|" c.num_qubits c.num_cbits);
  let label =
    if not perm_invariant then fun q -> q
    else begin
      let map = Array.make (max c.num_qubits 1) (-1) in
      let next = ref 0 in
      fun q ->
        if map.(q) < 0 then begin
          map.(q) <- !next;
          incr next
        end;
        map.(q)
    end
  in
  let add_gate g =
    Buffer.add_string b (Gates.name g);
    List.iter
      (fun p -> Buffer.add_string b (Printf.sprintf ",%.17g" p))
      (Gates.params g)
  in
  let rec add_op op =
    (* fix labels in structural order (target before controls) so the
       relabeling is independent of the sort below *)
    List.iter (fun q -> ignore (label q)) (Op.qubits op);
    match (op : Op.t) with
    | Apply { gate; controls; target } ->
      Buffer.add_string b "A:";
      add_gate gate;
      Buffer.add_char b ';';
      List.map (fun (c : Op.control) -> (label c.cq, c.pos)) controls
      |> List.sort compare
      |> List.iter (fun (q, pos) ->
             Buffer.add_string b (Printf.sprintf "%c%d," (if pos then '+' else '-') q));
      Buffer.add_string b (Printf.sprintf ";%d" (label target))
    | Swap (x, y) ->
      let x = label x and y = label y in
      Buffer.add_string b (Printf.sprintf "S:%d,%d" (min x y) (max x y))
    | Measure { qubit; cbit } ->
      Buffer.add_string b (Printf.sprintf "M:%d,%d" (label qubit) cbit)
    | Reset q -> Buffer.add_string b (Printf.sprintf "R:%d" (label q))
    | Cond { cond; op } ->
      (* bit list order is semantic: [value] is read positionally *)
      Buffer.add_string b "C:";
      List.iter (fun bit -> Buffer.add_string b (string_of_int bit ^ ",")) cond.bits;
      Buffer.add_string b (Printf.sprintf "=%d{" cond.value);
      add_op op;
      Buffer.add_char b '}'
    | Barrier _ -> ()
  in
  List.iter
    (fun op ->
      match op with
      | Op.Barrier _ -> ()  (* no effect on any checking scheme *)
      | _ ->
        add_op op;
        Buffer.add_char b '\n')
    c.ops;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pp ppf c =
  Fmt.pf ppf "@[<v>circuit %s (%d qubits, %d cbits):@,%a@]" c.name c.num_qubits
    c.num_cbits
    (Fmt.list ~sep:Fmt.cut Op.pp)
    c.ops
