type control =
  { cq : int
  ; pos : bool
  }

type cond =
  { bits : int list
  ; value : int
  }

type t =
  | Apply of
      { gate : Gates.t
      ; controls : control list
      ; target : int
      }
  | Swap of int * int
  | Measure of
      { qubit : int
      ; cbit : int
      }
  | Reset of int
  | Cond of
      { cond : cond
      ; op : t
      }
  | Barrier of int list

let apply ?(controls = []) gate target = Apply { gate; controls; target }

let controlled gate ~control ~target =
  Apply { gate; controls = [ { cq = control; pos = true } ]; target }

let if_bit ~bit ~value op =
  Cond { cond = { bits = [ bit ]; value = (if value then 1 else 0) }; op }

let rec qubits = function
  | Apply { controls; target; _ } -> target :: List.map (fun c -> c.cq) controls
  | Swap (a, b) -> [ a; b ]
  | Measure { qubit; _ } -> [ qubit ]
  | Reset q -> [ q ]
  | Cond { op; _ } -> qubits op
  | Barrier qs -> qs

let rec cbits_read = function
  | Apply _ | Swap _ | Measure _ | Reset _ | Barrier _ -> []
  | Cond { cond; op } -> cond.bits @ cbits_read op

let rec cbits_written = function
  | Measure { cbit; _ } -> [ cbit ]
  (* a classically-controlled measurement still writes its cbit *)
  | Cond { op; _ } -> cbits_written op
  | Apply _ | Swap _ | Reset _ | Barrier _ -> []

let rec target_qubits = function
  | Apply { target; _ } -> [ target ]
  | Swap (a, b) -> [ a; b ]
  | Measure { qubit; _ } -> [ qubit ]
  | Reset q -> [ q ]
  | Cond { op; _ } -> target_qubits op
  | Barrier _ -> []

let rec control_qubits = function
  | Apply { controls; _ } -> List.map (fun c -> c.cq) controls
  | Cond { op; _ } -> control_qubits op
  | Swap _ | Measure _ | Reset _ | Barrier _ -> []

let rec base = function Cond { op; _ } -> base op | op -> op

let is_unitary = function
  | Apply _ | Swap _ -> true
  | Measure _ | Reset _ | Cond _ | Barrier _ -> false

let is_dynamic_primitive = function
  | Measure _ | Reset _ | Cond _ -> true
  | Apply _ | Swap _ | Barrier _ -> false

let rec map_qubits f = function
  | Apply { gate; controls; target } ->
    Apply
      { gate
      ; controls = List.map (fun c -> { c with cq = f c.cq }) controls
      ; target = f target
      }
  | Swap (a, b) -> Swap (f a, f b)
  | Measure { qubit; cbit } -> Measure { qubit = f qubit; cbit }
  | Reset q -> Reset (f q)
  | Cond { cond; op } -> Cond { cond; op = map_qubits f op }
  | Barrier qs -> Barrier (List.map f qs)

let rec map_cbits f = function
  | (Apply _ | Swap _ | Reset _ | Barrier _) as op -> op
  | Measure { qubit; cbit } -> Measure { qubit; cbit = f cbit }
  | Cond { cond; op } ->
    Cond { cond = { cond with bits = List.map f cond.bits }; op = map_cbits f op }

let adjoint = function
  | Apply { gate; controls; target } ->
    Apply { gate = Gates.adjoint gate; controls; target }
  | Swap (a, b) -> Swap (a, b)
  | (Measure _ | Reset _ | Cond _ | Barrier _) as op ->
    invalid_arg
      (Fmt.str "Op.adjoint: non-unitary operation %s"
         (match op with
          | Measure _ -> "measure"
          | Reset _ -> "reset"
          | Cond _ -> "classically-controlled"
          | _ -> "barrier"))

let rec validate ~num_qubits ~num_cbits op =
  let in_q q = 0 <= q && q < num_qubits in
  let in_c c = 0 <= c && c < num_cbits in
  let err fmt = Fmt.kstr (fun s -> Error s) fmt in
  match op with
  | Apply { gate; controls; target } ->
    if not (List.for_all Float.is_finite (Gates.params gate)) then
      err "non-finite parameter in %a" Gates.pp gate
    else if not (in_q target) then err "target qubit %d out of range" target
    else begin
      let cqs = List.map (fun c -> c.cq) controls in
      if List.exists (fun q -> not (in_q q)) cqs then err "control qubit out of range"
      else if List.mem target cqs then err "control equals target %d" target
      else if List.length (List.sort_uniq compare cqs) <> List.length cqs then
        err "duplicate controls"
      else Ok ()
    end
  | Swap (a, b) ->
    if not (in_q a && in_q b) then err "swap qubit out of range"
    else if a = b then err "swap of qubit %d with itself" a
    else Ok ()
  | Measure { qubit; cbit } ->
    if not (in_q qubit) then err "measured qubit %d out of range" qubit
    else if not (in_c cbit) then err "classical bit %d out of range" cbit
    else Ok ()
  | Reset q -> if in_q q then Ok () else err "reset qubit %d out of range" q
  | Cond { cond; op } ->
    if List.exists (fun c -> not (in_c c)) cond.bits then
      err "condition bit out of range"
    else if cond.bits = [] then err "empty condition"
    else if cond.value < 0 || cond.value >= 1 lsl List.length cond.bits then
      err "condition value %d out of range" cond.value
    else if not (is_unitary op) then err "condition on a non-unitary operation"
    else validate ~num_qubits ~num_cbits op
  | Barrier qs ->
    if List.for_all in_q qs then Ok () else err "barrier qubit out of range"

let rec pp ppf = function
  | Apply { gate; controls = []; target } ->
    Fmt.pf ppf "%a q[%d]" Gates.pp gate target
  | Apply { gate; controls; target } ->
    let pp_ctrl ppf c = Fmt.pf ppf "%s%d" (if c.pos then "" else "!") c.cq in
    Fmt.pf ppf "c%a(%a) q[%d]" (Fmt.list ~sep:Fmt.comma pp_ctrl) controls Gates.pp
      gate target
  | Swap (a, b) -> Fmt.pf ppf "swap q[%d], q[%d]" a b
  | Measure { qubit; cbit } -> Fmt.pf ppf "measure q[%d] -> c[%d]" qubit cbit
  | Reset q -> Fmt.pf ppf "reset q[%d]" q
  | Cond { cond; op } ->
    Fmt.pf ppf "if (c%a == %d) %a"
      Fmt.(brackets (list ~sep:comma int))
      cond.bits cond.value pp op
  | Barrier qs -> Fmt.pf ppf "barrier %a" Fmt.(list ~sep:comma int) qs
