module Circ = Circuit.Circ
module Op = Circuit.Op

type kind =
  | Unitary
  | Measure_terminal
  | Dynamic

let kind_name = function
  | Unitary -> "unitary"
  | Measure_terminal -> "measure-terminal"
  | Dynamic -> "dynamic"

type profile =
  { kind : kind
  ; num_qubits : int
  ; num_cbits : int
  ; gates : int
  ; measurements : int
  ; resets : int
  ; conditioned : int
  ; barriers : int
  ; first_non_unitary : (int * Op.t) option
  ; first_blocker : (int * Op.t) option
  ; transform_blocker : (int * string) option
  }

let transformable p = p.transform_blocker = None

(* Static mirror of the Section 4 preconditions ([Transform.Resets] then
   [Transform.Deferral]), so a transformation that would die mid-run with
   [Invalid_argument] is rejected up front with a located reason.  Reset
   elimination rewires a reset qubit onto a fresh wire, so a reset clears
   the qubit's "measured" status; classical bits are untouched by it. *)
let transform_precheck (c : Circ.t) =
  let measured = Array.make (max c.Circ.num_qubits 1) false in
  let written = Array.make (max c.Circ.num_cbits 1) false in
  let blocker = ref None in
  let block i msg = if !blocker = None then blocker := Some (i, msg) in
  let reused i op =
    List.iter
      (fun q ->
        if measured.(q) then
          block i
            (Fmt.str
               "qubit %d is driven by a gate after being measured, with no \
                reset in between; the deferred-measurement principle does \
                not apply"
               q))
      (Op.target_qubits op)
  in
  List.iteri
    (fun i op ->
      match (op : Op.t) with
      | Barrier _ -> ()
      | Apply _ | Swap _ -> reused i op
      | Measure { qubit; cbit } ->
        if measured.(qubit) then
          block i
            (Fmt.str "qubit %d is measured twice with no reset in between" qubit);
        if written.(cbit) then
          block i (Fmt.str "classical bit %d is written twice" cbit);
        measured.(qubit) <- true;
        written.(cbit) <- true
      | Reset q -> measured.(q) <- false
      | Cond { cond; op = inner } ->
        List.iter
          (fun b ->
            if not written.(b) then
              block i
                (Fmt.str
                   "the condition reads classical bit %d before any \
                    measurement writes it"
                   b))
          cond.bits;
        reused i inner)
    c.Circ.ops;
  !blocker

let classify (c : Circ.t) =
  let counts = Circ.op_counts c in
  let find pred =
    let rec go i = function
      | [] -> None
      | op :: rest -> if pred op then Some (i, op) else go (i + 1) rest
    in
    go 0 c.Circ.ops
  in
  let first_non_unitary = find Op.is_dynamic_primitive in
  let first_blocker =
    find (function Op.Reset _ | Op.Cond _ -> true | _ -> false)
  in
  let kind =
    if counts.Circ.measurements = 0 && first_non_unitary = None then Unitary
    else if Circ.is_dynamic c then Dynamic
    else Measure_terminal
  in
  { kind
  ; num_qubits = c.Circ.num_qubits
  ; num_cbits = c.Circ.num_cbits
  ; gates = counts.Circ.gates
  ; measurements = counts.Circ.measurements
  ; resets = counts.Circ.resets
  ; conditioned = counts.Circ.conditioned
  ; barriers = counts.Circ.barriers
  ; first_non_unitary
  ; first_blocker
  ; transform_blocker =
      (if first_non_unitary = None then None else transform_precheck c)
  }

type scheme =
  | Unitary_scheme
  | Transformation
  | Extraction

let scheme_name = function
  | Unitary_scheme -> "unitary equivalence checking"
  | Transformation -> "the Section 4 transformation"
  | Extraction -> "the Section 5 extraction"

let scheme_slug = function
  | Unitary_scheme -> "unitary"
  | Transformation -> "transformation"
  | Extraction -> "extraction"

(* The unitary-only strategies silently strip measurements and abort (at
   run time, with [Strategy.Non_unitary]) on the first reset or classical
   condition — exactly [first_blocker].  A [Dynamic] profile without a
   blocker (mid-circuit measurements whose qubits are reused) would not
   raise, but stripping its measurements changes its semantics, so the
   pre-check treats it as inadmissible too. *)
let admits scheme p =
  match scheme with
  | Unitary_scheme -> p.kind <> Dynamic
  | Transformation -> transformable p
  | Extraction -> true

let route p =
  match p.kind with
  | Unitary | Measure_terminal -> Unitary_scheme
  | Dynamic -> if transformable p then Transformation else Extraction

(* Once a pair is routed to a unitary-style scheme, the cost profiles
   decide the alternation order; re-exported so routing decisions live in
   one module. *)
let route_application = Cost.recommend

(* Portfolio composition is kind-aware: dynamic circuits cannot run the
   simulative candidates (mid-circuit measurement collapses the state), so
   the most-dynamic classification of the pair gates which candidates
   [Cost.compose_portfolio] may enter. *)
let compose_portfolio ?width ?shots kind a b =
  Cost.compose_portfolio ?width ?shots ~dynamic:(kind = Dynamic) a b

let pair_kind a b =
  let rank = function Unitary -> 0 | Measure_terminal -> 1 | Dynamic -> 2 in
  let ka = (classify a).kind and kb = (classify b).kind in
  if rank ka >= rank kb then ka else kb

let pp_profile ppf p =
  Fmt.pf ppf
    "%s (%d qubits, %d cbits; %d gates, %d measurements, %d resets, %d \
     conditioned, %d barriers)%s"
    (kind_name p.kind) p.num_qubits p.num_cbits p.gates p.measurements p.resets
    p.conditioned p.barriers
    (if transformable p then "" else "; not transformable")

let to_json p =
  let first = function
    | None -> Obs.Json.Null
    | Some (i, op) ->
      Obs.Json.Obj
        [ ("op_index", Obs.Json.Int i)
        ; ("op", Obs.Json.String (Fmt.str "%a" Op.pp op))
        ]
  in
  Obs.Json.Obj
    [ ("kind", Obs.Json.String (kind_name p.kind))
    ; ("num_qubits", Obs.Json.Int p.num_qubits)
    ; ("num_cbits", Obs.Json.Int p.num_cbits)
    ; ("gates", Obs.Json.Int p.gates)
    ; ("measurements", Obs.Json.Int p.measurements)
    ; ("resets", Obs.Json.Int p.resets)
    ; ("conditioned", Obs.Json.Int p.conditioned)
    ; ("barriers", Obs.Json.Int p.barriers)
    ; ("first_non_unitary", first p.first_non_unitary)
    ; ("transformable", Obs.Json.Bool (transformable p))
    ]

(* A located QA008 for a profile a scheme cannot handle; [None] when the
   scheme applies. *)
let scheme_rejection ?file ?lines ~scheme p =
  if admits scheme p then None
  else begin
    let anchor =
      match scheme with
      | Transformation ->
        Option.map (fun (i, msg) -> (i, msg)) p.transform_blocker
      | Unitary_scheme | Extraction ->
        let blocking =
          match p.first_blocker with
          | Some _ as b -> b
          | None -> p.first_non_unitary
        in
        Option.map
          (fun (i, op) ->
            (i, Fmt.str "the circuit is dynamic (first non-unitary op: %a)" Op.pp op))
          blocking
    in
    let op_index = Option.map fst anchor in
    let line =
      match (op_index, lines) with
      | Some i, Some lines when i < Array.length lines -> Some lines.(i)
      | _ -> None
    in
    let reason =
      match anchor with
      | Some (_, msg) -> msg
      | None -> Fmt.str "the circuit classifies as %s" (kind_name p.kind)
    in
    Some
      (Rules.diagnostic ?file ?line ?op_index:(Option.map Fun.id op_index)
         Rules.scheme_blocked
         (Fmt.str "%s; %s does not apply — transform or extract instead"
            reason (scheme_name scheme)))
  end
