module Op = Circuit.Op
module Circ = Circuit.Circ

type scheme =
  | Proportional_order
  | Lookahead_order

type t =
  { num_qubits : int
  ; total_ops : int
  ; clifford : Clifford.result
  ; graph : Interact.t
  ; cancel : Cancel.result
  ; weights : float array
  ; cumulative : float array
  ; total : float
  }

(* Per-op weight model.  The absolute scale is irrelevant — only the
   distribution of cost mass along the circuit matters — so the factors
   are coarse powers of two:

     base                      1.0
     non-Clifford op          x4    (DD growth can start here)
     entangling op            x2    (couples wires; widens the DD)
     diagonal op              x0.5  (single-path structure)
     half of a cancelling pair x0.25 (the product collapses again)
     barrier                   0

   Everything non-barrier is clamped to a small positive floor so the
   cumulative curve stays strictly increasing over real gates. *)
let min_weight = 0.05

let is_entangling op =
  match (Op.base op : Op.t) with
  | Op.Apply _ | Op.Swap _ ->
    List.length (List.sort_uniq compare (Op.qubits (Op.base op))) >= 2
  | Op.Measure _ | Op.Reset _ | Op.Cond _ | Op.Barrier _ -> false

let weights_of ~(clifford : Clifford.result) ~(cancel : Cancel.result) ops =
  Array.mapi
    (fun i op ->
      match (op : Op.t) with
      | Op.Barrier _ -> 0.0
      | _ ->
        let w = 1.0 in
        let w = if clifford.Clifford.per_op.(i) then w else w *. 4.0 in
        let w = if is_entangling op then w *. 2.0 else w in
        let w = if cancel.Cancel.diagonal.(i) then w *. 0.5 else w in
        let w = if cancel.Cancel.cancels.(i) then w *. 0.25 else w in
        Float.max w min_weight)
    ops

let cumulate weights =
  let n = Array.length weights in
  let cum = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    cum.(i + 1) <- cum.(i) +. weights.(i)
  done;
  cum

let profile (c : Circ.t) =
  let clifford = Clifford.scan c in
  let graph = Interact.of_circ c in
  let cancel = Cancel.scan c in
  let ops = Array.of_list c.Circ.ops in
  let weights = weights_of ~clifford ~cancel ops in
  let cumulative = cumulate weights in
  { num_qubits = c.Circ.num_qubits
  ; total_ops = Array.length ops
  ; clifford
  ; graph
  ; cancel
  ; weights
  ; cumulative
  ; total = cumulative.(Array.length ops)
  }

let op_weights ~num_qubits ops =
  let c = Circ.make_unchecked ~name:"cost" ~qubits:num_qubits ~cbits:0 ops in
  let clifford = Clifford.scan c in
  let cancel = Cancel.scan c in
  weights_of ~clifford ~cancel (Array.of_list ops)

(* ---------------------------------------------------------------- *)
(* Scheme recommendation                                            *)

let samples = 64
let divergence_threshold = 0.05

(* Normalized cumulative cost at fraction [s/samples] of the op stream,
   linearly interpolated.  A circuit with no cost mass contributes the
   identity curve (cost uniformly spread), which is what proportional
   scheduling implicitly assumes. *)
let curve p s =
  let frac = float_of_int s /. float_of_int samples in
  if p.total <= 0.0 || p.total_ops = 0 then frac
  else begin
    let x = frac *. float_of_int p.total_ops in
    let i = min (int_of_float (Float.floor x)) (p.total_ops - 1) in
    let rest = x -. float_of_int i in
    (p.cumulative.(i) +. (rest *. p.weights.(i))) /. p.total
  end

let divergence a b =
  let d = ref 0.0 in
  for s = 0 to samples do
    d := Float.max !d (Float.abs (curve a s -. curve b s))
  done;
  !d

let recommend a b =
  if a.clifford.Clifford.all_clifford && b.clifford.Clifford.all_clifford then
    (* stabilizer circuits keep DDs polynomial; counting ops is enough *)
    Proportional_order
  else if divergence a b > divergence_threshold then
    (* cost mass sits at different positions in the two circuits, so
       advancing by op counts misbalances the product — schedule by cost *)
    Lookahead_order
  else Proportional_order

(* ---------------------------------------------------------------- *)
(* Portfolio composition                                            *)

type candidate =
  | Proportional_candidate
  | Lookahead_candidate
  | Classical_stimuli of int
  | Local_stimuli of int
  | Global_stimuli of int

let candidate_name = function
  | Proportional_candidate -> "proportional"
  | Lookahead_candidate -> "lookahead"
  | Classical_stimuli k -> Fmt.str "stimuli:basis:%d" k
  | Local_stimuli k -> Fmt.str "stimuli:product:%d" k
  | Global_stimuli k -> Fmt.str "stimuli:entangled:%d" k

let default_shots = 16

(* Which candidates to enter into a first-verdict-wins race, best first.
   Candidate 0 is always the cost model's solo recommendation, so a race
   report can say whether the a-priori pick actually won.  The classifier
   kind orders the tail: on unitary pairs the global-quantum stimuli lead
   it (random stabilizer states distinguish non-equivalent pairs with
   probability exponentially close to one, and refute fastest in
   practice); on dynamic pairs both exact alternation orders come first —
   the Section 4 transform is their native path — and the cheap classical
   stimuli open the simulative tail.  The simulative candidates stay in
   the dynamic field because every candidate races the {e transformed}
   (hence unitary) pair; they are merely a worse a-priori bet there, as
   the transform's ancillas enlarge the simulated register. *)
let compose_portfolio ?(width = 4) ?(shots = default_shots) ~dynamic a b =
  let lead, other =
    match recommend a b with
    | Proportional_order -> (Proportional_candidate, Lookahead_candidate)
    | Lookahead_order -> (Lookahead_candidate, Proportional_candidate)
  in
  let tail =
    if dynamic then
      [ other; Classical_stimuli shots; Global_stimuli shots
      ; Local_stimuli shots ]
    else
      [ Global_stimuli shots; other; Classical_stimuli shots
      ; Local_stimuli shots ]
  in
  let rec take k = function
    | [] -> []
    | _ when k <= 0 -> []
    | c :: rest -> c :: take (k - 1) rest
  in
  lead :: take (max 0 (width - 1)) tail

let to_json p =
  Obs.Json.Obj
    [ ("num_qubits", Obs.Json.Int p.num_qubits)
    ; ("total_ops", Obs.Json.Int p.total_ops)
    ; ("clifford", Clifford.to_json p.clifford)
    ; ("interaction", Interact.to_json p.graph)
    ; ("cancellation", Cancel.to_json p.cancel)
    ; ( "cost"
      , Obs.Json.Obj
          [ ("total", Obs.Json.Float p.total)
          ; ( "weights"
            , Obs.Json.List
                (Array.to_list
                   (Array.map (fun w -> Obs.Json.Float w) p.weights)) )
          ] )
    ]
