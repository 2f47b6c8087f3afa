module Op = Circuit.Op
module Gates = Circuit.Gates

(* Angle tolerance: generated circuits produce angles like 2*pi*j/2^m whose
   floating representation drifts by a few ulps from the exact multiple. *)
let tol = 1e-9

(* theta = k * m for some integer k, within [tol]. *)
let multiple_of m theta =
  let r = Float.abs (Float.rem theta m) in
  r <= tol || m -. r <= tol

let half_pi = 0.5 *. Float.pi

(* Single-qubit gates in the Clifford group (up to global phase).  The
   rotation forms are Clifford exactly at multiples of pi/2; U2/U3 at
   Euler angles that are all multiples of pi/2 (a sufficient and, for the
   generators our front end emits, necessary condition). *)
let is_clifford_gate = function
  | Gates.I | Gates.X | Gates.Y | Gates.Z | Gates.H | Gates.S | Gates.Sdg
  | Gates.SX | Gates.SXdg -> true
  | Gates.T | Gates.Tdg -> false
  | Gates.RX t | Gates.RY t | Gates.RZ t | Gates.P t -> multiple_of half_pi t
  | Gates.U2 (phi, lam) -> multiple_of half_pi phi && multiple_of half_pi lam
  | Gates.U3 (theta, phi, lam) ->
    multiple_of half_pi theta && multiple_of half_pi phi
    && multiple_of half_pi lam

(* A singly-controlled gate is Clifford iff the target gate is a Pauli up
   to a pi/2-multiple phase: controlled-(e^{ia}C) factors into a phase
   gate P(a) on the control (Clifford iff a is a multiple of pi/2) times
   controlled-C, and controlled-X/Y/Z are Clifford.  Controlled-H and
   friends are not; neither is anything with two or more controls
   (Toffoli).  Negative controls conjugate by X and preserve all this. *)
let is_clifford_controlled gate =
  match gate with
  | Gates.I | Gates.X | Gates.Y | Gates.Z -> true
  | Gates.P t -> multiple_of Float.pi t
  | Gates.RX t | Gates.RY t | Gates.RZ t -> multiple_of Float.pi t
  | Gates.S | Gates.Sdg | Gates.T | Gates.Tdg | Gates.H | Gates.SX
  | Gates.SXdg | Gates.U2 _ | Gates.U3 _ -> false

(* Measurement, reset and barriers keep a stabilizer state simulable (the
   tableau formalism handles them), so only the gate content decides
   membership; a classically-conditioned gate is judged by its base op. *)
let rec is_clifford_op (op : Op.t) =
  match op with
  | Op.Apply { gate; controls = []; _ } -> is_clifford_gate gate
  | Op.Apply { gate; controls = [ _ ]; _ } -> is_clifford_controlled gate
  | Op.Apply _ -> false
  | Op.Swap _ -> true
  | Op.Measure _ | Op.Reset _ | Op.Barrier _ -> true
  | Op.Cond { op; _ } -> is_clifford_op op

type result =
  { per_op : bool array
  ; clifford_prefix : int
  ; first_non_clifford : int option
  ; clifford_ops : int
  ; non_clifford_ops : int
  ; all_clifford : bool
  }

let scan (c : Circuit.Circ.t) =
  let per_op =
    Array.of_list (List.map is_clifford_op c.Circuit.Circ.ops)
  in
  let n = Array.length per_op in
  let first = ref None in
  let clifford = ref 0 in
  for i = n - 1 downto 0 do
    if per_op.(i) then incr clifford else first := Some i
  done;
  let first_non_clifford = !first in
  { per_op
  ; clifford_prefix =
      (match first_non_clifford with None -> n | Some i -> i)
  ; first_non_clifford
  ; clifford_ops = !clifford
  ; non_clifford_ops = n - !clifford
  ; all_clifford = first_non_clifford = None
  }

let to_json r =
  Obs.Json.Obj
    [ ("all_clifford", Obs.Json.Bool r.all_clifford)
    ; ("clifford_prefix", Obs.Json.Int r.clifford_prefix)
    ; ( "first_non_clifford"
      , match r.first_non_clifford with
        | None -> Obs.Json.Null
        | Some i -> Obs.Json.Int i )
    ; ("clifford_ops", Obs.Json.Int r.clifford_ops)
    ; ("non_clifford_ops", Obs.Json.Int r.non_clifford_ops)
    ]
