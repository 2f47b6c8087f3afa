(** Per-gate-position cost profiles.

    Folds the {!Clifford}, {!Interact} and {!Cancel} passes into one
    weight per op — a static estimate of how much that op can grow an
    intermediate decision diagram — plus the cumulative cost curve the
    lookahead application scheme schedules against. *)

(** Which alternation order a circuit pair calls for. This mirrors the
    core strategy names without depending on the core library. *)
type scheme =
  | Proportional_order  (** advance by op counts ([i * nr <= j * nl]) *)
  | Lookahead_order  (** advance by predicted cost balance *)

type t =
  { num_qubits : int
  ; total_ops : int
  ; clifford : Clifford.result
  ; graph : Interact.t
  ; cancel : Cancel.result
  ; weights : float array  (** one weight per op, barriers weigh 0 *)
  ; cumulative : float array
        (** length [total_ops + 1]; [cumulative.(i)] = cost of the
            length-[i] prefix *)
  ; total : float
  }

val profile : Circuit.Circ.t -> t

(** [op_weights ~num_qubits ops] — the weight model over a bare op list
    (e.g. the unitary core a strategy actually multiplies), without the
    interaction-graph pass. *)
val op_weights : num_qubits:int -> Circuit.Op.t list -> float array

(** Largest pointwise gap between the two normalized cumulative cost
    curves, sampled at 64 positions in [0, 1]. *)
val divergence : t -> t -> float

(** [recommend a b] — {!Proportional_order} when both circuits are pure
    Clifford (DDs stay small) or their cost curves track each other;
    {!Lookahead_order} when the curves diverge enough that op-count
    alternation would misbalance the product. *)
val recommend : t -> t -> scheme

(** One entrant in a first-verdict-wins portfolio race: either an
    alternation order or a simulative check with one of the three stimuli
    classes (shot count attached). Mirrors the core strategies without
    depending on the core library; [Qcec.Strategy.of_candidate] maps each
    onto a runnable strategy. *)
type candidate =
  | Proportional_candidate
  | Lookahead_candidate
  | Classical_stimuli of int  (** random basis states, [n] shots *)
  | Local_stimuli of int  (** random single-qubit product states *)
  | Global_stimuli of int  (** random stabilizer states *)

val candidate_name : candidate -> string

(** Shot count used for simulative candidates when none is given. *)
val default_shots : int

(** [compose_portfolio ?width ?shots ~dynamic a b] — which candidates to
    race for the pair profiled by [a]/[b], best guess first.  Candidate 0
    is always {!recommend}'s solo pick.  On [~dynamic] pairs (mid-circuit
    measurement or classical control) the two exact alternation orders
    lead the field and the simulative candidates trail it: every
    candidate races the transformed — unitary — pair, so the stimuli
    classes stay applicable, but the transform's ancillas make them a
    worse a-priori bet.  Returns between 1 and [width] candidates
    ([width] defaults to 4). *)
val compose_portfolio :
  ?width:int -> ?shots:int -> dynamic:bool -> t -> t -> candidate list

(** The per-file [qcec-analysis/v1] document body: [num_qubits],
    [total_ops], and one block per pass ([clifford], [interaction],
    [cancellation], [cost]). *)
val to_json : t -> Obs.Json.t
