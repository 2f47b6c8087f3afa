(** The Clifford/stabilizer abstract domain.

    Tracks, per prefix, whether the circuit stays inside the Clifford
    fragment.  Clifford prefixes are DD-cheap — stabilizer states have
    polynomial decision diagrams — so the first non-Clifford op marks the
    earliest point where DD growth can start; {!Cost} uses the per-op
    membership to weight gate positions. *)

(** [is_clifford_gate g] — the gate is in the single-qubit Clifford group
    up to global phase (rotations at multiples of pi/2 included, within a
    small tolerance). *)
val is_clifford_gate : Circuit.Gates.t -> bool

(** [is_clifford_op op] — the op keeps a stabilizer state a stabilizer
    state: Clifford gates, singly-controlled Paulis (CX/CY/CZ and their
    phase variants), swaps; measurement, reset and barriers count as
    in-fragment (the tableau formalism handles them); conditioned ops are
    judged by their base gate; multiply-controlled gates are out. *)
val is_clifford_op : Circuit.Op.t -> bool

type result =
  { per_op : bool array  (** op [i] keeps the state in the fragment *)
  ; clifford_prefix : int
        (** length of the maximal all-Clifford prefix *)
  ; first_non_clifford : int option
  ; clifford_ops : int
  ; non_clifford_ops : int
  ; all_clifford : bool
  }

val scan : Circuit.Circ.t -> result

val to_json : result -> Obs.Json.t
