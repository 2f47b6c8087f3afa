(** Quantum circuits: a named sequence of operations over [num_qubits]
    qubits and [num_cbits] classical bits. *)

type t =
  { name : string
  ; num_qubits : int
  ; num_cbits : int
  ; ops : Op.t list
  }

(** [make ~name ~qubits ~cbits ops] validates every operation and raises
    [Invalid_argument] with a descriptive message on the first failure. *)
val make : name:string -> qubits:int -> cbits:int -> Op.t list -> t

(** [make_unchecked] skips per-operation validation.  Intended for feeding
    deliberately malformed circuits to the static analyzer ({!Analysis} in
    [lib/analysis]), whose structural rules re-detect what {!make} rejects;
    simulators and checkers assume validated circuits. *)
val make_unchecked : name:string -> qubits:int -> cbits:int -> Op.t list -> t

(** {1 Queries} *)

(** [gate_count c] counts unitary operations, looking through classical
    conditions (a conditioned gate counts as one gate); measurements, resets
    and barriers are counted separately by {!op_counts}. *)
val gate_count : t -> int

type op_counts =
  { gates : int
  ; measurements : int
  ; resets : int
  ; conditioned : int  (** subset of [gates] that carries a condition *)
  ; barriers : int
  }

val op_counts : t -> op_counts

(** [total_ops c] is the length of [c.ops]. *)
val total_ops : t -> int

(** A circuit is dynamic when it contains a reset, a classically-controlled
    operation, or a measurement followed by any further operation on the
    measured qubit or using its outcome.  Purely-final measurements do not
    make a circuit dynamic. *)
val is_dynamic : t -> bool

(** [measurements c] lists the (qubit, cbit) pairs in program order. *)
val measurements : t -> (int * int) list

(** [digest c] is a hex content digest of the canonical op stream:
    register sizes plus every non-barrier operation with gate parameters
    printed at full precision.  It is insensitive to anything that cannot
    change the implemented channel — the circuit name (and source-level
    metadata such as comments or line numbers, which never reach {!t}),
    barriers, control list order and swap operand order — while any
    single-gate edit changes it.

    With [perm_invariant] (default [false]) qubits are additionally
    relabeled by first use in structural order, so [digest ~perm_invariant:true
    (remap c ~perm)] equals [digest ~perm_invariant:true c] for every
    permutation.  Verdict caching uses the {e plain} digest: equivalence
    of a pair is not invariant under permuting one side alone. *)
val digest : ?perm_invariant:bool -> t -> string

(** {1 Transformations} *)

(** [strip_measurements c] removes measurements and barriers, for functional
    (unitary) comparison. *)
val strip_measurements : t -> t

(** [inverse c] reverses and adjoints a unitary circuit.  Raises
    [Invalid_argument] if [c] contains non-unitary operations (measurements
    are not allowed either; strip them first). *)
val inverse : t -> t

(** [is_permutation p] holds when [p] is a permutation of
    [0 .. Array.length p - 1]. *)
val is_permutation : int array -> bool

(** [remap c ~perm] renames qubit [q] to [perm.(q)]; [perm] must be a
    permutation of [0 .. num_qubits - 1]. *)
val remap : t -> perm:int array -> t

(** [append a b] concatenates two circuits over the same registers. *)
val append : t -> t -> t

(** [with_name c name] renames the circuit. *)
val with_name : t -> string -> t

val pp : Format.formatter -> t -> unit
