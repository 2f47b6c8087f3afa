(** Decision-diagram based circuit simulation and unitary construction.

    This is the scalable backend (cf. [35] in the paper): circuits over a
    hundred qubits are routinely simulated as long as their states compress
    well. *)

(** [apply_op p ~n state op] applies a unitary operation to a state
    through the direct gate-application kernel ([Mat.apply_sig]); no
    gate DD is materialized.  It resolves the gate's signature on every
    call: a loop that applies the same operations again and again runs
    a {!compile}d program instead. *)
val apply_op :
  Dd.Pkg.t -> n:int -> Dd.Types.vedge -> Circuit.Op.t -> Dd.Types.vedge

(** One step of a compiled program: every gate carries its signature,
    resolved in the package the program was compiled for. *)
type instr =
  | Gate of Dd.Pkg.gate_sig  (** a unitary gate or swap *)
  | Cond of Circuit.Op.cond * Dd.Pkg.gate_sig
      (** applied when the condition holds on the classical bits *)
  | Measure of
      { qubit : int
      ; cbit : int
      }
  | Reset of
      { qubit : int
      ; x : Dd.Pkg.gate_sig  (** the X on [qubit] that undoes outcome 1 *)
      }

(** [compile p ops] resolves the signature of every gate in [ops] once,
    so that a loop running the program on many branches or shots pays
    only for the DD work ([Mat.apply_sig]).  Barriers are dropped.
    Raises [Invalid_argument] if a condition guards anything but a gate
    or a swap.

    The program belongs to [p]: apply it to no other package.  It stays
    valid across [Dd.Pkg.checkpoint] sweeps and [Dd.Pkg.compact], because
    signature ids are never reused. *)
val compile : Dd.Pkg.t -> Circuit.Op.t list -> instr array

(** [mul_op_left p ~n op m] is [U_op * m], applied in place without
    materializing the gate's DD. *)
val mul_op_left :
  Dd.Pkg.t -> n:int -> Circuit.Op.t -> Dd.Types.medge -> Dd.Types.medge

(** [mul_op_right p ~n op m] is [m * U_op^dagger]; the kernel conjugates
    the 2x2 entry-wise, with no adjoint pass. *)
val mul_op_right :
  Dd.Pkg.t -> n:int -> Circuit.Op.t -> Dd.Types.medge -> Dd.Types.medge

(** [simulate p c] runs a unitary circuit from |0...0> (final measurements
    and barriers are skipped).  Raises [Invalid_argument] on dynamic
    circuits.

    It checkpoints [p] after every gate, so any edge of [p] the caller
    holds across the call must be rooted.  The returned edge is
    unrooted: the next call that checkpoints [p] (another [simulate] or
    [build_unitary], a strategy, an extraction) may sweep it.  Root it
    with [Dd.Pkg.with_root_v] to keep it across such a call. *)
val simulate : Dd.Pkg.t -> Circuit.Circ.t -> Dd.Types.vedge

(** [build_unitary p c] multiplies all gates into the circuit's system
    matrix.  Raises [Invalid_argument] if [c] contains non-unitary
    operations (strip measurements first).  The rooting contract of
    {!simulate} applies: the result is unrooted, and the next call that
    checkpoints [p] may sweep it unless it is held by [Dd.Pkg.root_m]
    or [Dd.Pkg.with_root_m]. *)
val build_unitary : Dd.Pkg.t -> Circuit.Circ.t -> Dd.Types.medge

(** [measured_distribution p state ~n ~measures] marginalizes the final
    state onto the classical bits written by [measures] ([(qubit, cbit)]
    pairs): the result maps a classical assignment (a '0'/'1' string
    indexed by cbit, of length [num_cbits]) to its probability.
    Enumerates only paths with probability above [cutoff]; stops after
    [limit] basis states (default [2^22]). *)
val measured_distribution :
     Dd.Pkg.t
  -> Dd.Types.vedge
  -> n:int
  -> num_cbits:int
  -> measures:(int * int) list
  -> ?cutoff:float
  -> ?limit:int
  -> unit
  -> (string * float) list
