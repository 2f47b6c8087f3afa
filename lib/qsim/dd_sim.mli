(** Decision-diagram based circuit simulation and unitary construction.

    This is the scalable backend (cf. [35] in the paper): circuits over a
    hundred qubits are routinely simulated as long as their states compress
    well.

    Every gate reaches the DD package through {!compile}: a circuit is
    compiled once per package into signatures, and the vector side applies
    them with [Mat.apply_sig] ({!run}, the branching walks of {!Extraction}
    and {!Sampler}), the matrix side with [Mat.mul_sig] ({!build_unitary}
    and the alternation orders of [Qcec.Strategy]). *)

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
    only for the DD work.  Barriers are dropped.  Raises
    [Invalid_argument] if a condition guards anything but a gate or a
    swap.

    The program belongs to [p]: apply it to no other package.  It stays
    valid across [Dd.Pkg.checkpoint] sweeps and [Dd.Pkg.compact], because
    signature ids are never reused. *)
val compile : Dd.Pkg.t -> Circuit.Op.t list -> instr array

(** [run p ~n prog state] applies the gates of [prog] to [state] in
    order, checkpointing [p] after each, and skips its measurements.
    Raises [Invalid_argument] on a reset or a condition: a dynamic
    program branches, which {!Extraction} does.  [state] stays rooted
    while the program runs; the result is unrooted, as {!simulate}'s. *)
val run : Dd.Pkg.t -> n:int -> instr array -> Dd.Types.vedge -> Dd.Types.vedge

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

(** [measured_distribution state ~n ~num_cbits ~measures] reads the
    final state of a measure-terminal static circuit out onto its
    classical bits: the result maps a classical assignment (a '0'/'1'
    string indexed by cbit, of length [num_cbits]) to its probability.
    [measures] are the circuit's [(qubit, cbit)] measurements in order,
    and a bit holds what its last measurement reads; a bit nothing
    measures reads '0'.

    One depth-first walk writes the key into one buffer.  A level whose
    qubit no bit reads and whose two successors are the same node is
    walked once, with both masses summed, which is exact; a product
    state over its unmeasured qubits so costs one path per outcome.
    Unmeasured qubits that stay entangled, with different successors,
    are still walked path by path: the walk stops after [2^22] paths,
    and the mass it did not reach is missing from the result.  Paths of
    probability at most [cutoff] (default [1e-12]) are pruned. *)
val measured_distribution :
     Dd.Types.vedge
  -> n:int
  -> num_cbits:int
  -> measures:(int * int) list
  -> ?cutoff:float
  -> unit
  -> (string * float) list
