(** Operations on matrix decision diagrams (quantum operators). *)

open Types

(** [add p a b] is the element-wise sum of same-dimension operators. *)
val add : Pkg.t -> medge -> medge -> medge

(** [apply p m v] is the matrix-vector product [m * v]. *)
val apply : Pkg.t -> medge -> vedge -> vedge

(** [mul p a b] is the matrix-matrix product [a * b]. *)
val mul : Pkg.t -> medge -> medge -> medge

(** [adjoint p a] is the conjugate transpose. *)
val adjoint : Pkg.t -> medge -> medge

(** {1 Direct gate-application kernels}

    These apply one (controlled) single-qubit gate or swap without building
    its full [n]-qubit matrix DD ({!Pkg.gate}) and without running the
    generic all-levels {!apply}/{!mul} recursion: the descent stops at the
    deepest involved qubit, levels above the gate's span are pure
    pass-through, and subtrees below it are returned untouched.  Results
    are bit-identical (same node, same interned weight) to the generic
    path thanks to canonical normalization.  Memoized in the package's
    kernel caches ([dd.kernel.*] metrics). *)

(** [apply_gate p ~n ~controls ~target u v] is [G * v] where [G] is the
    [n]-qubit operator applying the 2x2 matrix [u] (row-major) to [target]
    under [controls] — equal to
    [apply p (Pkg.gate p ~n ~controls ~target u) v]. *)
val apply_gate :
     Pkg.t
  -> n:int
  -> controls:(int * bool) list
  -> target:int
  -> Cxnum.Cx.t array
  -> vedge
  -> vedge

(** [apply_swap p ~n a b v] applies the SWAP of wires [a] and [b]. *)
val apply_swap : Pkg.t -> n:int -> int -> int -> vedge -> vedge

(** [apply_sig p ~n s v] applies the gate or swap that [s] describes:
    [apply_gate] and [apply_swap] are [apply_sig] on
    {!Pkg.gate_sig}/{!Pkg.swap_sig}.  A caller that applies the same gate
    many times resolves [s] once and skips the per-call interning of the
    matrix entries.  [s] must come from [p]; it stays valid across
    {!Pkg.checkpoint} sweeps and {!Pkg.compact} (signature ids are never
    reused). *)
val apply_sig : Pkg.t -> n:int -> Pkg.gate_sig -> vedge -> vedge

(** [mul_gate_left p ~n ~controls ~target u m] is [G * m]. *)
val mul_gate_left :
     Pkg.t
  -> n:int
  -> controls:(int * bool) list
  -> target:int
  -> Cxnum.Cx.t array
  -> medge
  -> medge

(** [mul_gate_right p ~n ~controls ~target u m] is [m * G^dagger]; the
    adjoint of the 2x2 is taken entry-wise, with no {!adjoint} pass over
    [m] and no gate DD. *)
val mul_gate_right :
     Pkg.t
  -> n:int
  -> controls:(int * bool) list
  -> target:int
  -> Cxnum.Cx.t array
  -> medge
  -> medge

(** [mul_swap_left p ~n a b m] is [SWAP(a,b) * m]. *)
val mul_swap_left : Pkg.t -> n:int -> int -> int -> medge -> medge

(** [mul_swap_right p ~n a b m] is [m * SWAP(a,b)] ([= m * SWAP^dagger]). *)
val mul_swap_right : Pkg.t -> n:int -> int -> int -> medge -> medge

(** [trace p a ~n] is the trace of an [n]-qubit operator. *)
val trace : Pkg.t -> medge -> n:int -> Cxnum.Cx.t

(** [entry p a ~n ~row ~col] is a single matrix element (qubit 0 least
    significant in both indices). *)
val entry : Pkg.t -> medge -> n:int -> row:int -> col:int -> Cxnum.Cx.t

(** [to_array p a ~n] materializes the dense matrix, row-major.  Only for
    small [n]. *)
val to_array : Pkg.t -> medge -> n:int -> Cxnum.Cx.t array array

(** [of_array p m] builds a DD from a dense square matrix whose dimension
    must be a power of two. *)
val of_array : Pkg.t -> Cxnum.Cx.t array array -> medge

(** [equal p a b] holds when the two operators are exactly equal (same node
    and approximately equal weights). *)
val equal : Pkg.t -> medge -> medge -> bool

(** [equal_up_to_phase p a b] holds when [a = exp(i phi) * b] for some
    global phase [phi]. *)
val equal_up_to_phase : Pkg.t -> medge -> medge -> bool

(** [is_identity p a ~n ~up_to_phase] checks against [Pkg.ident p n]. *)
val is_identity : Pkg.t -> medge -> n:int -> up_to_phase:bool -> bool

(** [process_fidelity p a b ~n] is [|Tr(a^dagger b)| / 2^n], 1 iff the
    unitaries are equal up to global phase. *)
val process_fidelity : Pkg.t -> medge -> medge -> n:int -> float

(** Number of distinct nodes reachable from this edge (terminal excluded). *)
val node_count : medge -> int
