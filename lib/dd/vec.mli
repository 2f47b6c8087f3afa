(** Operations on vector decision diagrams (quantum states).

    All functions take the owning {!Pkg.t} first; edges from other packages
    must not be passed in. *)

open Types

(** [add p a b] is the element-wise sum; [a] and [b] must represent vectors
    of the same dimension. *)
val add : Pkg.t -> vedge -> vedge -> vedge

(** [inner_product p a b] is the Hermitian inner product [<a|b>]. *)
val inner_product : Pkg.t -> vedge -> vedge -> Cxnum.Cx.t

(** [fidelity p a b] is [|<a|b>|^2] for normalized [a], [b]. *)
val fidelity : Pkg.t -> vedge -> vedge -> float

(** [norm p a] is the 2-norm of the vector. *)
val norm : Pkg.t -> vedge -> float

(** [normalize p a] rescales so the norm is 1 (keeping the global phase of
    the root weight).  Raises [Invalid_argument] on the zero vector. *)
val normalize : Pkg.t -> vedge -> vedge

(** [probabilities p a q] is [(p0, p1)], the probabilities of measuring
    qubit [q] of the normalized state [a] as |0> and |1>. *)
val probabilities : Pkg.t -> vedge -> int -> float * float

(** [project p a q outcome] projects qubit [q] onto |outcome> and
    renormalizes, returning the post-measurement state.  Raises
    [Invalid_argument] if the outcome has probability ~0. *)
val project : Pkg.t -> vedge -> int -> int -> vedge

(** [amplitude p a bits] is the amplitude of the basis state with qubit [i]
    equal to [bits i], for an [n]-qubit vector rooted at level [n-1]. *)
val amplitude : Pkg.t -> vedge -> n:int -> (int -> bool) -> Cxnum.Cx.t

(** [to_array p a ~n] materializes the full state vector (index = basis
    state, qubit 0 least significant).  Only for small [n]. *)
val to_array : Pkg.t -> vedge -> n:int -> Cxnum.Cx.t array

(** [of_array p v] builds a DD from a dense vector whose length must be a
    power of two. *)
val of_array : Pkg.t -> Cxnum.Cx.t array -> vedge

(** Number of distinct nodes reachable from this edge (terminal excluded). *)
val node_count : vedge -> int
