(** Pauli-string observables and expectation values over both simulation
    backends — handy when a verification flow needs physical quantities
    (energies, magnetizations, parities) rather than full distributions. *)

type pauli =
  | I
  | X
  | Y
  | Z

(** One weighted Pauli string; qubits not listed act as identity.  A qubit
    may appear at most once per term. *)
type term =
  { coefficient : float
  ; paulis : (int * pauli) list
  }

(** A Hermitian observable as a real-weighted sum of Pauli strings. *)
type t = term list

(** {1 Constructors} *)

val z : int -> t
val zz : int -> int -> t

(** [parity qubits] is the tensor product of Z over [qubits]. *)
val parity : int list -> t

(** [number qubits] counts excitations: [sum_q (1 - Z_q) / 2]. *)
val number : int list -> t

val scale : float -> t -> t
val add : t -> t -> t

(** {1 Evaluation} *)

(** [expectation p state ~n obs] is [<state| obs |state>] on a DD state. *)
val expectation : Dd.Pkg.t -> Dd.Types.vedge -> n:int -> t -> float

(** [expectation_dense sv obs] is the dense-backend evaluation, used as the
    oracle in tests. *)
val expectation_dense : Statevector.t -> t -> float

(** [expectation_density d obs] evaluates [Tr(rho obs)] on a density-matrix
    simulation result (summed over its classical ensemble). *)
val expectation_density : Density.t -> t -> float
