(** Circuit operations, including the non-unitary dynamic-circuit primitives
    the paper is about: mid-circuit measurement, reset, and
    classically-controlled operations. *)

(** A quantum control: [(q, true)] activates on |1>, [(q, false)] on |0>. *)
type control =
  { cq : int
  ; pos : bool
  }

(** A classical condition: the operation fires when the classical bits
    [bits] (least-significant first) currently hold the integer [value]. *)
type cond =
  { bits : int list
  ; value : int
  }

type t =
  | Apply of
      { gate : Gates.t
      ; controls : control list
      ; target : int
      }
  | Swap of int * int
  | Measure of
      { qubit : int
      ; cbit : int
      }
  | Reset of int
  | Cond of
      { cond : cond
      ; op : t  (** must satisfy {!is_unitary} *)
      }
  | Barrier of int list

(** {1 Convenience constructors} *)

val apply : ?controls:control list -> Gates.t -> int -> t
val controlled : Gates.t -> control:int -> target:int -> t
val if_bit : bit:int -> value:bool -> t -> t

(** {1 Queries} *)

(** Qubits touched, in no particular order, without duplicates. *)
val qubits : t -> int list

(** Classical bits read (by conditions). *)
val cbits_read : t -> int list

(** Classical bits written (by measurements, looking through conditions: a
    classically-controlled measurement still writes its cbit). *)
val cbits_written : t -> int list

(** Qubits whose state the operation can change: gate targets, swap
    operands, measured and reset qubits — but {e not} controls, and not
    barrier operands (a barrier is a layout hint).  Looks through
    conditions. *)
val target_qubits : t -> int list

(** Control qubits of a (possibly conditioned) gate application. *)
val control_qubits : t -> int list

(** [base op] strips any [Cond] wrappers and returns the innermost
    operation. *)
val base : t -> t

(** [is_unitary op] holds for gate applications and swaps (possibly nested
    in conditions they are still non-unitary: a [Cond] is never unitary). *)
val is_unitary : t -> bool

(** [is_dynamic_primitive op] holds for measure, reset and conditioned
    operations. *)
val is_dynamic_primitive : t -> bool

(** {1 Transformations} *)

(** [map_qubits f op] renames every qubit through [f]. *)
val map_qubits : (int -> int) -> t -> t

(** [map_cbits f op] renames every classical bit through [f]. *)
val map_cbits : (int -> int) -> t -> t

(** [adjoint op] inverts a unitary operation.  Raises [Invalid_argument] on
    non-unitary operations. *)
val adjoint : t -> t

(** [validate ~num_qubits ~num_cbits op] checks all indices are in range,
    controls are distinct from targets, gate parameters are finite, and
    conditions wrap unitaries. *)
val validate : num_qubits:int -> num_cbits:int -> t -> (unit, string) result

val pp : Format.formatter -> t -> unit
