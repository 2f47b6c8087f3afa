(** Tolerance-based interning of complex numbers.

    Decision-diagram canonicity requires edge weights to be comparable by
    identity: two different gate sequences computing the same amplitude must
    yield the *same* weight object even in the presence of floating-point
    drift.  This module buckets complex values by binary exponent on a grid
    [tol] wide in exponent-normalized units, and returns a canonical
    {!value} (carrying a unique integer id) for every value that matches a
    previously interned one: each component within [tol] times the larger
    of the two magnitudes.

    This reproduces the role of the "complex table" in MQT's DD package,
    which the QCEC tool used by the paper builds upon. *)

type value = private { re : float; im : float; id : int }

type t

(** [create ~tol ()] makes a fresh table.  [tol] is the *relative*
    tolerance (default [1e-10]): [z] and [w] are identified when
    [|z.re - w.re|] and [|z.im - w.im|] are both at most [tol] times
    [max (|z|, |w|)], with [|.|] the larger absolute component. *)
val create : ?tol:float -> unit -> t

val tol : t -> float

(** [lookup t z] interns [z], returning the canonical representative: the
    first match in a fixed walk over [z]'s cell, its neighbours and the
    neighbouring binary exponents, newest entry first.  The canonical
    values [0] and [1] are pre-interned with ids [0] and [1] and are shared
    between all tables. *)
val lookup : t -> Cx.t -> value

(** Number of distinct values currently interned (including 0 and 1). *)
val size : t -> int

(** [rebuild t survivors] garbage-collects the table: every binding is
    dropped and exactly [survivors] (each passed once; the pre-interned 0
    and 1 are implicit) are re-interned under their existing ids, in
    ascending id order, whatever the order of the list.  Ids are
    never recycled, so values *not* in [survivors] that a caller still
    holds remain distinguishable — they only lose sharing with any later
    re-interning of the same complex number. *)
val rebuild : t -> value list -> unit

(** Canonical zero, id 0.  The same in every table. *)
val zero : value

(** Canonical one, id 1.  The same in every table. *)
val one : value

val is_zero : value -> bool
val is_one : value -> bool

(** [to_cx v] forgets the id. *)
val to_cx : value -> Cx.t

val pp : Format.formatter -> value -> unit
