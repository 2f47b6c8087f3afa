(** Classical-bit bookkeeping shared by the extraction implementations. *)

(** [cond_holds cond cvals] evaluates a classical condition against the
    current bit values ([cvals] is a byte per classical bit, ['0'] or
    ['1']): bit [i] of [cond.value] is the [i]-th listed classical bit. *)
val cond_holds : Circuit.Op.cond -> Bytes.t -> bool

(** [canonical d] sorts [d] by assignment and sums the probabilities of
    equal assignments, so every key occurs once.  An input that is
    already strictly sorted is returned as is, without a sort. *)
val canonical : (string * float) list -> (string * float) list
