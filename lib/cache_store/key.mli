(** Cache keys for verification verdicts.

    A verdict is reusable only when both circuits {e and} every input that
    can change the outcome match: the checking strategy (shot counts
    included), whether dynamic circuits are transformed or rejected, any
    explicit output permutation, the stimuli seed and the numerical
    tolerance.  All of it is folded into one hex digest so the store can
    index verdicts by a single string. *)

type config =
  { strategy : string  (** canonical name, e.g. [proportional], [simulation(16)] *)
  ; transform : bool  (** dynamic circuits transformed ([true]) or rejected *)
  ; perm : int array option  (** explicit output permutation, if any *)
  ; seed : int option  (** stimuli seed for simulative strategies *)
  ; tol : float  (** DD numerical tolerance *)
  }

(** [make ~digest_a ~digest_b config] is the pair key: a hex digest over
    both circuit digests (order-sensitive — equivalence checking is
    symmetric but verdict metadata like [transformed_qubits] is not) and
    the full configuration. *)
val make : digest_a:string -> digest_b:string -> config -> string
