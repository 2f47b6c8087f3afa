(** The name of the DD package: [Verify.portfolio] candidates carry it,
    and a candidate naming anything else fails. *)

(** ["classic"]. *)
val default : string
