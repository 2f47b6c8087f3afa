(* The name of the one DD package, kept for callers that still label
   portfolio candidates with it. *)

let default = "classic"
