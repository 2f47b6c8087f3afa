(* Runtime backend registry: lets the CLI, the batch engine and the bench
   driver pick a {!Backend.S} implementation by name without being
   functorized themselves.  The two built-in backends form a fixed list,
   sorted by name. *)

let backends : (module Backend.S) list = [ (module Classic); (module Packed) ]

let find name =
  List.find_opt (fun (module B : Backend.S) -> B.name = name) backends

let names () = List.map (fun (module B : Backend.S) -> B.name) backends
let default = "classic"
