(** Runtime registry of DD backends.

    Maps backend names to first-class {!Backend.S} modules so
    non-functorized entry points (the CLI, the batch engine, bench)
    dispatch at runtime:

    {[
      match Dd.Registry.find name with
      | None -> ...        (* unknown backend: usage error *)
      | Some b ->
        let module B = (val b) in
        let module V = Qcec.Verify.Make (B) in
        V.functional ...
    ]}

    The registry is the fixed list of the built-in backends, {!Classic}
    and {!Packed}. *)

(** [find name] resolves a backend by registry name. *)
val find : string -> (module Backend.S) option

(** Registered names, sorted: [["classic"; "packed"]]. *)
val names : unit -> string list

(** The default backend name, ["classic"]. *)
val default : string
