(** Graphviz export of decision diagrams, for debugging and documentation. *)

(** [vector ppf e] prints a DOT digraph of the vector DD rooted at [e]. *)
val vector : Format.formatter -> Types.vedge -> unit

(** [matrix ppf e] prints a DOT digraph of the matrix DD rooted at [e]. *)
val matrix : Format.formatter -> Types.medge -> unit

(** [vector_to_file path e] and [matrix_to_file path e] write the DOT text
    to [path]. *)
val vector_to_file : string -> Types.vedge -> unit

val matrix_to_file : string -> Types.medge -> unit
