(** Recursive-descent parser for an OpenQASM 2.0 subset.

    Supported statements: the [OPENQASM 2.0;] header, [include] (ignored),
    [qreg]/[creg] declarations (multiple registers are flattened in
    declaration order), applications of the qelib1 gates
    [id x y z h s sdg t tdg sx sxdg rx ry rz p u1 u2 u3 u cx cy cz ch cp cu1
    crz cu3 ccx swap], the builtins [U] and [CX], [measure], [reset],
    [barrier], [if (creg == int) <op>;], and user [gate] definitions
    (unitary bodies referencing their formal parameters and operands; calls
    are expanded at the application site, recursively).  Gate parameters are
    expressions over numbers, [pi] and — inside definitions — the formal
    parameters, with [+ - * /] and parentheses.  An [if] over a defined
    gate distributes the condition over the expansion.

    An [if] over a single-bit register becomes a single-bit condition; over
    a wider register it becomes a multi-bit condition on all its bits. *)

exception Parse_error of string * int  (** message, line number *)

(** [parse ?name src] parses a full program. *)
val parse : ?name:string -> string -> Circ.t

(** [read_file path] is the whole contents of [path].  A failure raises
    [Sys_error] with a message that begins with [path]. *)
val read_file : string -> string

val parse_file : string -> Circ.t

(** [parse_located ?name src] additionally returns the 1-based source line
    of every operation, index-aligned with the circuit's op list.  Ops
    produced by expanding a gate definition (or distributing an [if])
    carry the line of the statement that produced them.  The static
    analyzer ([lib/analysis]) threads these spans into its diagnostics. *)
val parse_located : ?name:string -> string -> Circ.t * int array

val parse_file_located : string -> Circ.t * int array

(**/**)

(** Internal machinery shared with {!Qasm3_parser}; not a stable API. *)
module Engine : sig
  type state

  val make : string -> state
  val peek : state -> Qasm_lexer.token
  val peek2 : state -> Qasm_lexer.token
  val advance : state -> unit
  val expect : state -> Qasm_lexer.token -> unit
  val expect_ident : state -> string
  val expect_nat : state -> int
  val fail : state -> string -> 'a

  (** Source line of the next token (of the last consumed one at EOF). *)
  val line : state -> int
  val declare_qreg : state -> string -> int -> unit
  val declare_creg : state -> string -> int -> unit
  val is_creg : state -> string -> bool
  val parse_qubit : state -> int
  val parse_cbit : state -> int
  val parse_args : state -> float list
  val resolve_gate : state -> string -> float list -> int list -> Op.t list
  val parse_gate_definition : state -> unit
  val emit_at : state -> line:int -> Op.t -> unit
  val finish : state -> name:string -> Circ.t
  val finish_located : state -> name:string -> Circ.t * int array
end

(**/**)
