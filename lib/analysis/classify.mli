(** Static scheme-applicability pre-check: classify a circuit by its
    non-unitary content and decide which checking schemes of the paper
    apply, before any decision-diagram package is built.

    This is the static counterpart of the run-time routing in
    [Qcec.Verify]: {!classify}'s {!profile} predicts exactly when the
    unitary-only strategies would raise [Strategy.Non_unitary]
    ({!field:profile.first_blocker}) and when the Section 4 transformation
    would reject the circuit ({!field:profile.transform_blocker}). *)

type kind =
  | Unitary  (** gates only — every scheme applies directly *)
  | Measure_terminal
      (** measurements exist but none is followed by a use of its qubit or
          a read of its cbit; stripping them is semantics-preserving *)
  | Dynamic
      (** resets, classical conditions, or mid-circuit measurements whose
          outcome matters — needs Section 4 or Section 5 *)

val kind_name : kind -> string

type profile =
  { kind : kind
  ; num_qubits : int
  ; num_cbits : int
  ; gates : int
  ; measurements : int
  ; resets : int
  ; conditioned : int
  ; barriers : int
  ; first_non_unitary : (int * Circuit.Op.t) option
      (** first measure/reset/cond, if any *)
  ; first_blocker : (int * Circuit.Op.t) option
      (** first reset or condition — the op on which the unitary-only
          strategies raise [Strategy.Non_unitary] at run time *)
  ; transform_blocker : (int * string) option
      (** why the Section 4 transformation would reject the circuit,
          located at the offending op; [None] when it applies *)
  }

val classify : Circuit.Circ.t -> profile

(** [transformable p] holds when the Section 4 transformation accepts the
    circuit (no blocker found by the static mirror of its preconditions). *)
val transformable : profile -> bool

(** The three ways the paper checks a pair of circuits. *)
type scheme =
  | Unitary_scheme  (** any of the Section 3 strategies, measurements
                        stripped *)
  | Transformation  (** Section 4: reset elimination + deferral, then a
                        unitary strategy *)
  | Extraction  (** Section 5: output-distribution comparison *)

val scheme_name : scheme -> string

(** Machine-readable scheme tag: ["unitary"], ["transformation"] or
    ["extraction"]; used by the [qcec-lint/v2] classifier block. *)
val scheme_slug : scheme -> string

(** [admits scheme p] holds when [scheme] can soundly check a circuit with
    profile [p]. [Extraction] always applies. *)
val admits : scheme -> profile -> bool

(** [route p] is the cheapest admissible scheme, mirroring the automatic
    routing [Verify.functional] performs. *)
val route : profile -> scheme

(** [route_application a b] picks the alternation order for a pair already
    routed to a unitary-style scheme (an alias of {!Cost.recommend}). *)
val route_application : Cost.t -> Cost.t -> Cost.scheme

(** [compose_portfolio ?width ?shots kind a b] — the candidates to enter
    into a first-verdict-wins race for a pair whose most-dynamic
    classification is [kind]: {!Cost.compose_portfolio} with the
    simulative candidates dropped for {!Dynamic} pairs. *)
val compose_portfolio :
  ?width:int -> ?shots:int -> kind -> Cost.t -> Cost.t -> Cost.candidate list

(** [pair_kind a b] is the most dynamic classification of the pair
    ([Unitary] < [Measure_terminal] < [Dynamic]), the [kind] argument
    {!compose_portfolio} expects; symmetric in [a] and [b]. *)
val pair_kind : Circuit.Circ.t -> Circuit.Circ.t -> kind

val pp_profile : Format.formatter -> profile -> unit

val to_json : profile -> Obs.Json.t

(** [scheme_rejection ?file ?lines ~scheme p] is a located QA008 diagnostic
    when [scheme] does not admit [p] ([lines] maps op index to source
    line, as returned by the located parsers), [None] when it does. *)
val scheme_rejection :
  ?file:string ->
  ?lines:int array ->
  scheme:scheme ->
  profile ->
  Diagnostic.t option
