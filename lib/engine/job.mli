(** The batch-verification job model: what one unit of work is, and what
    comes back — the [qcec-result/v1] line the {!Results} layer streams.

    A {!spec} is pure data: the pool compiles it into a call to
    [Qcec.Verify.functional] on some worker domain.  Everything that can go
    wrong is captured as a structured {!failure_class} rather than an
    exception, so one bad job never aborts a batch. *)

type source =
  | Files of
      { file_a : string
      ; file_b : string
      }  (** parsed (and lint-checked) on the worker *)
  | Circuits of
      { a : Circuit.Circ.t
      ; b : Circuit.Circ.t
      }  (** pre-parsed, e.g. from the benchmark generators *)

type spec =
  { index : int  (** position in the batch; results are reported per index *)
  ; label : string
  ; source : source
  ; strategy : Qcec.Strategy.t option  (** [None]: [Qcec.Strategy.default] *)
  ; auto_scheme : bool
        (** when [strategy] is [None]: run the [Analysis.Cost] passes on
            the parsed circuits and pick proportional or lookahead
            alternation from their cost profiles (manifest [scheme =
            "auto"]); default [false] *)
  ; perm : int array option  (** wire alignment, as in [Verify.functional] *)
  ; transform : bool
        (** [false] verifies with [~on_dynamic:`Reject]: dynamic inputs
            become a [Rejected] failure instead of being transformed *)
  ; timeout : float option  (** per-job wall-clock budget, seconds *)
  ; retries : int  (** extra attempts granted to timed-out jobs *)
  ; seed : int option  (** per-job stimuli seed (manifest seed + index) *)
  ; cache : bool
        (** consult/populate the pool's verdict store (default; a no-op
            when the pool has none configured); [false] opts this job out *)
  ; portfolio : int option
        (** [Some w], [w >= 2]: race up to [w] candidate deciders for this
            job via [Qcec.Verify.portfolio] (extra domains are borrowed
            from the pool's worker budget, so the pool never
            oversubscribes; a busy pool may grant fewer than [w]).
            [None] or [Some 1]: the ordinary solo path.  When [strategy]
            is set it becomes the lead candidate; otherwise the
            [Analysis] portfolio composition picks the field *)
  }

(** ["<basename a> vs <basename b>"] for files, ["<name a> vs <name b>"]
    for circuits: the label of a spec that sets none. *)
val default_label : source -> string

val files :
     ?label:string
  -> ?strategy:Qcec.Strategy.t
  -> ?auto_scheme:bool
  -> ?perm:int array
  -> ?transform:bool
  -> ?timeout:float
  -> ?retries:int
  -> ?seed:int
  -> ?cache:bool
  -> ?portfolio:int
  -> index:int
  -> string
  -> string
  -> spec

val circuits :
     ?label:string
  -> ?strategy:Qcec.Strategy.t
  -> ?auto_scheme:bool
  -> ?perm:int array
  -> ?transform:bool
  -> ?timeout:float
  -> ?retries:int
  -> ?seed:int
  -> ?cache:bool
  -> ?portfolio:int
  -> index:int
  -> Circuit.Circ.t
  -> Circuit.Circ.t
  -> spec

(** A successful verification — the fields of
    [Qcec.Verify.functional_result] that serialize. *)
type verdict =
  { equivalent : bool
  ; exactly_equal : bool
  ; strategy : string
  ; t_transform : float
  ; t_check : float
  ; transformed_qubits : int
  ; peak_nodes : int
  ; cached : bool  (** served from the verdict store without a DD run *)
  }

type failure_class =
  | Timeout  (** wall-clock budget exhausted (cooperative, at DD safepoints) *)
  | Lint_error  (** lint pre-flight found error-severity diagnostics *)
  | Parse_error  (** unreadable or malformed QASM input *)
  | Non_unitary  (** [Strategy.Non_unitary] escaped (non-transformable op) *)
  | Rejected
      (** dynamic input under [transform = false], or a [perm] whose
          length does not match the aligned register *)
  | Node_limit  (** live DD nodes exceeded the pool's [node_limit] *)
  | Cancelled
      (** killed on request (the daemon's [DELETE /v1/jobs/<id>]): the
          cancel flag of the job's {!Pool.control} was raised, and the
          safepoint hook unwound the attempt — or the job was still
          queued and never started *)
  | Crash  (** any other exception, [Printexc]-rendered *)

type outcome =
  | Verdict of verdict
  | Failed of
      { reason : failure_class
      ; message : string
      }

type result =
  { index : int
  ; label : string
  ; files_checked : (string * string) option
  ; outcome : outcome
  ; duration : float  (** seconds across all attempts *)
  ; attempts : int
  ; worker : int  (** pool worker id that ran the job *)
  ; seed : int option
  ; metrics : Obs.Metrics.snapshot
        (** the job's own reading ({!Obs.Scope}): its counters, and its
            own peaks whatever ran before it on the worker; empty when
            collection is off *)
  }

val failure_class_string : failure_class -> string
val failure_class_of_string : string -> failure_class option

(** [exit_class o] is the stable string the [exit] field of a result line
    carries: ["equivalent"], ["not_equivalent"], ["cached"] (a verdict
    served from the store — its [equivalent] flag still says which), or a
    failure class. *)
val exit_class : outcome -> string

(** [succeeded r] — the job ran to completion {e and} found the pair
    equivalent. *)
val succeeded : result -> bool

(** [same_outcome a b] compares outcomes modulo scheduling: verdict flags
    and strategy must match (timings, and whether the verdict came from
    the cache, may differ), failures must agree on the class (messages may
    differ).  This is the invariant batch runs maintain across worker
    counts — and that warm runs maintain against their cold run. *)
val same_outcome : outcome -> outcome -> bool

val pp_result : Format.formatter -> result -> unit

(** {1 [qcec-result/v1]} *)

val schema : string

val to_json : result -> Obs.Json.t

(** [of_json j] inverts {!to_json} exactly: for any [r],
    [of_json (of_string (Json.to_string (to_json r)))] is [Ok r].  Keys it
    does not know are ignored, such as the ["backend"] of older lines. *)
val of_json : Obs.Json.t -> (result, string) Stdlib.result

(** [of_string line] parses one JSONL line. *)
val of_string : string -> (result, string) Stdlib.result
