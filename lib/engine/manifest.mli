(** [qcec-manifest/v1]: the on-disk description of a batch.

    {v
    { "schema": "qcec-manifest/v1",
      "seed": 42,
      "defaults": { "strategy": "proportional", "timeout": 30,
                    "retries": 1, "transform": true },
      "jobs": [
        { "a": "bv6_dynamic.qasm", "b": "bv6_static.qasm",
          "label": "bv6", "strategy": "simulation:16",
          "perm": [0, 2, 1], "timeout": 5, "retries": 0,
          "transform": false } ] }
    v}

    Only ["schema"] and ["jobs"] (with per-job ["a"]/["b"]) are required;
    every other field is optional, and unknown fields are ignored.
    Per-job fields override the ["defaults"] block.  File paths are
    resolved relative to the manifest's directory.  The manifest-level
    ["seed"] derives one deterministic
    stimuli seed per job ([seed + job index]), so simulative strategies are
    reproducible — and identical — regardless of worker count or
    scheduling order.

    A ["scheme"] field (per job or in defaults) selects the application
    scheme: ["auto"] routes each job through the static analysis passes at
    run time (cost profiles pick proportional or lookahead alternation),
    while any other value is a synonym for ["strategy"].

    A job may carry ["skip": true]: it is dropped at compile time while
    the remaining jobs keep their manifest indices (and derived seeds), so
    skipping never reshuffles a batch.  ["cache_dir"] (manifest-relative)
    names a verdict store the runner should open; the CLI's [--cache-dir]
    overrides it and [--no-result-cache] disables both. *)

type defaults =
  { strategy : Qcec.Strategy.t option
  ; auto_scheme : bool
        (** from ["scheme": "auto"]: route each job through the analysis
            passes at run time; any other ["scheme"] value is a strategy
            synonym and lands in [strategy] instead *)
  ; timeout : float option
  ; retries : int
  ; transform : bool
  ; cache : bool
        (** default [true]; ["cache": false] (per job or in defaults)
            opts jobs out of the verdict store even when one is open *)
  ; portfolio : int option
        (** ["portfolio": w] (per job or in defaults) races up to [w]
            candidate deciders per job, first verdict wins; [w] must be
            [>= 2] (a per-job [0] disables a defaulted portfolio).  Race
            domains are borrowed from the pool's worker budget, so
            [--jobs] still bounds total parallelism *)
  }

val no_defaults : defaults

type t =
  { seed : int option
  ; cache_dir : string option
        (** verdict store requested by the manifest, already resolved
            against the manifest directory *)
  ; jobs : Job.spec list
  }

val schema : string

(** [load path] reads and compiles a manifest file; paths inside resolve
    relative to [Filename.dirname path]. *)
val load : string -> (t, string) result

(** [of_json ?dir j] compiles an already-parsed manifest document.  [dir]
    (default ".") anchors relative circuit paths. *)
val of_json : ?dir:string -> Obs.Json.t -> (t, string) result

(** [compile_job ?defaults ~index ~seed source j] compiles the fields of
    one job object [j] — ["label"], ["strategy"]/["scheme"], ["perm"],
    ["timeout"], ["retries"], ["transform"], ["cache"], ["portfolio"] —
    onto [source] and [seed].  Fields [j] omits come from
    [defaults] (default {!no_defaults}); the label defaults to
    {!Job.default_label}.  Manifest jobs compile through it with a [Files]
    source, the daemon's inline submissions with parsed [Circuits]. *)
val compile_job :
     ?defaults:defaults
  -> index:int
  -> seed:int option
  -> Job.source
  -> Obs.Json.t
  -> (Job.spec, string) result

(** [pair_files paths] pairs a flat file list consecutively:
    [[a; b; c; d]] becomes [[(a, b); (c, d)]].  An odd count is an
    error. *)
val pair_files : string list -> ((string * string) list, string) result

(** [of_pairs ?seed ?defaults pairs] builds a manifest directly from file
    pairs — the globbed-QASM path of the CLI. *)
val of_pairs : ?seed:int -> ?defaults:defaults -> (string * string) list -> t
