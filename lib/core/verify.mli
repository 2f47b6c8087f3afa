(** End-to-end verification flows for circuits that may contain
    non-unitaries — the two schemes of the paper, instrumented with the
    timings reported in its Table 1. *)

(** Raised by {!functional} under [~on_dynamic:`Reject] when the static
    pre-flight ({!Analysis.classify}) finds a circuit the unitary-only
    strategies cannot handle.  Carries a located QA008 diagnostic; raised
    before any transformation runs or DD package is constructed. *)
exception Rejected of Analysis.Diagnostic.t

(** Raised by {!functional} and {!approximate} when an explicit [perm]
    has [entries] entries but the aligned register (both inputs
    transformed and padded to one width) has [qubits] qubits.  The width
    is only known after the transformation, so this is raised after it
    and before any DD package is constructed. *)
exception Perm_mismatch of { entries : int; qubits : int }

(** {1 Scheme 1 (Section 4): full functional verification} *)

type functional_result =
  { equivalent : bool  (** up to global phase *)
  ; exactly_equal : bool  (** without phase freedom *)
  ; strategy : Strategy.t
  ; t_transform : float
        (** seconds spent transforming dynamic inputs to unitary form
            ([t_trans] in the paper's Table 1) *)
  ; t_check : float  (** seconds spent in the equivalence check ([t_ver]) *)
  ; transformed_qubits : int  (** qubits after reset elimination *)
  ; peak_nodes : int
  ; cached : bool
        (** the verdict was served from the store; [t_transform] and
            [t_check] are 0 and [transformed_qubits]/[peak_nodes] replay
            the values recorded when it was first computed *)
  ; metrics : Obs.Metrics.snapshot
        (** DD-package counters attributable to this check (counter deltas;
            peak gauges report their process-wide peak).  All zeros unless
            collection is enabled via {!Obs.Metrics.set_enabled}. *)
  }

(** {1 Scheme 2 (Section 5): fixed-input distribution equivalence} *)

type distribution_result =
  { distributions_equal : bool
  ; total_variation : float
  ; t_extract : float
        (** seconds extracting the dynamic circuit's distribution
            ([t_extract]) *)
  ; t_simulate : float
        (** seconds classically simulating the static circuit ([t_sim]) *)
  ; dynamic_distribution : Distribution.t
  ; static_distribution : Distribution.t
  ; extraction_stats : Qsim.Extraction.stats
  ; metrics : Obs.Metrics.snapshot
        (** DD-package and extraction counters attributable to this
            comparison; see {!functional_result.metrics}. *)
  }

(** {1 Approximate equivalence}

    For lossy flows (approximate synthesis, noise-aware compilation) exact
    equality is the wrong question; the process fidelity
    [|Tr(U^dagger U')| / 2^n] quantifies how close the functionalities
    are. *)

type approximate_result =
  { process_fidelity : float  (** 1 iff equal up to global phase *)
  ; within : bool  (** [process_fidelity >= threshold] *)
  ; t_transform : float
  ; t_check : float
  }

(** [functional ?strategy ?perm g g'] checks full functional equivalence.
    Dynamic inputs are first transformed with the Section 4 scheme; [perm]
    (applied to the transformed [g']) aligns its wires with [g]'s (see
    {!Algorithms.Pair.dyn_to_static}).  When [perm] is omitted and
    [auto_align] is true (the default), the alignment is inferred from the
    measurements: qubits writing the same classical bit are identified, and
    unmeasured qubits matched in ascending order.  If the (transformed)
    circuits act on different numbers of qubits, the narrower one is padded
    with idle wires, which the check then requires to be exact identities.
    Final measurements are stripped before the unitary comparison.
    [on_dynamic] selects what happens when an input classifies as dynamic:
    [`Transform] (the default) applies the Section 4 transformation as
    before, [`Reject] raises {!Rejected} with a located diagnostic instead
    — before any DD package is constructed.
    [seed] perturbs the random-stimuli stream of the simulative
    strategies (see {!Strategy.check}); batch runs derive one per job.
    [cache], when given, short-circuits the whole check from the verdict
    store: the pair key covers both {!Circuit.Circ.digest}s plus strategy,
    transform mode, [perm], [seed] and tolerance (see [docs/CACHING.md]);
    a hit returns before any transformation or DD package construction
    with [cached = true], a miss inserts the fresh verdict after the
    check.  Pre-flight rejection still runs first, so [`Reject] raises
    identically cold and warm. *)
val functional :
     ?strategy:Strategy.t
  -> ?perm:int array
  -> ?auto_align:bool
  -> ?on_dynamic:[ `Transform | `Reject ]
  -> ?seed:int
  -> ?cache:Cache_store.Store.t
  -> Circuit.Circ.t
  -> Circuit.Circ.t
  -> functional_result

(** [measurement_alignment g g'] is the inferred wire permutation for two
    measurement-terminated static circuits, or [None] when the measurement
    structures do not correspond. *)
val measurement_alignment : Circuit.Circ.t -> Circuit.Circ.t -> int array option

(** [approximate ?threshold ?perm g g'] transforms dynamic inputs like
    {!functional} and computes the process fidelity via DD construction.
    [threshold] defaults to [1. -. 1e-9]. *)
val approximate :
     ?threshold:float
  -> ?perm:int array
  -> ?auto_align:bool
  -> Circuit.Circ.t
  -> Circuit.Circ.t
  -> approximate_result

(** [distribution ?eps ?cutoff ?domains dynamic static] extracts the
    measurement-outcome distribution of [dynamic] (Section 5 scheme) and
    compares it with the distribution obtained by classically simulating
    [static] (which must not be dynamic) and marginalizing its final state
    onto its measured classical bits.  Both circuits start from |0...0>
    and must write the same classical bits. *)
val distribution :
     ?eps:float
  -> ?cutoff:float
  -> ?domains:int
  -> Circuit.Circ.t
  -> Circuit.Circ.t
  -> distribution_result

(** {1 Portfolio racing}

    "Advanced Equivalence Checking for Quantum Circuits" (PAPERS.md)
    observes that which decider is fastest varies wildly by circuit
    family; racing a small portfolio and taking the first definitive
    verdict beats any single strategy on worst-case latency. *)

type candidate_outcome =
  [ `Won  (** produced the verdict the race returned *)
  | `Finished
      (** finished on its own terms without deciding the race: either an
          exact verdict produced after the winner's, or a simulative
          all-shots-pass (which never claims the race — see
          {!portfolio_result.winner_definitive}; on a pair an exact
          candidate refuted, a simulative [`Finished] may disagree with
          the race verdict, exactly because its stimuli were blind to the
          discrepancy) *)
  | `Cancelled  (** observed the winner at a safepoint and unwound *)
  | `Error of string  (** failed on its own terms before the race ended *)
  ]

type candidate_report =
  { c_strategy : Strategy.t
  ; c_seed : int option
        (** derived seed: {!candidate_seed} of the race seed and the
            candidate index *)
  ; c_outcome : candidate_outcome
  ; c_wall : float
        (** seconds from the candidate's start on its domain to its
            verdict, failure or cancellation *)
  ; c_metrics : Obs.Metrics.snapshot
        (** the metrics attributable to this candidate: for candidate 0,
            which runs on the calling domain, the diff of that domain's
            registry over its run (peak gauges then keep the domain's
            lifetime peak, as in {!functional_result.metrics}); for every
            other candidate, what its helper domain recorded while it ran
            ({!Par.Helper.join}) *)
  }

type portfolio_result =
  { winner : functional_result
  ; winner_index : int  (** position in the [candidates] argument *)
  ; winner_strategy : Strategy.t
  ; winner_definitive : bool
        (** [true] when the verdict is exact: an alternation/construction
            candidate finished, or a simulative candidate exhibited a
            distinguishing stimulus.  [false] when every surviving
            candidate was simulative and all shots agreed — the verdict is
            then probabilistic ('no discrepancy found'), and callers that
            need certainty must rerun with an exact strategy *)
  ; candidates : candidate_report list  (** one per entrant, in order *)
  ; races_cancelled : int  (** candidates stopped at a safepoint *)
  ; t_wall : float  (** wall-clock of the whole race *)
  }

(** [candidate_seed ~seed ~candidate] — the derived seed candidate
    [candidate] of a race with seed [seed] runs under.  A splitmix-style
    mix of the index rather than [seed + candidate]: the manifest already
    derives sibling-job seeds as [seed + index], so a linear rule one
    level down would make job [j]'s candidate 1 share a stimuli stream
    with job [j+1]'s candidate 0. *)
val candidate_seed : seed:int -> candidate:int -> int

(** [portfolio ~candidates g g'] races the candidates
    [(strategy, package)] — each with its own DD package — and returns the
    first definitive verdict.  A candidate's package name must be
    {!Dd.Registry.default}; any other name fails that candidate with
    [Invalid_argument].
    Candidate 0 runs on the calling domain and every other candidate on a
    helper domain ({!Par.Helper.spawn}): a parked one when one is idle,
    so consecutive races reuse the same domain instead of spawning and
    joining one per race, which in OCaml 5.1 starves the calling
    domain's major GC.  Every candidate is joined before [portfolio]
    returns or raises.  Every candidate's safepoint hook is cleared when
    it finishes, cancelled or not, so none outlives it on a helper.
    While candidate 0 runs,
    its safepoint hook replaces any hook the caller installed
    ({!Dd.Pkg.set_safepoint_hook}), and it is cleared afterwards.
    The instant a candidate publishes, every other candidate observes it
    at its next safepoint ([Pkg.checkpoint]) and unwinds.  Candidate 0's
    metrics and spans land in the calling domain's registries as it runs;
    the other candidates' are folded into them at join, so a batch
    worker's per-job metric diff covers the whole race, each candidate
    once.

    [seed] is the {e race} seed; candidate [i] runs under
    [candidate_seed ~seed ~candidate:i], so simulative candidates draw
    distinct, reproducible stimuli streams that cannot collide with a
    sibling job's (the manifest hands jobs [seed + index]).  [safepoint]
    is invoked at every candidate safepoint (after the race-abandonment
    check) with the candidate's strategy name and live node count — the
    batch pool uses it for cancellation/deadline checks and progress.

    Exact candidate verdicts are definitive (a completed alternation or
    construction check returns equivalent or not-equivalent, never
    maybe), and so is a simulative counterexample; any of these — cache
    hits included — decides the race the moment it lands.  A simulative
    all-shots-pass is {e not} definitive (fidelity-based sampling can
    miss discrepancies, phase-only ones in particular), so it never
    claims the race: the candidate records [`Finished] and the exact
    deciders race on.  Only when no definitive verdict ever lands does
    the first such finisher become the winner, with
    [winner_definitive = false].  If {e no} candidate finishes, the
    first candidate's failure is re-raised so callers classify the race
    like a solo run.  If a candidate's helper fails to spawn, or the
    calling domain's own share raises, the running candidates are unwound
    and joined before the exception propagates.  Increments
    [portfolio.races] once and [portfolio.cancelled] per cancelled
    candidate.  Raises [Invalid_argument] on an empty candidate list. *)
val portfolio :
     candidates:(Strategy.t * string) list
  -> ?perm:int array
  -> ?auto_align:bool
  -> ?on_dynamic:[ `Transform | `Reject ]
  -> ?seed:int
  -> ?cache:Cache_store.Store.t
  -> ?safepoint:(candidate:string -> live_nodes:int -> unit)
  -> Circuit.Circ.t
  -> Circuit.Circ.t
  -> portfolio_result

val pp_candidate_outcome : Format.formatter -> candidate_outcome -> unit

(** [now ()] — monotonic wall clock used for all timings (an alias of
    {!Obs.Clock.now}; readings cannot go backwards, so reported durations
    are always non-negative). *)
val now : unit -> float

val pp_functional : Format.formatter -> functional_result -> unit
val pp_distribution : Format.formatter -> distribution_result -> unit
