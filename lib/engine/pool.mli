(** The domain worker pool: runs a list of {!Job.spec}s across OCaml 5
    domains and collects one {!Job.result} per job.

    {2 Isolation}

    Each job constructs its own DD package (inside
    [Qcec.Verify.functional]) on the worker domain that runs it, so
    packages never cross domains — [Dd.Pkg]'s owner guard enforces the
    contract.  Every job is read in its own {!Obs.Scope}
    ({!Job.result.metrics}), and so is every {!run} ({!batch.metrics});
    a worker loop on a helper hands its reading to the domain that joins
    it.

    {2 Robustness}

    A job never aborts the batch: parse errors, lint errors,
    [Strategy.Non_unitary], [Verify.Rejected], [Verify.Perm_mismatch],
    wall-clock timeouts and node-budget overruns all come back as
    structured [Job.Failed] outcomes.  Timeouts and node budgets cancel
    {e cooperatively}: a hook installed at the DD package's safepoints
    ([Dd.Pkg.checkpoint], reached after every gate application) raises
    {!Cancelled} when the attempt's deadline or the pool's node limit is
    exceeded — a tiny job may finish before its first safepoint even with
    a zero budget.  The node limit counts the unique tables at the
    safepoint: the live nodes plus the garbage since the last sweep.
    A timed-out job runs again, up to [spec.retries] extra attempts,
    each with a fresh deadline. *)

(** Raised inside a worker at a DD safepoint to unwind a cancelled
    attempt; classified into [Job.Timeout] / [Job.Node_limit] /
    [Job.Cancelled] (for [`Kill], a raised {!control} cancel flag). *)
exception Cancelled of [ `Timeout | `Node_limit of int | `Kill ]

(** {1 Per-job control: cancellation and live progress}

    A {!control} rides along with a job submission and plugs into the same
    safepoint hook that implements timeouts: raising the cancel flag
    unwinds the attempt at its next DD safepoint, and [on_progress] (if
    given) is invoked from that hook — on the worker domain — at most once
    per [progress_interval] seconds with the package's live node count and
    the attempt's elapsed wall clock.  This is what the daemon's
    [DELETE /v1/jobs/<id>] and SSE heartbeat stream are built on. *)

type progress =
  { phase : string
        (** ["check"] for a solo job (DD work underway);
            ["race:<strategy>"] for a portfolio job — the candidate that
            fired this heartbeat, i.e. the one currently leading the
            progress stream *)
  ; live_nodes : int
  ; elapsed : float  (** seconds since the attempt started *)
  }

type control

(** [control ()] makes a fresh, un-cancelled control.  [progress_interval]
    defaults to 0.25s; [on_start] fires on the worker just before the
    first attempt; [on_progress] must be thread-safe (it runs on the
    worker domain, between gate applications — keep it cheap). *)
val control :
     ?progress_interval:float
  -> ?on_start:(unit -> unit)
  -> ?on_progress:(progress -> unit)
  -> unit
  -> control

(** [cancel c] requests cooperative cancellation: a running job unwinds at
    its next safepoint into a [Job.Cancelled] failure; a queued job is
    skipped when a worker picks it up.  Idempotent, safe from any
    thread. *)
val cancel : control -> unit

val cancel_requested : control -> bool

type config =
  { workers : int  (** domain count; clamped to [1 .. max 1 (#jobs)] *)
  ; node_limit : int option  (** unique-table node budget, checked at safepoints *)
  ; lint : bool  (** run the lint pre-flight before each verification *)
  ; on_result : (Job.result -> unit) option
        (** {!run}'s streaming callback, invoked under one lock as each job
            finishes (on the domain of the worker that ran it, the calling
            domain included, in completion order) *)
  ; cache : Cache_store.Store.t option
        (** verdict store shared by every worker (lookups and inserts
            serialize on the store's mutex); jobs with
            [spec.cache = false] bypass it *)
  }

(** [workers = Domain.recommended_domain_count ()], no node limit, lint
    on, no callback, no verdict store. *)
val default_config : config

type batch =
  { results : Job.result list  (** in job-index order *)
  ; wall_seconds : float
  ; workers : int  (** domains actually used *)
  ; metrics : Obs.Metrics.snapshot
        (** the run's own reading: its scheduling counters and every job
            once, peaks its own; empty when collection is off *)
  ; spans : Obs.Span.entry list  (** the spans of the same scope *)
  }

(** [run config specs] executes the batch and returns once every job has
    a result: one {!submit} per spec and a draining stop, with [workers]
    clamped to the job count.  The calling domain runs the last worker
    itself and the other [workers - 1] run on helper domains, so
    [workers = 1] uses none.  The helpers are borrowed from
    {!Par.Helper}, the parked domains that races and parallel extraction
    borrow too, and every one has finished its loop before [run]
    returns or raises.  If
    [config.on_result] raises, the jobs still queued are dropped and
    [run] re-raises that exception once the helpers are done.

    Jobs with [spec.portfolio = Some w] ([w >= 2]) race candidate deciders
    via [Qcec.Verify.portfolio]: the job's worker runs candidate 0 and
    every other candidate's slot is borrowed from the worker budget.
    The pool never runs more than [config.workers] domains at once, so on
    a busy pool a race is granted fewer lanes (down to a single
    candidate) rather than oversubscribing the machine. *)
val run : config -> Job.spec list -> batch

(** {1 Persistent pool}

    The daemon's execution substrate: {!create} lends [config.workers]
    worker loops to {!Par.Helper} domains, and they run across
    submissions until {!shutdown} joins them; the domains then park for
    the process's next parallel call.  Jobs are queued (unboundedly —
    admission control is the {e caller's} policy) and every completion is
    delivered through its own callback, invoked on the worker domain that
    ran the job.  [config.on_result] is ignored in this mode. *)

type pool

val create : config -> pool

(** [submit pool ?control ~on_done spec] enqueues one job.  [on_done] runs
    on a worker domain and must be thread-safe.  [Error `Stopped] once
    {!shutdown} has begun.  A job whose [control] is cancelled while still
    queued is skipped: [on_done] receives a [Job.Cancelled] failure
    without any parsing or DD work. *)
val submit :
     pool
  -> ?control:control
  -> on_done:(Job.result -> unit)
  -> Job.spec
  -> (unit, [ `Stopped ]) result

(** Jobs queued but not yet picked up by a worker. *)
val pending : pool -> int

(** Jobs currently executing. *)
val active : pool -> int

(** [shutdown ?drain pool] stops the pool and blocks until every worker
    loop has ended, folding what each recorded into the calling domain
    ({!Par.Helper.join}).  With [drain = true] (default) queued
    jobs run to completion first; with [drain = false] they are abandoned
    — each still gets its [on_done] with a [Job.Cancelled] failure — and
    workers exit after their current job.  Further {!submit}s return
    [Error `Stopped] from the moment shutdown begins. *)
val shutdown : ?drain:bool -> pool -> unit
