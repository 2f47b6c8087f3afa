(** Helper domains that parallel calls borrow instead of spawning.

    A race ([Qcec.Verify.portfolio]) and a batch ([Engine.Pool.run]) each
    run one share of their work on the calling domain and hand the
    others to helpers; the daemon's pool ([Engine.Pool.create]) lends
    each of its worker loops to one until [Engine.Pool.shutdown] joins
    it.  A Section 5 check ([Qcec.Verify.distribution]) lends its
    reference and the subtrees its extraction walk splits off, and a
    bare extraction ([Qsim.Extraction.run]) its subtrees, through a
    {!Bag} that keeps at most [domains - 1] of them on helpers.  {!spawn}
    lends a task to a parked helper and spawns a domain only when none
    is parked; when the task ends its helper parks again, so a process
    that runs thousands of width-2 races runs every candidate 1 on the
    same domain.

    Spawning and joining a domain per call starves the calling domain's
    major GC in OCaml 5.1: the process's major cycles fall behind its
    allocation and the heap grows with the number of calls
    (docs/PERFORMANCE.md, "Helper domains").

    A parked helper is not free either: it takes part in every
    stop-the-world minor collection of the process, which slows the
    domain doing the work.  Two fixed bounds keep that tax short: at
    most {!max_parked} helpers stay parked (a surplus one retires when
    its task ends), and a helper parked for {!grace} seconds retires.

    A task runs in its own {!Obs.Scope}, so what it records is exactly
    its own work; {!join} folds that reading into the joining domain.
    The helper's other domain-local state (a DD safepoint hook, say)
    outlives the task: a task that installs any must remove it on every
    exit path. *)

type 'a t
(** A task lent to a helper; {!join} it exactly once. *)

val grace : float
(** Seconds a parked helper waits for its next task before it retires:
    0.25, longer than the gaps between the parallel calls of a run of
    races or batches, short enough that the idle tax ends soon after the
    last one. *)

val max_parked : int
(** [max 1 (Domain.recommended_domain_count () - 1)]: the most helpers
    that stay parked at once. *)

val spawn : (unit -> 'a) -> 'a t
(** [spawn f] runs [f ()] on a parked helper, or on a new domain when
    none is parked.  It raises if a domain is needed and cannot be
    spawned. *)

val join : 'a t -> 'a
(** [join t] waits for [t], folds the reading of its scope into the
    calling domain ({!Obs.Scope.absorb}) and returns its value.  If the
    task raised, its reading is folded all the same and [join] re-raises
    its exception with the task's backtrace (recorded if the spawning
    domain records backtraces). *)

val fork_join :
  ?abort:(unit -> unit) -> (unit -> 'a) list -> (unit -> 'b) -> 'b * 'a list
(** [fork_join tasks f] spawns every task, runs [f ()] on the calling
    domain, then joins the tasks in order.  Every spawned task is joined
    on every path: if a spawn or [f] raises, [abort ()] runs first (to
    make the running tasks stop early) and the exception is re-raised
    once they are done; if a task raised, the first such exception is
    re-raised once all are joined. *)

val parked : unit -> int
(** The number of helpers parked now. *)
