(** One call's share of the helper domains.

    A call that splits its work as it goes ([Qsim.Extraction.run] and
    [Qcec.Verify.distribution]) runs in a bag of [domains] domains: the
    calling one and at most [domains - 1] tasks lent to {!Helper} at
    once.  A task lent while that many run waits in the bag; the next
    domain of the call whose task ends takes it, the caller's included.
    So a split that comes too early for a free helper still runs as soon
    as one of the call's domains is free, and never on a domain more.

    A task that raises makes the bag fail: what still waits is dropped,
    a task lent afterwards is dropped, and the exception reaches the
    caller once every lent task has ended. *)

type t

val run : domains:int -> (t -> 'a) -> 'a
(** [run ~domains f] runs [f bag] on the calling domain.  When [f]
    returns, the caller runs the tasks still waiting, waits for the lent
    ones and joins them ({!Helper.join} folds their readings into the
    caller), then returns [f]'s value or re-raises the first exception of
    a task.  If [f] raises, the waiting tasks are dropped and the
    exception is re-raised once every lent task is joined.  Raises
    [Invalid_argument] if [domains < 1]. *)

val domains : t -> int
(** The [domains] the bag was made with. *)

val lend : t -> (unit -> unit) -> unit
(** [lend bag task] runs [task] on a helper domain at once if fewer than
    [domains - 1] tasks of [bag] are lent, and otherwise leaves it in the
    bag.  If no domain can be spawned it waits in the bag too.  Any task
    of the bag may lend. *)

val help : t -> until:(unit -> bool) -> unit
(** [help bag ~until] runs waiting tasks on the calling domain until
    [until ()] holds, and sleeps while none waits; [until] is read under
    the bag's lock each time a task ends or is left in the bag.  It
    re-raises the first exception of a task. *)
