(** The daemon's job table: every submission gets an id, a lifecycle state
    and an append-only event log.

    Events are the SSE source of truth: each carries a job-local,
    monotonically increasing sequence number, so a streaming handler (or a
    reconnecting client with [Last-Event-ID]) asks for "everything after
    seq N" and never drops or duplicates a frame.  All operations are
    mutex-protected; callbacks from worker domains and connection threads
    may interleave freely. *)

module Json = Qcec_json

type state =
  | Queued
  | Running
  | Done of Engine.Job.result
      (** terminal — cancellations surface as a [Job.Cancelled] failure *)

type job = private
  { id : string
  ; label : string
  ; submitted : float  (** wall clock, [Unix.gettimeofday] *)
  ; control : Engine.Pool.control  (** cancel handle shared with the pool *)
  ; mutable state : state
  ; mutable events : (int * string * Json.t) list
  ; mutable seq : int
  }

type t

val create : unit -> t

(** [add t ~label ~control] registers a new job in state [Queued] and
    assigns it the next id ([job-000001], ...). *)
val add : t -> label:string -> control:Engine.Pool.control -> job

val lookup : t -> string -> job option
val state : t -> job -> state
val state_string : state -> string
val set_state : t -> job -> state -> unit

(** [emit t j ~event data] appends one event, stamping the next sequence
    number. *)
val emit : t -> job -> event:string -> Json.t -> unit

(** [events_after t j ~seq] — events with sequence number [> seq], oldest
    first. *)
val events_after : t -> job -> seq:int -> (int * string * Json.t) list

(** Fold over jobs in submission order. *)
val fold : t -> ('a -> job -> 'a) -> 'a -> 'a

(** [(queued, running, done)] totals. *)
val counts : t -> int * int * int
