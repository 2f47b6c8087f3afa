(** The verification daemon: an HTTP/1.1 service over the persistent
    {!Engine.Pool}, with bounded admission, per-client rate limits and live
    per-job progress streamed as server-sent events.

    Routes ([docs/SERVICE.md] has schemas and examples):
    - [GET /v1/health] — status, version, queue depth, job counts
    - [GET /v1/metrics] — server counters + merged per-job DD metrics
    - [POST /v1/jobs] — submit an inline pair ([{"a": <qasm>, "b": <qasm>,
      ...}]) or a full [qcec-manifest/v1] document; responds [202] with job
      ids, [429] + [Retry-After] when rate-limited or the admission queue
      is full, [503] while draining
    - [GET /v1/jobs] / [GET /v1/jobs/<id>] — listing / status (with the
      full [qcec-result/v1] document once done)
    - [DELETE /v1/jobs/<id>] — cooperative cancellation at the job's next
      DD safepoint
    - [GET /v1/jobs/<id>/events] — SSE stream of
      [queued]/[started]/[progress]/[done] frames; honours
      [Last-Event-ID] (or [?after=N]) for resumption

    Every error is a structured [qcec-serve/v1] JSON object
    [{"error": {"code", "message"}}].  Connections are one-shot
    ([Connection: close]). *)

val schema : string

type config =
  { host : string  (** bind address, default ["127.0.0.1"] *)
  ; port : int  (** [0] picks an ephemeral port (see {!port}) *)
  ; workers : int  (** persistent pool domains *)
  ; queue_capacity : int
        (** max jobs queued (not yet running); beyond it submissions get
            429 + [Retry-After] *)
  ; rate : float  (** submissions/second per client IP; [<= 0] disables *)
  ; burst : int  (** token-bucket burst per client *)
  ; max_body : int  (** request-body bound; beyond it, HTTP 413 *)
  ; heartbeat_interval : float
        (** progress-event cadence from the DD safepoint hook, and the SSE
            keep-alive comment interval *)
  ; default_timeout : float option  (** applied to jobs that set none *)
  ; node_limit : int option  (** pool-wide live-node budget *)
  ; cache : Cache_store.Store.t option
        (** verdict store shared across all requests; the caller owns it
            (the server never closes it) *)
  ; lint : bool
  ; max_connections : int  (** concurrent connections; beyond it, 503 *)
  ; stats : bool  (** enable {!Obs.Metrics} collection at startup *)
  ; log : (string -> unit) option  (** one line per event, no newline *)
  }

(** Loopback, ephemeral port, 2 workers, capacity 64, rate limiting off,
    4 MiB bodies, 0.25s heartbeat, stats on. *)
val default_config : config

type t

(** [start cfg] binds, spawns the accept thread and the worker pool, and
    returns immediately.  Ignores [SIGPIPE] process-wide (hangups surface
    as [EPIPE]).  Raises [Unix.Unix_error] if the bind fails. *)
val start : config -> t

(** The bound port (useful with [port = 0]). *)
val port : t -> int

val stopping : t -> bool

(** [stop t] drains gracefully: stops accepting, waits for open
    connections and in-flight jobs to finish (queued jobs run to
    completion), then shuts the pool down and folds its registries into
    the calling domain.  Idempotent; blocks until fully stopped. *)
val stop : t -> unit
