(* qcec_serve: the verification-as-a-service daemon.

   Thin Cmdliner wrapper around [Serve.Server]: parse flags into a
   [Server.config], start, then block until SIGTERM/SIGINT requests the
   graceful drain.  Everything interesting lives in lib/serve. *)

open Cmdliner

let log_line msg =
  let now = Unix.gettimeofday () in
  let tm = Unix.localtime now in
  Printf.eprintf "[%04d-%02d-%02d %02d:%02d:%02d] qcec_serve: %s\n%!" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec msg

let run host port workers queue_capacity rate burst max_body heartbeat timeout node_limit
    cache_dir no_lint max_connections quiet =
  let cache =
    match cache_dir with
    | None -> None
    | Some dir -> (
      match Cache_store.Store.open_dir dir with
      | Ok store ->
        if not quiet then
          log_line
            (Printf.sprintf "verdict store %s: %d entries recovered" dir
               (Cache_store.Store.recovered store));
        Some store
      | Error e ->
        Fmt.epr "qcec_serve: cannot open cache directory %s: %s@." dir e;
        exit 2)
  in
  let cfg =
    { Serve.Server.default_config with
      Serve.Server.host
    ; port
    ; workers
    ; queue_capacity
    ; rate
    ; burst
    ; max_body
    ; heartbeat_interval = heartbeat
    ; default_timeout = timeout
    ; node_limit
    ; cache
    ; lint = not no_lint
    ; max_connections
    ; log = (if quiet then None else Some log_line)
    }
  in
  let server =
    try Serve.Server.start cfg with
    | Unix.Unix_error (err, _, _) ->
      Fmt.epr "qcec_serve: cannot bind %s:%d: %s@." host port (Unix.error_message err);
      exit 2
  in
  Printf.printf "qcec_serve %s listening on http://%s:%d\n%!" Qcec.Version.string host
    (Serve.Server.port server);
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  while not (Atomic.get stop_requested) do
    Thread.delay 0.2
  done;
  if not quiet then log_line "signal received: draining";
  Serve.Server.stop server;
  Option.iter Cache_store.Store.close cache;
  if not quiet then log_line "shutdown complete"

let cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port =
    Arg.(
      value & opt int 8077
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port (0 picks an ephemeral port).")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "w"; "workers" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue_capacity =
    Arg.(
      value & opt int 64
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Admission queue bound; submissions beyond it get 429 + Retry-After.")
  in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"R"
          ~doc:"Per-client submission rate limit (jobs/second); 0 disables.")
  in
  let burst =
    Arg.(value & opt int 16 & info [ "burst" ] ~docv:"N" ~doc:"Per-client rate-limit burst.")
  in
  let max_body =
    Arg.(
      value
      & opt int (4 * 1024 * 1024)
      & info [ "max-body" ] ~docv:"BYTES" ~doc:"Request body size bound (HTTP 413 beyond it).")
  in
  let heartbeat =
    Arg.(
      value & opt float 0.25
      & info [ "heartbeat" ] ~docv:"SECONDS" ~doc:"Progress/keep-alive event interval.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Default per-job wall-clock budget.")
  in
  let node_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "node-limit" ] ~docv:"N"
          ~doc:
            "DD node budget per job, checked at safepoints against the unique \
             tables' size: the live nodes plus the garbage since the last \
             sweep.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Persistent verdict store shared by all jobs.")
  in
  let no_lint = Arg.(value & flag & info [ "no-lint" ] ~doc:"Skip the lint pre-flight.") in
  let max_connections =
    Arg.(
      value & opt int 64
      & info [ "max-connections" ] ~docv:"N" ~doc:"Concurrent connection bound (503 beyond it).")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the server log.") in
  let info =
    Cmd.info "qcec_serve" ~version:Qcec.Version.string
      ~doc:"Equivalence-checking daemon: submit jobs over HTTP, stream progress as SSE"
  in
  Cmd.v info
    Term.(
      const run $ host $ port $ workers $ queue_capacity $ rate $ burst $ max_body $ heartbeat
      $ timeout $ node_limit $ cache_dir $ no_lint $ max_connections $ quiet)

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  exit (Cmd.eval cmd)
