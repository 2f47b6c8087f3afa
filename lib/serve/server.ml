module Json = Qcec_json
module Pool = Engine.Pool
module Job = Engine.Job

let schema = "qcec-serve/v1"

type config =
  { host : string
  ; port : int
  ; workers : int
  ; queue_capacity : int
  ; rate : float
  ; burst : int
  ; max_body : int
  ; heartbeat_interval : float
  ; default_timeout : float option
  ; node_limit : int option
  ; cache : Cache_store.Store.t option
  ; lint : bool
  ; max_connections : int
  ; stats : bool
  ; log : (string -> unit) option
  }

let default_config =
  { host = "127.0.0.1"
  ; port = 0
  ; workers = 2
  ; queue_capacity = 64
  ; rate = 0.0
  ; burst = 16
  ; max_body = 4 * 1024 * 1024
  ; heartbeat_interval = 0.25
  ; default_timeout = None
  ; node_limit = None
  ; cache = None
  ; lint = true
  ; max_connections = 64
  ; stats = true
  ; log = None
  }

type t =
  { cfg : config
  ; listener : Unix.file_descr
  ; port : int
  ; pool : Pool.pool
  ; registry : Registry.t
  ; limiter : Limiter.t
  ; started : float
  ; stopping : bool Atomic.t
  ; lock : Mutex.t
  ; idle : Condition.t
  ; mutable conns : int
  ; mutable next_index : int
  ; mutable job_metrics : Obs.Metrics.snapshot
  ; mutable submitted : int
  ; mutable completed : int
  ; mutable rejected : int
  ; mutable accept_thread : Thread.t option
  }

let port t = t.port
let stopping t = Atomic.get t.stopping

let logf t fmt =
  Printf.ksprintf
    (fun s ->
      match t.cfg.log with
      | Some f -> f s
      | None -> ())
    fmt

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

(* unwinds a connection handler into one structured error response *)
exception Reject of int * (string * string) list * string * string

let reject ?(headers = []) status code message = raise (Reject (status, headers, code, message))

let error_body code message =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.String schema)
       ; ("error", Json.Obj [ ("code", Json.String code); ("message", Json.String message) ])
       ])

let respond fd ?headers ~status body = Http.write_all fd (Http.response ?headers ~status body)

let respond_error fd ?headers ~status code message =
  respond fd ?headers ~status (error_body code message)

(* ------------------------------------------------------------------ *)
(* Inline submissions                                                  *)

let bad_field name kind = reject 400 "invalid_request" (Printf.sprintf "%s: expected %s" name kind)

let parse_circuit body name =
  match Json.member name body with
  | Some (Json.String src) -> (
    try Circuit.Qasm3_parser.parse_any ~name src with
    | Circuit.Qasm_parser.Parse_error (msg, line) ->
      reject 400 "parse_error" (Printf.sprintf "circuit %s, line %d: %s" name line msg))
  | Some _ -> bad_field name "a string of QASM source"
  | None -> reject 400 "invalid_request" (Printf.sprintf "%s: required (inline QASM source)" name)

(* one job spec from an inline {"a": <qasm>, "b": <qasm>, ...} document:
   the other fields compile exactly as a manifest job's would *)
let inline_spec ~index body =
  let a = parse_circuit body "a" in
  let b = parse_circuit body "b" in
  let seed =
    match Json.member "seed" body with
    | Some (Json.Int s) -> Some s
    | Some _ -> bad_field "seed" "an integer"
    | None -> None
  in
  match Engine.Manifest.compile_job ~index ~seed (Job.Circuits { a; b }) body with
  | Ok spec -> spec
  | Error e -> reject 400 "invalid_request" e

(* ------------------------------------------------------------------ *)
(* Job JSON                                                            *)

let events_path id = Printf.sprintf "/v1/jobs/%s/events" id

let job_summary t (j : Registry.job) =
  Json.Obj
    [ ("id", Json.String j.id)
    ; ("label", Json.String j.label)
    ; ("state", Json.String (Registry.state_string (Registry.state t.registry j)))
    ; ("events", Json.String (events_path j.id))
    ]

let job_json t (j : Registry.job) =
  let state = Registry.state t.registry j in
  let base =
    [ ("schema", Json.String schema)
    ; ("id", Json.String j.id)
    ; ("label", Json.String j.label)
    ; ("state", Json.String (Registry.state_string state))
    ; ("submitted", Json.Float j.submitted)
    ; ("events", Json.String (events_path j.id))
    ]
  in
  match state with
  | Registry.Done r -> Json.Obj (base @ [ ("result", Job.to_json r) ])
  | _ -> Json.Obj base

(* ------------------------------------------------------------------ *)
(* Submission                                                          *)

let register_job t (spec : Job.spec) =
  (* the control's callbacks need the registry entry, which needs the
     control: tie the knot through a forward reference — safe because the
     job is only submitted (and can only start) after it is filled *)
  let jref = ref None in
  let with_job f =
    match !jref with
    | Some j -> f j
    | None -> ()
  in
  let on_start () =
    with_job (fun j ->
      Registry.set_state t.registry j Registry.Running;
      Registry.emit t.registry j ~event:"started"
        (Json.Obj [ ("label", Json.String j.label) ]))
  in
  let on_progress (p : Pool.progress) =
    with_job (fun j ->
      Registry.emit t.registry j ~event:"progress"
        (Json.Obj
           [ ("phase", Json.String p.phase)
           ; ("live_nodes", Json.Int p.live_nodes)
           ; ("elapsed", Json.Float p.elapsed)
           ]))
  in
  let control =
    Pool.control ~progress_interval:t.cfg.heartbeat_interval ~on_start ~on_progress ()
  in
  let j = Registry.add t.registry ~label:spec.Job.label ~control in
  jref := Some j;
  let on_done (r : Job.result) =
    Registry.set_state t.registry j (Registry.Done r);
    Mutex.protect t.lock (fun () ->
      t.completed <- t.completed + 1;
      t.job_metrics <- Obs.Metrics.merge [ t.job_metrics; r.Job.metrics ]);
    Registry.emit t.registry j ~event:"done" (Job.to_json r);
    logf t "job %s done: %s (%.3fs)" j.id (Job.exit_class r.Job.outcome) r.Job.duration
  in
  (j, control, on_done)

let submit_specs t specs =
  (* capacity check and submission are one critical section, so a burst of
     concurrent submissions cannot overshoot the admission queue *)
  Mutex.protect t.lock (fun () ->
    let n = List.length specs in
    if Pool.pending t.pool + n > t.cfg.queue_capacity then begin
      t.rejected <- t.rejected + 1;
      reject
        ~headers:[ ("Retry-After", "1") ]
        429 "queue_full"
        (Printf.sprintf "admission queue full (%d pending, capacity %d)"
           (Pool.pending t.pool) t.cfg.queue_capacity)
    end;
    List.map
      (fun spec ->
        let spec =
          match (spec.Job.timeout, t.cfg.default_timeout) with
          | None, (Some _ as d) -> { spec with Job.timeout = d }
          | _ -> spec
        in
        let j, control, on_done = register_job t spec in
        Registry.emit t.registry j ~event:"queued"
          (Json.Obj [ ("id", Json.String j.Registry.id); ("label", Json.String j.Registry.label) ]);
        (match Pool.submit t.pool ~control ~on_done spec with
         | Ok () -> ()
         | Error `Stopped -> reject 503 "draining" "server is shutting down");
        t.submitted <- t.submitted + 1;
        j)
      specs)

let fresh_indices t n =
  Mutex.protect t.lock (fun () ->
    let base = t.next_index in
    t.next_index <- t.next_index + n;
    base)

let handle_submit t fd peer (req : Http.request) =
  if stopping t then reject 503 "draining" "server is shutting down";
  (match Limiter.check t.limiter ~key:peer ~now:(Unix.gettimeofday ()) with
   | Ok () -> ()
   | Error wait ->
     Mutex.protect t.lock (fun () -> t.rejected <- t.rejected + 1);
     reject
       ~headers:[ ("Retry-After", string_of_int (int_of_float (Float.ceil wait))) ]
       429 "rate_limited"
       (Printf.sprintf "rate limit exceeded; retry in %.1fs" wait));
  let body =
    match Json.of_string_opt req.Http.body with
    | Some j -> j
    | None -> reject 400 "invalid_json" "request body is not valid JSON"
  in
  let specs =
    match Json.member "schema" body with
    | Some (Json.String s) when s = Engine.Manifest.schema -> (
      match Engine.Manifest.of_json ~dir:(Sys.getcwd ()) body with
      | Ok m ->
        if m.Engine.Manifest.jobs = [] then
          reject 400 "invalid_manifest" "manifest contains no jobs";
        let base = fresh_indices t (List.length m.Engine.Manifest.jobs) in
        List.mapi
          (fun i (spec : Job.spec) -> { spec with Job.index = base + i })
          m.Engine.Manifest.jobs
      | Error e -> reject 400 "invalid_manifest" e)
    | Some (Json.String s) -> reject 400 "invalid_request" (Printf.sprintf "unknown schema %S" s)
    | Some _ -> bad_field "schema" "a string"
    | None -> [ inline_spec ~index:(fresh_indices t 1) body ]
  in
  let jobs = submit_specs t specs in
  logf t "accepted %d job(s) from %s" (List.length jobs) peer;
  let listing = Json.List (List.map (job_summary t) jobs) in
  let body =
    match jobs with
    | [ j ] ->
      Json.Obj
        [ ("schema", Json.String schema)
        ; ("id", Json.String j.Registry.id)
        ; ("label", Json.String j.Registry.label)
        ; ("events", Json.String (events_path j.Registry.id))
        ; ("jobs", listing)
        ]
    | _ -> Json.Obj [ ("schema", Json.String schema); ("jobs", listing) ]
  in
  respond fd ~status:202 (Json.to_string body)

(* ------------------------------------------------------------------ *)
(* Streaming                                                           *)

let handle_events t fd (req : Http.request) (j : Registry.job) =
  let last =
    match Http.header req "last-event-id" with
    | Some v -> Option.value (int_of_string_opt v) ~default:0
    | None -> (
      match List.assoc_opt "after" req.Http.query with
      | Some v -> Option.value (int_of_string_opt v) ~default:0
      | None -> 0)
  in
  Http.write_all fd (Http.stream_head ~content_type:"text/event-stream" ~status:200 ());
  let write_event (seq, name, data) =
    Http.write_all fd
      (Sse.encode { Sse.id = Some seq; event = Some name; data = Json.to_string data })
  in
  let rec loop seq last_write =
    let events = Registry.events_after t.registry j ~seq in
    if events <> [] then begin
      List.iter write_event events;
      let seq = List.fold_left (fun acc (s, _, _) -> max acc s) seq events in
      if List.exists (fun (_, name, _) -> name = "done") events then ()
      else loop seq (Unix.gettimeofday ())
    end
    else begin
      let terminal =
        match Registry.state t.registry j with
        | Registry.Done _ -> seq >= j.Registry.seq
        | _ -> false
      in
      if not terminal then begin
        let now = Unix.gettimeofday () in
        let last_write =
          if now -. last_write > Float.max t.cfg.heartbeat_interval 0.05 then begin
            Http.write_all fd (Sse.comment "keep-alive");
            now
          end
          else last_write
        in
        (* stdlib [Condition] has no timed wait, so the stream polls; 20 Hz
           keeps latency invisible at negligible cost *)
        Thread.delay 0.05;
        loop seq last_write
      end
    end
  in
  loop last (Unix.gettimeofday ())

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let health_json t =
  let queued, running, finished = Registry.counts t.registry in
  Json.Obj
    [ ("schema", Json.String schema)
    ; ("status", Json.String (if stopping t then "draining" else "ok"))
    ; ("version", Json.String (Qcec.Version.string))
    ; ("uptime", Json.Float (Unix.gettimeofday () -. t.started))
    ; ("workers", Json.Int t.cfg.workers)
    ; ( "queue"
      , Json.Obj
          [ ("pending", Json.Int (Pool.pending t.pool))
          ; ("active", Json.Int (Pool.active t.pool))
          ; ("capacity", Json.Int t.cfg.queue_capacity)
          ] )
    ; ( "jobs"
      , Json.Obj
          [ ("queued", Json.Int queued)
          ; ("running", Json.Int running)
          ; ("done", Json.Int finished)
          ] )
    ]

let metrics_json t =
  Mutex.protect t.lock (fun () ->
    Json.Obj
      [ ("schema", Json.String schema)
      ; ( "server"
        , Json.Obj
            [ ("submitted", Json.Int t.submitted)
            ; ("completed", Json.Int t.completed)
            ; ("rejected", Json.Int t.rejected)
            ; ("connections", Json.Int t.conns)
            ] )
      ; ("metrics", Obs.Metrics.to_json t.job_metrics)
      ])

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

let split_path p = List.filter (fun s -> s <> "") (String.split_on_char '/' p)

let find_job t id =
  match Registry.lookup t.registry id with
  | Some j -> j
  | None -> reject 404 "not_found" (Printf.sprintf "no such job %S" id)

let route t fd peer (req : Http.request) =
  match (req.Http.meth, split_path req.Http.path) with
  | "GET", [ "v1"; "health" ] -> respond fd ~status:200 (Json.to_string (health_json t))
  | "GET", [ "v1"; "metrics" ] -> respond fd ~status:200 (Json.to_string (metrics_json t))
  | "POST", [ "v1"; "jobs" ] -> handle_submit t fd peer req
  | "GET", [ "v1"; "jobs" ] ->
    (* collect under the registry lock, render outside it: [job_summary]
       re-enters the registry for the job state *)
    let jobs = List.rev (Registry.fold t.registry (fun acc j -> j :: acc) []) in
    respond fd ~status:200
      (Json.to_string
         (Json.Obj
            [ ("schema", Json.String schema)
            ; ("jobs", Json.List (List.map (job_summary t) jobs))
            ]))
  | "GET", [ "v1"; "jobs"; id ] ->
    respond fd ~status:200 (Json.to_string (job_json t (find_job t id)))
  | "DELETE", [ "v1"; "jobs"; id ] ->
    let j = find_job t id in
    (match Registry.state t.registry j with
     | Registry.Done _ -> reject 409 "finished" (Printf.sprintf "job %s already finished" id)
     | _ ->
       Pool.cancel j.Registry.control;
       logf t "job %s cancellation requested" id;
       respond fd ~status:202
         (Json.to_string
            (Json.Obj
               [ ("schema", Json.String schema)
               ; ("id", Json.String id)
               ; ("status", Json.String "cancelling")
               ])))
  | "GET", [ "v1"; "jobs"; id; "events" ] -> handle_events t fd req (find_job t id)
  | meth, ([ "v1"; "health" ] | [ "v1"; "metrics" ] | [ "v1"; "jobs" ] | [ "v1"; "jobs"; _ ]
          | [ "v1"; "jobs"; _; "events" ]) ->
    reject 405 "method_not_allowed" (Printf.sprintf "%s not supported on %s" meth req.Http.path)
  | _ -> reject 404 "not_found" (Printf.sprintf "no route for %s %s" req.Http.meth req.Http.path)

let handle_connection t fd peer =
  let finally () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Mutex.protect t.lock (fun () ->
      t.conns <- t.conns - 1;
      Condition.broadcast t.idle)
  in
  Fun.protect ~finally (fun () ->
    try
      let reader = Http.reader fd in
      match Http.read_request ~max_body:t.cfg.max_body reader with
      | None -> ()
      | Some req -> route t fd peer req
    with
    | Reject (status, headers, code, message) -> (
      try respond_error fd ~headers ~status code message with _ -> ())
    | Http.Bad_request msg -> (
      try respond_error fd ~status:400 "bad_request" msg with _ -> ())
    | Http.Payload_too_large limit -> (
      try
        respond_error fd ~status:413 "payload_too_large"
          (Printf.sprintf "request body exceeds %d bytes" limit)
      with _ -> ())
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
    | e -> (
      logf t "connection error from %s: %s" peer (Printexc.to_string e);
      try respond_error fd ~status:500 "internal_error" "internal server error" with _ -> ()))

let accept_loop t () =
  while not (stopping t) do
    match Unix.select [ t.listener ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.listener with
      | exception Unix.Unix_error _ -> ()
      | fd, sa ->
        let peer =
          match sa with
          | Unix.ADDR_INET (addr, _) -> Unix.string_of_inet_addr addr
          | Unix.ADDR_UNIX p -> p
        in
        let admitted =
          Mutex.protect t.lock (fun () ->
            if t.conns >= t.cfg.max_connections then false
            else begin
              t.conns <- t.conns + 1;
              true
            end)
        in
        if not admitted then begin
          (try
             Http.write_all fd (Http.response ~status:503 (error_body "overloaded" "too many connections"))
           with _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else ignore (Thread.create (fun () -> handle_connection t fd peer) ()))
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start cfg =
  (* a peer hanging up mid-response must surface as EPIPE, not kill the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if cfg.stats then Obs.Metrics.set_enabled true;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  (try Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port))
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listener 64;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let pool =
    Pool.create
      { Pool.workers = cfg.workers
      ; node_limit = cfg.node_limit
      ; lint = cfg.lint
      ; cache = cfg.cache
      ; on_result = None
      }
  in
  let t =
    { cfg
    ; listener
    ; port
    ; pool
    ; registry = Registry.create ()
    ; limiter = Limiter.create ~rate:cfg.rate ~burst:cfg.burst
    ; started = Unix.gettimeofday ()
    ; stopping = Atomic.make false
    ; lock = Mutex.create ()
    ; idle = Condition.create ()
    ; conns = 0
    ; next_index = 0
    ; job_metrics = []
    ; submitted = 0
    ; completed = 0
    ; rejected = 0
    ; accept_thread = None
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  logf t "listening on %s:%d (%d workers, queue capacity %d)" cfg.host port cfg.workers
    cfg.queue_capacity;
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    logf t "draining: rejecting new admissions, finishing in-flight jobs";
    (match t.accept_thread with
     | Some th -> Thread.join th
     | None -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (* in-flight jobs keep running below; their SSE streams end with the
       [done] frame, at which point the connection count reaches zero *)
    Mutex.protect t.lock (fun () ->
      while t.conns > 0 do
        Condition.wait t.idle t.lock
      done);
    Pool.shutdown ~drain:true t.pool;
    logf t "stopped (%d submitted, %d completed, %d rejected)" t.submitted t.completed t.rejected
  end
