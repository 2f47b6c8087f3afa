module M = Obs.Metrics

(* engine.* metric namespace (docs/OBSERVABILITY.md) *)
let m_scheduled = M.counter "engine.jobs.scheduled"
let m_completed = M.counter "engine.jobs.completed"
let m_failed = M.counter "engine.jobs.failed"
let m_timeout = M.counter "engine.jobs.timeout"
let m_retried = M.counter "engine.jobs.retried"
let m_cancelled = M.counter "engine.jobs.cancelled"
let m_workers = M.gauge "engine.workers.peak"

exception Cancelled of [ `Timeout | `Node_limit of int | `Kill ]

(* Internal: carries rendered error-severity diagnostics out of the lint
   pre-flight to the per-job classifier. *)
exception Lint_failed of string

type config =
  { workers : int
  ; node_limit : int option
  ; lint : bool
  ; on_result : (Job.result -> unit) option
  ; cache : Cache_store.Store.t option
  }

let default_config =
  { workers = Domain.recommended_domain_count ()
  ; node_limit = None
  ; lint = true
  ; on_result = None
  ; cache = None
  }

type batch =
  { results : Job.result list
  ; wall_seconds : float
  ; workers : int
  ; metrics : M.snapshot
  ; spans : Obs.Span.entry list
  }

let now = Obs.Clock.now

(* -- per-job control (cancellation + live progress) ------------------- *)

type progress =
  { phase : string
  ; live_nodes : int
  ; elapsed : float
  }

type control =
  { cancel : bool Atomic.t
  ; on_start : (unit -> unit) option
  ; on_progress : (progress -> unit) option
  ; progress_interval : float
  }

let control ?(progress_interval = 0.25) ?on_start ?on_progress () =
  { cancel = Atomic.make false; on_start; on_progress; progress_interval }

let cancel c = Atomic.set c.cancel true
let cancel_requested c = Atomic.get c.cancel

(* The budget check every safepoint hook runs: the control's cancel flag,
   the attempt's wall-clock deadline, then the pool's live-node budget.
   Raising here unwinds the verification; the worker's own package is
   dropped with it. *)
let check_budget ~control ~deadline ~node_limit ~live_nodes =
  (match control with
   | Some c when Atomic.get c.cancel -> raise (Cancelled `Kill)
   | _ -> ());
  (match deadline with
   | Some d when now () > d -> raise (Cancelled `Timeout)
   | _ -> ());
  match node_limit with
  | Some l when live_nodes > l -> raise (Cancelled (`Node_limit l))
  | _ -> ()

(* The one safepoint closure of an attempt, solo or racing: it runs
   [check_budget] against the package's live-node count, then sends at
   most one [on_progress] beat per [progress_interval], under phase
   ["check"] for a solo attempt and ["race:<candidate>"] for a race
   candidate.  Every candidate of a race shares the throttle, hence the
   lock. *)
let guard ~control ~deadline ~node_limit =
  let t0 = now () in
  let beat_lock = Mutex.create () in
  let last_beat = ref t0 in
  fun ~candidate ~live_nodes ->
    check_budget ~control ~deadline ~node_limit ~live_nodes;
    match control with
    | Some { on_progress = Some beat; progress_interval; _ } ->
      let t = now () in
      let due =
        Mutex.protect beat_lock (fun () ->
          t -. !last_beat >= progress_interval
          && begin
            last_beat := t;
            true
          end)
      in
      if due then begin
        let phase = match candidate with None -> "check" | Some c -> "race:" ^ c in
        beat { phase; live_nodes; elapsed = t -. t0 }
      end
    | _ -> ()

(* The cooperative cancellation point of a solo attempt: [Pkg.checkpoint]
   (called by every strategy / simulator / extraction loop after each
   gate) fires this hook, which runs the attempt's [guard].  The hook is
   domain-local, so one worker's never fires in another. *)
let with_guard ~deadline ~node_limit ~control f =
  (match (deadline, node_limit, control) with
   | None, None, None -> ()
   | _ ->
     let g = guard ~control ~deadline ~node_limit in
     Dd.Pkg.set_safepoint_hook
       (Some (fun p -> g ~candidate:None ~live_nodes:(Dd.Pkg.live_nodes p))));
  Fun.protect ~finally:(fun () -> Dd.Pkg.set_safepoint_hook None) f

(* -- the worker-slot bank (portfolio admission) ------------------------ *)

(* Portfolio jobs want extra domains for their candidate races, but the
   pool's domain budget is [config.workers] — full stop.  The bank tracks
   the free slots: every running job holds one (its worker, which also
   runs a race's candidate 0), and a portfolio job may additionally borrow
   whatever is free at its start, non-blockingly, spawning one candidate
   domain per borrowed slot, so a busy pool degrades the race width
   instead of oversubscribing the machine. *)
type bank =
  { bl : Mutex.t
  ; bc : Condition.t
  ; mutable bfree : int
  }

let bank workers = { bl = Mutex.create (); bc = Condition.create (); bfree = workers }

(* blocking: a worker takes its own slot before running a job *)
let bank_acquire b =
  Mutex.lock b.bl;
  while b.bfree <= 0 do
    Condition.wait b.bc b.bl
  done;
  b.bfree <- b.bfree - 1;
  Mutex.unlock b.bl

(* non-blocking: a race borrows up to [k] extra slots, possibly zero *)
let bank_try_borrow b k =
  Mutex.protect b.bl (fun () ->
    let granted = min k b.bfree in
    b.bfree <- b.bfree - granted;
    granted)

let bank_release b k =
  if k > 0 then begin
    Mutex.protect b.bl (fun () -> b.bfree <- b.bfree + k);
    Condition.broadcast b.bc
  end

let render_diagnostics diags =
  Analysis.Diagnostic.sort diags
  |> List.filter (fun d -> d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error)
  |> List.map Analysis.Diagnostic.to_string
  |> String.concat "; "

let rec take_at_most k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take_at_most (k - 1) rest

(* The racing attempt: compose a candidate field for the pair (the pinned
   strategy, if any, leads it) and hand the race to [Qcec.Verify.portfolio].
   The attempt's [guard] runs on every candidate's domain, where the DD
   safepoints actually fire, and reports progress under a
   ["race:<candidate>"] phase so SSE consumers see who is currently leading
   the pack. *)
let race_attempt cfg ~bank ~deadline ~control ~width (spec : Job.spec) a b =
  let granted = match bank with None -> width - 1 | Some bk -> bank_try_borrow bk (width - 1) in
  Fun.protect
    ~finally:(fun () -> Option.iter (fun bk -> bank_release bk granted) bank)
    (fun () ->
      let width = 1 + granted in
      let composed = Qcec.Strategy.race_field ~width a b in
      let strategies =
        match spec.strategy with
        | None -> composed
        | Some s -> take_at_most width (s :: List.filter (fun c -> c <> s) composed)
      in
      let candidates = List.map (fun s -> (s, Dd.Registry.default)) strategies in
      let g = guard ~control ~deadline ~node_limit:cfg.node_limit in
      let safepoint ~candidate ~live_nodes = g ~candidate:(Some candidate) ~live_nodes in
      let on_dynamic = if spec.transform then `Transform else `Reject in
      let cache = if spec.cache then cfg.cache else None in
      let r =
        Qcec.Verify.portfolio ~candidates ?perm:spec.perm ~on_dynamic
          ?seed:spec.seed ?cache ~safepoint a b
      in
      let w = r.Qcec.Verify.winner in
      { Job.equivalent = w.Qcec.Verify.equivalent
      ; exactly_equal = w.Qcec.Verify.exactly_equal
      ; strategy =
          (* a probabilistic winner (every survivor was simulative and all
             shots agreed) is flagged in the recorded strategy so batch
             consumers can tell it from an exact race verdict *)
          Fmt.str "portfolio(%s%s)"
            (Qcec.Strategy.name r.Qcec.Verify.winner_strategy)
            (if r.Qcec.Verify.winner_definitive then "" else ", probabilistic")
      ; t_transform = w.Qcec.Verify.t_transform
      ; t_check = w.Qcec.Verify.t_check
      ; transformed_qubits = w.Qcec.Verify.transformed_qubits
      ; peak_nodes = w.Qcec.Verify.peak_nodes
      ; cached = w.Qcec.Verify.cached
      })

(* One verification attempt.  Parsing and linting happen inside the attempt
   so their failures are classified per job, and so the wall-clock deadline
   covers them too (cancellation between gates only triggers once DD work
   starts, which is where all the time goes). *)
let attempt cfg ?bank ~control (spec : Job.spec) =
  let deadline = Option.map (fun s -> now () +. s) spec.timeout in
  let a, b, lint_inputs =
    match spec.source with
    | Job.Circuits { a; b } -> (a, b, [ (a, None); (b, None) ])
    | Job.Files { file_a; file_b } ->
      let a, lines_a = Circuit.Qasm3_parser.parse_any_file_located file_a in
      let b, lines_b = Circuit.Qasm3_parser.parse_any_file_located file_b in
      (a, b, [ (a, Some (file_a, lines_a)); (b, Some (file_b, lines_b)) ])
  in
  if cfg.lint then begin
    let errors =
      List.concat_map
        (fun (c, located) ->
          match located with
          | Some (file, lines) -> Analysis.lint ~file ~lines c
          | None -> Analysis.lint c)
        lint_inputs
      |> List.filter (fun d ->
           d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error)
    in
    if errors <> [] then raise (Lint_failed (render_diagnostics errors))
  end;
  match spec.portfolio with
  | Some w when w >= 2 ->
    race_attempt cfg ~bank ~deadline ~control ~width:w spec a b
  | _ ->
  with_guard ~deadline ~node_limit:cfg.node_limit ~control (fun () ->
    let on_dynamic = if spec.transform then `Transform else `Reject in
    (* the store is shared across workers by design: lookups and
       inserts serialize on [Cache_store.Store]'s mutex *)
    let cache = if spec.cache then cfg.cache else None in
    (* manifest [scheme = "auto"]: the analysis passes route the job now
       that both circuits are parsed; an explicitly pinned strategy always
       wins (the manifest compiler never sets both) *)
    let strategy =
      match spec.strategy with
      | Some _ as s -> s
      | None when spec.auto_scheme -> Some (Qcec.Strategy.route a b)
      | None -> None
    in
    let r =
      Qcec.Verify.functional ?strategy ?perm:spec.perm ~on_dynamic
        ?seed:spec.seed ?cache a b
    in
    { Job.equivalent = r.Qcec.Verify.equivalent
    ; exactly_equal = r.Qcec.Verify.exactly_equal
    ; strategy = Qcec.Strategy.name r.Qcec.Verify.strategy
    ; t_transform = r.Qcec.Verify.t_transform
    ; t_check = r.Qcec.Verify.t_check
    ; transformed_qubits = r.Qcec.Verify.transformed_qubits
    ; peak_nodes = r.Qcec.Verify.peak_nodes
    ; cached = r.Qcec.Verify.cached
    })

let classify = function
  | Cancelled `Timeout -> (Job.Timeout, "wall-clock budget exhausted")
  | Cancelled (`Node_limit l) ->
    (Job.Node_limit, Fmt.str "live DD nodes exceeded the %d-node budget" l)
  | Cancelled `Kill -> (Job.Cancelled, "cancelled by request")
  | Lint_failed msg -> (Job.Lint_error, msg)
  | Circuit.Qasm_parser.Parse_error (msg, line) ->
    (Job.Parse_error, Fmt.str "line %d: %s" line msg)
  | Sys_error msg -> (Job.Parse_error, msg)
  | Qcec.Strategy.Non_unitary op ->
    (Job.Non_unitary, Fmt.str "non-unitary operation %a" Circuit.Op.pp op)
  | Qcec.Verify.Rejected d -> (Job.Rejected, Analysis.Diagnostic.to_string d)
  | Qcec.Verify.Perm_mismatch { entries; qubits } ->
    ( Job.Rejected
    , Fmt.str "perm has %d entries but the aligned register has %d qubits"
        entries qubits )
  | e -> (Job.Crash, Printexc.to_string e)

(* Every [Job.result] is built here: by [run_job] for a job that ran, and
   by [unstarted] for one that never did. *)
let job_result (spec : Job.spec) ~worker ~attempts ~duration ~metrics outcome =
  { Job.index = spec.index
  ; label = spec.label
  ; files_checked =
      (match spec.source with
       | Job.Files { file_a; file_b } -> Some (file_a, file_b)
       | Job.Circuits _ -> None)
  ; outcome
  ; duration
  ; attempts
  ; worker
  ; seed = spec.seed
  ; metrics
  }

(* A job that never ran: cancelled while queued, or abandoned by a
   non-draining shutdown. *)
let unstarted ~worker ~message spec =
  M.incr m_cancelled;
  job_result spec ~worker ~attempts:0 ~duration:0.0 ~metrics:[]
    (Job.Failed { reason = Job.Cancelled; message })

(* A job is read in its own scope: its counters, spans and peaks are the
   job's alone, whatever ran before it on the same domain. *)
let run_job ?control ?bank cfg ~worker (spec : Job.spec) =
  let t0 = now () in
  let (outcome, attempts), reading =
    Obs.Scope.run (fun () ->
      (match control with
       | Some { on_start = Some f; _ } -> f ()
       | _ -> ());
      let rec go ~attempts =
        let outcome =
          match attempt cfg ?bank ~control spec with
          | v -> Job.Verdict v
          | exception e ->
            let reason, message = classify e in
            Job.Failed { reason; message }
        in
        match outcome with
        | Job.Failed { reason = Job.Timeout; _ } when attempts <= spec.retries ->
          M.incr m_retried;
          go ~attempts:(attempts + 1)
        | outcome -> (outcome, attempts)
      in
      let outcome, attempts = go ~attempts:1 in
      (match outcome with
       | Job.Verdict _ -> M.incr m_completed
       | Job.Failed { reason; _ } ->
         M.incr m_failed;
         if reason = Job.Timeout then M.incr m_timeout;
         if reason = Job.Cancelled then M.incr m_cancelled);
      (outcome, attempts))
  in
  job_result spec ~worker ~attempts ~duration:(now () -. t0)
    ~metrics:reading.Obs.Scope.metrics outcome

(* -- the pool ---------------------------------------------------------- *)

(* Workers stay alive across submissions: jobs arrive one at a time (the
   daemon's admission queue feeds them in, [run] submits a whole batch)
   and each completion is delivered through its own callback, on the
   domain of the worker that ran it.  Queueing here is deliberately
   unbounded — admission control (bounded queue, 429s) is the caller's
   policy, not the pool's.  Each job builds its own [Dd.Pkg.t] inside
   [Verify.functional], so packages never cross domains (and the package
   owner guard would catch it if one did). *)

type task =
  { spec : Job.spec
  ; control : control option
  ; on_done : Job.result -> unit
  }

type pool =
  { pcfg : config
  ; lock : Mutex.t
  ; nonempty : Condition.t  (** signalled on submit and on shutdown *)
  ; queue : task Queue.t
  ; pbank : bank  (** worker-slot bank portfolio races borrow from *)
  ; mutable stopping : bool
  ; mutable active : int  (** tasks currently executing on a worker *)
  ; mutable workers_lent : unit Par.Helper.t list
        (** the daemon's worker loops, each lent to a helper *)
  }

let worker pool wid () =
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not pool.stopping do
      Condition.wait pool.nonempty pool.lock
    done;
    if Queue.is_empty pool.queue then
      (* stopping, and the queue is drained *)
      Mutex.unlock pool.lock
    else begin
      let task = Queue.pop pool.queue in
      pool.active <- pool.active + 1;
      Mutex.unlock pool.lock;
      (* every running job holds one bank slot; idle workers leave theirs
         free so portfolio races can borrow them (never exceeding
         [workers] domains) *)
      bank_acquire pool.pbank;
      let r =
        Fun.protect
          ~finally:(fun () -> bank_release pool.pbank 1)
          (fun () ->
            match task.control with
            | Some c when Atomic.get c.cancel ->
              unstarted ~worker:wid ~message:"cancelled while queued" task.spec
            | control ->
              run_job ?control ~bank:pool.pbank pool.pcfg ~worker:wid task.spec)
      in
      (* a misbehaving completion callback must not kill the worker *)
      (try task.on_done r with _ -> ());
      Mutex.lock pool.lock;
      pool.active <- pool.active - 1;
      Mutex.unlock pool.lock;
      loop ()
    end
  in
  loop ()

(* a pool with no worker running yet *)
let make (cfg : config) =
  let workers = max 1 cfg.workers in
  M.observe m_workers workers;
  { pcfg = { cfg with workers }
  ; lock = Mutex.create ()
  ; nonempty = Condition.create ()
  ; queue = Queue.create ()
  ; pbank = bank workers
  ; stopping = false
  ; active = 0
  ; workers_lent = []
  }

(* The daemon lends every worker loop to a helper domain until
   [shutdown] joins it, so the domains it leaves parked serve the
   process's next parallel call. *)
let create cfg =
  let pool = make cfg in
  pool.workers_lent <-
    List.init pool.pcfg.workers (fun wid -> Par.Helper.spawn (worker pool wid));
  pool

let submit pool ?control ~on_done spec =
  Mutex.protect pool.lock (fun () ->
    if pool.stopping then Error `Stopped
    else begin
      M.incr m_scheduled;
      Queue.push { spec; control; on_done } pool.queue;
      Condition.signal pool.nonempty;
      Ok ()
    end)

let pending pool = Mutex.protect pool.lock (fun () -> Queue.length pool.queue)
let active pool = Mutex.protect pool.lock (fun () -> pool.active)

(* Stop admitting; without [drain], hand every queued job back cancelled.
   Joins nothing, so a worker's completion callback may call it. *)
let stop ~drain pool =
  let abandoned =
    Mutex.protect pool.lock (fun () ->
      pool.stopping <- true;
      let abandoned = if drain then [] else List.of_seq (Queue.to_seq pool.queue) in
      if not drain then Queue.clear pool.queue;
      Condition.broadcast pool.nonempty;
      abandoned)
  in
  List.iter
    (fun t ->
      try t.on_done (unstarted ~worker:(-1) ~message:"pool shut down" t.spec)
      with _ -> ())
    abandoned

(* Joining a worker loop folds what it recorded into the calling domain,
   so process-level reports see the pool's work. *)
let shutdown ?(drain = true) pool =
  stop ~drain pool;
  let lent = pool.workers_lent in
  pool.workers_lent <- [];
  List.iter Par.Helper.join lent

(* A batch is the pool run to completion: one submission per spec, then a
   draining stop, with [workers - 1] worker loops on helper domains
   ([Par.Helper]) and the calling domain running the last one itself.
   [on_result] runs under [lock], in completion order.  If it raises (say
   EPIPE on a closed stdout), queued jobs are dropped and [run] re-raises
   once the helpers are done.  The run is read in its own scope, which
   the joined helpers' loops fold into: the batch's reading is its
   scheduling counters and its jobs, each once. *)
let run (cfg : config) specs =
  let n = List.length specs in
  let t0 = now () in
  let (results, workers), reading =
    Obs.Scope.run (fun () ->
      let pool = make { cfg with workers = min cfg.workers (max 1 n) } in
      let workers = pool.pcfg.workers in
      let lock = Mutex.create () in
      let results = Array.make n None in
      let failure = ref None in
      let on_done i r =
        let failed =
          Mutex.protect lock (fun () ->
            results.(i) <- Some r;
            match cfg.on_result with
            | Some f when !failure = None ->
              (try
                 f r;
                 false
               with e ->
                 failure := Some (e, Printexc.get_raw_backtrace ());
                 true)
            | _ -> false)
        in
        if failed then stop ~drain:false pool
      in
      (* a submission refused because a callback already failed is moot:
         the failure is re-raised below *)
      List.iteri (fun i spec -> ignore (submit pool ~on_done:(on_done i) spec)) specs;
      stop ~drain:true pool;
      (* if a spawn fails partway or the caller's own loop raises, the
         queue is dropped before the helpers' loops are joined *)
      let (), _ =
        Par.Helper.fork_join
          ~abort:(fun () -> stop ~drain:false pool)
          (List.init (workers - 1) (worker pool))
          (worker pool (workers - 1))
      in
      Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failure;
      (results, workers))
  in
  { results = Array.to_list results |> List.map Option.get
  ; wall_seconds = now () -. t0
  ; workers
  ; metrics = reading.Obs.Scope.metrics
  ; spans = reading.Obs.Scope.spans
  }
