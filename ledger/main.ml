(* ledger: the benchmark every performance claim in this repository is
   judged by (README.md documents workloads, metrics and bounds).

     run one workload     main.exe --workload batch --seed 1 --seconds 15 --trace 0
     run all four         main.exe --json run.json --trace-out trace.json
     smoke (dune runtest) main.exe --smoke --benchmark BENCHMARK.json
     compare two runs     main.exe compare old.json new.json

   A run sets up its workload several times (generation, files, one
   untimed warm-up repetition each), then repeats it with Obs.Metrics off
   for --seconds, then, when traced, runs one more repetition with metrics
   on plus the layer microbenchmarks.  The last line of standard output is
   one JSON object: the end-to-end metrics, or with --trace 1 the per-layer
   ones.  "all" runs every workload in its own child process, so peak RSS
   and warm-up belong to one workload, and merges their qcec-bench/v2
   documents. *)

module J = Qcec_json
module W = Workloads

let now = Obs.Clock.now
let schema = "qcec-bench/v2"

type opts =
  { workload : string  (** a workload name, or "all" *)
  ; seed : int
  ; seconds : float
  ; trace : bool  (** print the per-layer metrics instead of end-to-end *)
  ; json : string option
  ; trace_out : string option
  ; smoke : bool
  ; workdir : string
  ; benchmark : string
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type summary =
  { median : float
  ; q1 : float
  ; q3 : float
  ; n : int
  }

let summarize xs =
  { median = W.percentile 0.5 xs
  ; q1 = W.percentile 0.25 xs
  ; q3 = W.percentile 0.75 xs
  ; n = List.length xs
  }

(* VmHWM: the process's resident-set high-water mark. *)
let peak_rss_mb () =
  let field line =
    match String.split_on_char ':' line with
    | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float kb /. 1024.0)
    | _ -> None
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status -> Option.value ~default:0.0 (List.find_map field (String.split_on_char '\n' status))
  | exception Sys_error _ -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Per-layer metrics of the traced repetition: its raw layer readings,
   the Obs.Metrics delta [snap], the GC delta and the microbenchmarks.
   Layer times are reported as shares of the traced repetition's wall
   clock, so a layer a workload never calls reads 0. *)
let per_layer (rep : W.rep) ~untraced_wall ~snap ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) ~micro =
  let raw k = Option.value ~default:0.0 (List.assoc_opt k rep.W.layers) in
  let count k = float (Obs.Metrics.find snap k) in
  let hit_ratio hits misses = ratio (count hits) (count hits +. count misses) in
  let share k = ratio (raw k) rep.W.wall in
  let cache c =
    ( Fmt.str "dd.cache.%s.hit_ratio" c
    , "ratio"
    , hit_ratio (Fmt.str "dd.cache.%s.hits" c) (Fmt.str "dd.cache.%s.misses" c) )
  in
  [ ("circuit.parse_share", "ratio", share "circuit.parse_s")
  ; ("circuit.ops_parsed", "count", raw "circuit.ops_parsed")
  ; ("analysis.lint_share", "ratio", share "analysis.lint_s")
  ; ("analysis.cost_share", "ratio", share "analysis.cost_s")
  ; ("transform.busy_share", "ratio", share "transform.busy_s")
  ; ("transform.ops_out", "count", raw "transform.ops_out")
  ; ("cx.table.inserts", "count", count "cx.table.inserts")
  ; ("cx.table.hit_ratio", "ratio", hit_ratio "cx.table.hits" "cx.table.inserts")
  ; ("dd.unique.mat.inserts", "count", count "dd.unique.mat.inserts")
  ; ("dd.unique.vec.inserts", "count", count "dd.unique.vec.inserts")
  ; ("dd.unique.mat.hit_ratio", "ratio", hit_ratio "dd.unique.mat.hits" "dd.unique.mat.inserts")
  ; ("dd.unique.vec.hit_ratio", "ratio", hit_ratio "dd.unique.vec.hits" "dd.unique.vec.inserts")
  ]
  @ List.map cache [ "mm"; "mv"; "madd"; "vadd"; "ip"; "adj" ]
  @ [ ("dd.kernel.calls", "count", count "dd.kernel.calls")
    ; ("dd.kernel.hit_ratio", "ratio", hit_ratio "dd.kernel.hits" "dd.kernel.misses")
    ; ("dd.gc.runs", "count", count "dd.gc.runs")
    ; ("dd.gc.swept.nodes", "count", count "dd.gc.swept.nodes")
    ; ( "gc.minor_collections"
      , "count"
      , float (gc1.Gc.minor_collections - gc0.Gc.minor_collections) )
    ; ( "gc.major_collections"
      , "count"
      , float (gc1.Gc.major_collections - gc0.Gc.major_collections) )
    ; ( "gc.top_heap_mb"
      , "MB"
      , float gc1.Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576.0 )
    ; ("strategy.check_share", "ratio", share "strategy.check_s")
    ; ("strategy.peak_nodes", "count", raw "strategy.peak_nodes")
    ; ("extract.busy_share", "ratio", share "extract.busy_s")
    ; ("extract.leaves", "count", raw "extract.leaves")
    ; ("extract.branch_points", "count", raw "extract.branch_points")
    ; ("extract.gate_applications", "count", raw "extract.gate_applications")
    ; ("extract.leaves_per_s", "1/s", ratio (raw "extract.leaves") (raw "extract.busy_s"))
    ; ("sim.busy_share", "ratio", share "sim.busy_s")
    ; ("engine.queue_wait_p50_share", "ratio", share "engine.queue_wait_p50_s")
    ; ("engine.queue_wait_p90_share", "ratio", share "engine.queue_wait_p90_s")
    ; ( "engine.worker_busy_ratio"
      , "ratio"
      , ratio (raw "engine.service_s") (raw "engine.workers" *. rep.W.wall) )
    ; ("race.winner_share", "ratio", ratio (raw "race.winner_s") (raw "race.t_wall_s"))
    ; ( "race.loser_tail_share"
      , "ratio"
      , ratio (raw "race.t_wall_s" -. raw "race.winner_s") (raw "race.t_wall_s") )
    ; ("race.cancelled", "count", raw "race.cancelled")
    ; ("race.definitive_ratio", "ratio", ratio (raw "race.definitive") (raw "race.races"))
    ; ("race.over_fastest", "ratio", ratio (raw "race.t_wall_s") (raw "race.fastest_solo_s"))
    ; ("trace.overhead_ratio", "ratio", ratio rep.W.wall untraced_wall)
    ]
  @ List.map (fun (name, ns) -> (name, "ns", ns)) micro

(* ------------------------------------------------------------------ *)
(* One workload, in this process                                       *)

let wrong (c : W.check) =
  match c.W.verdict with
  | W.Equivalent -> not c.W.expected
  | W.Not_equivalent -> c.W.expected
  | W.Failed _ -> false

let failed (c : W.check) = match c.W.verdict with W.Failed _ -> true | _ -> false

let verdict_string = function
  | W.Equivalent -> "equivalent"
  | W.Not_equivalent -> "not equivalent"
  | W.Failed msg -> "failed: " ^ msg

(* The Table 1 view: per pair, the median latency and the median of every
   column it reports, over the timed repetitions. *)
let pairs_json (reps : W.rep list) =
  let labels =
    match reps with
    | [] -> []
    | r :: _ -> List.map (fun (c : W.check) -> (c.W.label, c.W.expected)) r.W.checks
  in
  List.map
    (fun (label, expected) ->
      let mine =
        List.concat_map
          (fun (r : W.rep) -> List.filter (fun (c : W.check) -> c.W.label = label) r.W.checks)
          reps
      in
      let latency = List.filter_map (fun (c : W.check) -> c.W.latency) mine in
      let columns =
        List.sort_uniq compare (List.concat_map (fun (c : W.check) -> List.map fst c.W.columns) mine)
      in
      J.Obj
        ([ ("label", J.String label); ("expected_equivalent", J.Bool expected) ]
        @ (if latency = [] then [] else [ ("latency_s", J.Float (W.percentile 0.5 latency)) ])
        @ List.map
            (fun col ->
              ( col
              , J.Float
                  (W.percentile 0.5
                     (List.filter_map (fun (c : W.check) -> List.assoc_opt col c.W.columns) mine))
              ))
            columns))
    labels

let document o workloads =
  J.Obj
    [ ("schema", J.String schema)
    ; ("seed", J.Int o.seed)
    ; ("seconds", J.Float o.seconds)
    ; ("workloads", J.List workloads)
    ]

type measured =
  { rounds : int
  ; setups : float list  (** seconds per set-up round *)
  ; reps : W.rep list  (** the timed repetitions *)
  ; rss : float
  ; layers : (string * string * float) list  (** empty unless traced *)
  ; tracer : Trace.t option
  ; checks : W.check list  (** every check run, warm-ups included *)
  }

let measure o (w : W.t) =
  let size = if o.smoke then W.Smoke else W.Default in
  let checks = ref [] in
  let record (r : W.rep) =
    checks := List.rev_append r.W.checks !checks;
    r
  in
  (* set-up: generation, files and one warm-up repetition, several times *)
  let rounds = if o.smoke then 1 else 3 in
  let rec setup k acc =
    let t0 = now () in
    let p = w.W.prepare size ~seed:o.seed ~workdir:o.workdir in
    ignore (record (p.W.run None));
    let acc = (now () -. t0) :: acc in
    if k = 1 then (p, List.rev acc)
    else begin
      p.W.cleanup ();
      setup (k - 1) acc
    end
  in
  let p, setups = setup rounds [] in
  Fun.protect ~finally:p.W.cleanup (fun () ->
    let min_reps = if o.smoke then 1 else 3 in
    let t_start = now () in
    let rec timed acc =
      if List.length acc >= min_reps && now () -. t_start >= o.seconds then List.rev acc
      else begin
        (* every repetition starts from a collected heap, so the garbage
           of one is not billed to the next *)
        Gc.compact ();
        timed (record (p.W.run None) :: acc)
      end
    in
    let reps = timed [] in
    let rss = peak_rss_mb () in
    let layers, tracer =
      if not (o.trace || o.json <> None || o.trace_out <> None) then ([], None)
      else begin
        let tr = Trace.create () in
        Obs.Metrics.set_enabled true;
        let m0 = Obs.Metrics.snapshot () and gc0 = Gc.quick_stat () in
        let rep = record (p.W.run (Some tr)) in
        let gc1 = Gc.quick_stat () and m1 = Obs.Metrics.snapshot () in
        Obs.Metrics.set_enabled false;
        let micro = Micro.run ~smoke:o.smoke in
        ( per_layer rep
            ~untraced_wall:(W.percentile 0.5 (List.map (fun (r : W.rep) -> r.W.wall) reps))
            ~snap:(Obs.Metrics.diff ~before:m0 ~after:m1)
            ~gc0 ~gc1 ~micro
        , Some tr )
      end
    in
    { rounds; setups; reps; rss; layers; tracer; checks = List.rev !checks })

let end_to_end m =
  let per_rep q =
    List.map
      (fun (r : W.rep) ->
        W.percentile q (List.filter_map (fun (c : W.check) -> c.W.latency) r.W.checks))
      m.reps
  in
  [ ("setup_s", "s", summarize m.setups)
  ; ("wall_s", "s", summarize (List.map (fun (r : W.rep) -> r.W.wall) m.reps))
  ; ("latency_p50_s", "s", summarize (per_rep 0.5))
  ; ("latency_p90_s", "s", summarize (per_rep 0.9))
  ; ("peak_rss_mb", "MB", summarize [ m.rss ])
  ]

let workload_json o (w : W.t) m e2e ~errors ~n_failed =
  let size = if o.smoke then W.Smoke else W.Default in
  J.Obj
    [ ("name", J.String w.W.name)
    ; ("seed", J.Int o.seed)
    ; ("size", J.String (if o.smoke then "smoke" else "default"))
    ; ("setup_rounds", J.Int m.rounds)
    ; ("reps", J.Int (List.length m.reps))
    ; ("attempted", J.Int (List.length m.checks))
    ; ("failed", J.Int n_failed)
    ; ("verdict_errors", J.Int errors)
    ; ("digests", J.List (List.map (fun d -> J.String d) (w.W.digests size ~seed:o.seed)))
    ; ( "end_to_end"
      , J.Obj
          (List.map
             (fun (name, unit, s) ->
               ( name
               , J.Obj
                   [ ("unit", J.String unit)
                   ; ("median", J.Float s.median)
                   ; ("q1", J.Float s.q1)
                   ; ("q3", J.Float s.q3)
                   ; ("n", J.Int s.n)
                   ] ))
             e2e) )
    ; ( "per_layer"
      , J.Obj
          (List.map
             (fun (name, unit, v) -> (name, J.Obj [ ("unit", J.String unit); ("value", J.Float v) ]))
             m.layers) )
    ; ("pairs", J.List (pairs_json m.reps))
    ]

let run_workload o (w : W.t) =
  let m = measure o w in
  let e2e = end_to_end m in
  let errors = List.length (List.filter wrong m.checks) in
  let n_failed = List.length (List.filter failed m.checks) in
  List.iter
    (fun (c : W.check) ->
      if wrong c || failed c then
        Fmt.epr "ledger %s: %s expected %s, got %s@." w.W.name c.W.label
          (if c.W.expected then "equivalent" else "not equivalent")
          (verdict_string c.W.verdict))
    m.checks;
  Fmt.pr "ledger %s: seed %d, %d set-up rounds, %d timed repetitions, %d checks (%d failed, %d wrong)@."
    w.W.name o.seed m.rounds (List.length m.reps) (List.length m.checks) n_failed errors;
  Fmt.pr "  %-28s %-6s %12s %12s %12s %4s@." "end-to-end" "unit" "median" "q1" "q3" "n";
  List.iter
    (fun (name, unit, s) ->
      Fmt.pr "  %-28s %-6s %12.6f %12.6f %12.6f %4d@." name unit s.median s.q1 s.q3 s.n)
    e2e;
  if m.layers <> [] then begin
    Fmt.pr "  %-28s %-6s %12s@." "per-layer (traced)" "unit" "value";
    List.iter (fun (name, unit, v) -> Fmt.pr "  %-28s %-6s %12.6g@." name unit v) m.layers
  end;
  Option.iter
    (fun path -> J.to_file path (document o [ workload_json o w m e2e ~errors ~n_failed ]))
    o.json;
  (match (o.trace_out, m.tracer) with
   | Some path, Some tr ->
     (* one trace process per workload, numbered as in [W.all] *)
     let pid = 1 + Option.value ~default:0 (List.find_index (( == ) w) W.all) in
     J.to_file path
       (Trace.document
          (Trace.events_json tr ~pid ~process:("ledger " ^ w.W.name) ~origin:(Trace.origin tr)))
   | _ -> ());
  let metrics =
    if o.trace then m.layers else List.map (fun (name, unit, s) -> (name, unit, s.median)) e2e
  in
  let ok = errors = 0 && n_failed = 0 in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool ok)
          ; ("attempted", J.Int (List.length m.checks))
          ; ("failed", J.Int n_failed)
          ; ( "metrics"
            , J.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
                   metrics) )
          ]));
  ok

(* ------------------------------------------------------------------ *)
(* All workloads, one child process each                               *)

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> J.of_string_opt s
  | exception Sys_error _ -> None

let members key j = match J.member key j with Some (J.List l) -> l | _ -> []

let run_child o (w : W.t) =
  let tmp suffix =
    Filename.concat o.workdir (Fmt.str "ledger-%d-%s.%s" (Unix.getpid ()) w.W.name suffix)
  in
  let json = tmp "json" and trace = tmp "trace.json" in
  let args =
    [ Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int o.seed
    ; "--seconds"; Fmt.str "%g" o.seconds; "--trace"; (if o.trace then "1" else "0")
    ; "--json"; json; "--trace-out"; trace; "--workdir"; o.workdir
    ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
      Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let doc = read_json json and events = Option.map (members "traceEvents") (read_json trace) in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ json; trace ];
  match (status, doc) with
  | Unix.WEXITED (0 | 1), Some doc -> Some (members "workloads" doc, Option.value ~default:[] events)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Checks shared by --smoke and compare                                *)

let benchmark_metrics path =
  match read_json path with
  | None -> Error (Fmt.str "cannot read %s" path)
  | Some b ->
    let names key =
      List.filter_map
        (fun m ->
          match J.member "name" m with Some (J.String s) -> Some (s, m) | _ -> None)
        (members key b)
    in
    Ok (names "workloads", names "end_to_end", names "per_layer")

let number = function Some (J.Float f) -> Some f | Some (J.Int i) -> Some (float i) | _ -> None

(* Everything wrong with a qcec-bench/v2 document, against the metric
   names BENCHMARK.json declares. *)
let document_errors ~benchmark doc =
  match benchmark_metrics benchmark with
  | Error msg -> [ msg ]
  | Ok (workloads, e2e, layers) ->
    let errs = ref [] in
    let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
    if J.member "schema" doc <> Some (J.String schema) then err "schema is not %s" schema;
    let present = members "workloads" doc in
    List.iter
      (fun (name, _) ->
        match List.find_opt (fun w -> J.member "name" w = Some (J.String name)) present with
        | None -> err "workload %s missing" name
        | Some w ->
          List.iter
            (fun key ->
              if number (J.member key w) = None then err "%s: %s is not a number" name key)
            [ "seed"; "reps"; "attempted"; "failed"; "verdict_errors" ];
          let section key fields names =
            List.iter
              (fun (metric, _) ->
                match Option.bind (J.member key w) (J.member metric) with
                | None -> err "%s: %s metric %s missing" name key metric
                | Some m ->
                  List.iter
                    (fun f ->
                      if number (J.member f m) = None then
                        err "%s: %s.%s has no numeric %s" name key metric f)
                    fields)
              names
          in
          section "end_to_end" [ "median"; "q1"; "q3"; "n" ] e2e;
          section "per_layer" [ "value" ] layers)
      workloads;
    List.rev !errs

(* The seed contract: the same seed regenerates identical circuits, another
   seed changes them. *)
let seed_errors seed =
  List.concat_map
    (fun (w : W.t) ->
      let d s = w.W.digests W.Smoke ~seed:s in
      (if d seed <> d seed then [ Fmt.str "%s: seed %d is not reproducible" w.W.name seed ] else [])
      @
      if d seed = d (seed + 1) then
        [ Fmt.str "%s: seeds %d and %d generate the same circuits" w.W.name seed (seed + 1) ]
      else [])
    W.all

let run_all o =
  let results = List.map (run_child o) W.all in
  let ok = List.for_all Option.is_some results in
  let results = List.filter_map Fun.id results in
  let workloads = List.concat_map fst results in
  let doc = document o workloads in
  Option.iter (fun path -> J.to_file path doc) o.json;
  Option.iter
    (fun path -> J.to_file path (Trace.document (List.concat_map snd results)))
    o.trace_out;
  let total key =
    List.fold_left
      (fun acc w -> acc +. Option.value ~default:0.0 (number (J.member key w)))
      0.0 workloads
  in
  let errors = int_of_float (total "verdict_errors") and n_failed = int_of_float (total "failed") in
  let problems =
    (if ok then [] else [ "a workload process did not produce its document" ])
    @
    if o.smoke then
      (* round-trip through the serializer: what compare will read *)
      document_errors ~benchmark:o.benchmark (J.of_string (J.to_string doc)) @ seed_errors o.seed
    else []
  in
  List.iter (fun p -> Fmt.epr "ledger: %s@." p) problems;
  Fmt.pr "ledger: %d workloads, %d checks, %d failed, %d wrong verdicts%s@."
    (List.length workloads) (int_of_float (total "attempted")) n_failed errors
    (match o.json with Some p -> ", wrote " ^ p | None -> "");
  problems = [] && errors = 0 && n_failed = 0

(* ------------------------------------------------------------------ *)
(* compare OLD NEW                                                     *)

let compare_runs ~benchmark old_path new_path =
  match (read_json old_path, read_json new_path, benchmark_metrics benchmark) with
  | None, _, _ -> Error (Fmt.str "cannot read %s" old_path)
  | _, None, _ -> Error (Fmt.str "cannot read %s" new_path)
  | _, _, Error msg -> Error msg
  | Some old_doc, Some new_doc, Ok (_, e2e, layers) ->
    let find doc name =
      List.find_opt (fun w -> J.member "name" w = Some (J.String name)) (members "workloads" doc)
    in
    let field w section metric f =
      number (Option.bind (Option.bind (J.member section w) (J.member metric)) (J.member f))
    in
    let regressions = ref 0 and verdict_errors = ref 0 in
    List.iter
      (fun old_w ->
        let name = match J.member "name" old_w with Some (J.String s) -> s | _ -> "?" in
        match find new_doc name with
        | None -> Fmt.pr "%s: missing from %s@." name new_path
        | Some new_w ->
          let errs w = Option.value ~default:0.0 (number (J.member "verdict_errors" w)) in
          if errs old_w +. errs new_w > 0.0 then incr verdict_errors;
          Fmt.pr "%s (verdict errors: %.0f old, %.0f new)@." name (errs old_w) (errs new_w);
          Fmt.pr "  %-28s %12s %12s %9s %9s %7s  %s@." "end-to-end" "old" "new" "delta" "old iqr"
            "bound" "flag";
          List.iter
            (fun (metric, spec) ->
              match
                ( field old_w "end_to_end" metric "median"
                , field new_w "end_to_end" metric "median" )
              with
              | Some o, Some n ->
                let q1 = Option.value ~default:o (field old_w "end_to_end" metric "q1") in
                let q3 = Option.value ~default:o (field old_w "end_to_end" metric "q3") in
                let bound = Option.value ~default:0.0 (number (J.member "bound" spec)) in
                let lower = J.member "better" spec <> Some (J.String "higher") in
                let delta = ratio (n -. o) o in
                let worse = if lower then delta else -.delta in
                let iqr = ratio (q3 -. q1) o in
                let sampled = Option.value ~default:0.0 (field old_w "end_to_end" metric "n") > 1.0 in
                (* worse than the bound is a regression only when the old
                   run's own spread could not produce it *)
                let flag =
                  if worse > bound && iqr > bound then "unresolved (old spread > bound)"
                  else if worse > bound then (incr regressions; "REGRESSION")
                  else if sampled && Float.abs delta > iqr then "moved beyond old iqr"
                  else ""
                in
                Fmt.pr "  %-28s %12.6g %12.6g %+8.1f%% %8.1f%% %6.0f%%  %s@." metric o n
                  (100.0 *. delta) (100.0 *. iqr) (100.0 *. bound) flag
              | _ -> Fmt.pr "  %-28s missing@." metric)
            e2e;
          List.iter
            (fun (metric, _) ->
              match (field old_w "per_layer" metric "value", field new_w "per_layer" metric "value") with
              | Some o, Some n when o <> 0.0 || n <> 0.0 ->
                Fmt.pr "  %-28s %12.6g %12.6g %+8.1f%%@." metric o n (100.0 *. ratio (n -. o) o)
              | _ -> ())
            layers)
      (members "workloads" old_doc);
    Ok (!regressions, !verdict_errors)

(* ------------------------------------------------------------------ *)

let usage () =
  Fmt.epr
    "usage: main.exe [--workload %s|all] [--seed N] [--seconds S] [--trace 0|1]@.\
    \                [--json OUT] [--trace-out FILE] [--workdir DIR] [--smoke]@.\
    \                [--benchmark BENCHMARK.json]@.\
    \       main.exe compare OLD.json NEW.json [--benchmark BENCHMARK.json]@."
    (String.concat "|" (List.map (fun (w : W.t) -> w.W.name) W.all));
  exit 2

let () =
  let default =
    { workload = "all"
    ; seed = 1
    ; seconds = 15.0
    ; trace = false
    ; json = None
    ; trace_out = None
    ; smoke = false
    ; workdir = Filename.get_temp_dir_name ()
    ; benchmark = "BENCHMARK.json"
    }
  in
  let int v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec parse o = function
    | [] -> o
    | "--workload" :: v :: rest -> parse { o with workload = v } rest
    | "--seed" :: v :: rest -> parse { o with seed = int v } rest
    | "--seconds" :: v :: rest ->
      parse { o with seconds = (match float_of_string_opt v with Some s -> s | None -> usage ()) } rest
    | "--trace" :: v :: rest -> parse { o with trace = int v <> 0 } rest
    | "--json" :: v :: rest -> parse { o with json = Some v } rest
    | "--trace-out" :: v :: rest -> parse { o with trace_out = Some v } rest
    | "--workdir" :: v :: rest -> parse { o with workdir = v } rest
    | "--benchmark" :: v :: rest -> parse { o with benchmark = v } rest
    | "--smoke" :: rest -> parse { o with smoke = true; seconds = 0.0 } rest
    | _ -> usage ()
  in
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: old_path :: new_path :: rest -> (
    let o = parse default rest in
    match compare_runs ~benchmark:o.benchmark old_path new_path with
    | Error msg ->
      Fmt.epr "ledger compare: %s@." msg;
      exit 2
    | Ok (regressions, errors) ->
      Fmt.pr "%d regression(s), %d workload(s) with verdict errors@." regressions errors;
      exit (if regressions > 0 || errors > 0 then 1 else 0))
  | args ->
    let o = parse default args in
    let ok =
      if o.workload = "all" then run_all o
      else
        match List.find_opt (fun (w : W.t) -> w.W.name = o.workload) W.all with
        | Some w -> run_workload o w
        | None -> usage ()
    in
    exit (if ok then 0 else 1)
