(* Batch-verification engine tests: queue draining, worker-count
   independence of verdicts, cooperative timeout/node-limit cancellation
   and retries, per-job failure isolation, manifest compilation, the
   qcec-result/v1 round trip, and the DD package's owner-domain guard. *)

module Job = Engine.Job
module Pool = Engine.Pool
module Manifest = Engine.Manifest
module Pair = Algorithms.Pair

let bv_pair seed = Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed 4)

let specs_of_pairs pairs =
  List.mapi
    (fun index (p : Pair.t) ->
      Job.circuits ~perm:p.Pair.dyn_to_static ~index p.Pair.static_circuit
        p.Pair.dynamic_circuit)
    pairs

let run ?(workers = 2) ?node_limit ?(lint = true) ?on_result specs =
  Pool.run
    { Pool.default_config with Pool.workers; node_limit; lint; on_result }
    specs

let check_class = Alcotest.(check string)

let exit_of (b : Pool.batch) i =
  Job.exit_class (List.nth b.Pool.results i).Job.outcome

(* -- draining and ordering --------------------------------------------- *)

let test_queue_drains () =
  let n = 6 in
  let batch = run ~workers:3 (specs_of_pairs (List.init n bv_pair)) in
  Alcotest.(check int) "every job has a result" n (List.length batch.Pool.results);
  List.iteri
    (fun i (r : Job.result) ->
      Alcotest.(check int) "results are in index order" i r.Job.index;
      Alcotest.(check bool) "every pair verifies" true (Job.succeeded r);
      Alcotest.(check int) "collection off: no job reading" 0 (List.length r.Job.metrics))
    batch.Pool.results;
  Alcotest.(check bool) "workers clamp to the job count" true
    (batch.Pool.workers <= n);
  Alcotest.(check bool) "collection off: no batch reading" true
    (batch.Pool.metrics = [] && batch.Pool.spans = [])

let test_streaming_callback () =
  let seen = ref [] in
  let n = 5 in
  let batch =
    run ~workers:2
      ~on_result:(fun r -> seen := r.Job.index :: !seen)
      (specs_of_pairs (List.init n bv_pair))
  in
  Alcotest.(check int) "callback fired once per job" n (List.length !seen);
  Alcotest.(check (list int)) "callback saw every index"
    (List.init n Fun.id)
    (List.sort compare !seen);
  Alcotest.(check int) "results agree" n (List.length batch.Pool.results)

(* [qcec batch | head] exits on EPIPE because the failing [on_result]
   ends [Pool.run] with its exception; no later result reaches it. *)
exception Reader_gone

let test_on_result_exception () =
  let calls = ref 0 in
  match
    run ~workers:2
      ~on_result:(fun _ ->
        incr calls;
        raise Reader_gone)
      (specs_of_pairs (List.init 6 bv_pair))
  with
  | _ -> Alcotest.fail "Pool.run returned although on_result raised"
  | exception Reader_gone ->
    Alcotest.(check int) "on_result is not called after it raised" 1 !calls

(* -- verdicts are scheduling-independent ------------------------------- *)

let test_worker_count_equivalence () =
  let specs = specs_of_pairs (List.init 6 bv_pair) in
  let one = run ~workers:1 specs in
  let four = run ~workers:4 specs in
  List.iter2
    (fun (a : Job.result) (b : Job.result) ->
      Alcotest.(check bool) "identical verdicts at 1 and 4 workers" true
        (Job.same_outcome a.Job.outcome b.Job.outcome))
    one.Pool.results four.Pool.results;
  (* and both agree with calling the verifier directly *)
  let direct = Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:0 4) in
  let r =
    Qcec.Verify.functional ~perm:direct.Pair.dyn_to_static
      direct.Pair.static_circuit direct.Pair.dynamic_circuit
  in
  (match (List.hd one.Pool.results).Job.outcome with
   | Job.Verdict v ->
     Alcotest.(check bool) "pool verdict = direct verdict" r.Qcec.Verify.equivalent
       v.Job.equivalent
   | Job.Failed _ -> Alcotest.fail "job 0 unexpectedly failed")

(* [run] lends [workers - 1] worker loops to helper domains and runs the
   last worker on the calling domain, so a one-worker batch runs every
   job here *)
let test_caller_runs_last_worker () =
  let caller = (Domain.self () :> int) in
  let seen = ref [] in
  let batch =
    run ~workers:1
      ~on_result:(fun _ -> seen := (Domain.self () :> int) :: !seen)
      (specs_of_pairs (List.init 3 bv_pair))
  in
  Alcotest.(check (list int)) "on_result runs on the calling domain"
    [ caller; caller; caller ] !seen;
  List.iter
    (fun (r : Job.result) -> Alcotest.(check int) "the caller is worker 0" 0 r.Job.worker)
    batch.Pool.results

(* [run] parks its helper domains and the next [run] borrows them again:
   the spawned worker's results reach [on_result] on the same domain in
   two consecutive batches.  Four slower jobs (tens of milliseconds
   each) lead each batch, so the helper wakes while the caller is still
   busy with them and takes some. *)
let test_run_reuses_helpers () =
  let caller = (Domain.self () :> int) in
  let specs =
    specs_of_pairs (List.init 4 (fun _ -> Algorithms.Qft.make 32) @ List.init 2 bv_pair)
  in
  let helper_domains () =
    let seen = ref [] in
    let batch =
      run ~workers:2
        ~on_result:(fun r -> seen := ((Domain.self () :> int), r.Job.worker) :: !seen)
        specs
    in
    List.iter
      (fun r -> Alcotest.(check bool) "every pair verifies" true (Job.succeeded r))
      batch.Pool.results;
    List.iter
      (fun (d, w) ->
        Alcotest.(check bool) "the caller runs worker 1, a helper worker 0" true
          ((d = caller) = (w = 1)))
      !seen;
    List.sort_uniq compare
      (List.filter_map (fun (d, w) -> if w = 0 then Some d else None) !seen)
  in
  let first = helper_domains () in
  let second = helper_domains () in
  Alcotest.(check int) "the helper ran a job in the first batch" 1 (List.length first);
  Alcotest.(check (list int)) "and the same helper in the second" first second

(* per-job seeds derived from one batch seed keep simulative verdicts
   identical across worker counts *)
let test_seeded_stimuli_deterministic () =
  let specs =
    List.map
      (fun (s : Job.spec) ->
        { s with
          Job.strategy = Some (Qcec.Strategy.Simulation 8)
        ; seed = Some (41 + s.Job.index)
        })
      (specs_of_pairs (List.init 4 bv_pair))
  in
  let one = run ~workers:1 specs in
  let three = run ~workers:3 specs in
  List.iter2
    (fun (a : Job.result) (b : Job.result) ->
      Alcotest.(check bool) "seeded simulation is worker-count independent" true
        (Job.same_outcome a.Job.outcome b.Job.outcome))
    one.Pool.results three.Pool.results

(* -- robustness: failures are per-job, never batch aborts -------------- *)

let test_timeout_and_retries () =
  let pair = Algorithms.Qft.make 6 in
  let spec =
    { (List.hd (specs_of_pairs [ pair ])) with Job.timeout = Some 0.0 }
  in
  let batch = run ~workers:1 [ spec ] in
  check_class "zero budget times out" "timeout" (exit_of batch 0);
  Alcotest.(check int) "no retries by default" 1
    (List.hd batch.Pool.results).Job.attempts;
  let batch = run ~workers:1 [ { spec with Job.retries = 2 } ] in
  check_class "still times out after retries" "timeout" (exit_of batch 0);
  Alcotest.(check int) "each retry is an attempt" 3
    (List.hd batch.Pool.results).Job.attempts

let test_node_limit () =
  let pair = Algorithms.Qft.make 6 in
  let batch = run ~workers:1 ~node_limit:2 (specs_of_pairs [ pair ]) in
  check_class "node budget enforced at safepoints" "node_limit" (exit_of batch 0)

(* The budget is checked against the unique tables, which the default
   sweep keeps within about twice the live set: BV-64 fits in 5,000 nodes,
   though a package that never swept would build about 17,000. *)
let test_node_limit_counts_live_nodes () =
  let pair = Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:5 63) in
  let batch = run ~workers:1 ~node_limit:5_000 (specs_of_pairs [ pair ]) in
  check_class "BV-64 within a 5,000-node budget" "equivalent" (exit_of batch 0)

let test_bad_jobs_do_not_abort () =
  let with_temp_qasm contents f =
    let path = Filename.temp_file "engine_test" ".qasm" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc contents);
        f path)
  in
  (* QA004: condition on a bit no measurement writes — error severity *)
  let lint_broken =
    "OPENQASM 3.0;\nqubit[1] q;\nbit[1] c;\nif (c[0] == 1) { x q[0]; }\n"
  in
  (* parses, but a CX cannot control its own target *)
  let malformed = "OPENQASM 2.0;\nqreg q[2];\nCX q[0],q[0];\n" in
  with_temp_qasm lint_broken (fun bad_lint ->
  with_temp_qasm malformed (fun bad_op ->
    let good = bv_pair 1 in
    let specs =
      [ Job.files ~index:0 "no/such/file.qasm" "nor/this/one.qasm"
      ; Job.files ~index:1 bad_lint bad_lint
      ; Job.circuits ~index:2 ~perm:good.Pair.dyn_to_static
          good.Pair.static_circuit good.Pair.dynamic_circuit
      ; Job.files ~index:3 bad_op bad_op
      ]
    in
    let batch = run ~workers:2 specs in
    check_class "missing file is a parse_error" "parse_error" (exit_of batch 0);
    check_class "lint pre-flight failure is structured" "lint_error"
      (exit_of batch 1);
    check_class "the healthy job still verifies" "equivalent" (exit_of batch 2);
    check_class "an invalid op is a parse_error" "parse_error" (exit_of batch 3);
    (* with the pre-flight off the same job runs into the transformation,
       which cannot handle a condition no measurement writes: the failure
       is still contained, it just surfaces later and less precisely *)
    let unchecked = run ~workers:1 ~lint:false [ List.nth specs 1 ] in
    check_class "lint off: failure still contained" "crash" (Job.exit_class
      (List.hd unchecked.Pool.results).Job.outcome)))

let test_reject_dynamic () =
  let file = Filename.concat "fixtures" "dynamic_teleport.qasm" in
  let batch = run ~workers:1 [ Job.files ~transform:false ~index:0 file file ] in
  check_class "dynamic input under transform=false is rejected" "rejected"
    (exit_of batch 0);
  let batch = run ~workers:1 [ Job.files ~transform:true ~index:0 file file ] in
  check_class "the same pair transforms and verifies" "equivalent"
    (exit_of batch 0)

(* -- batch metrics ------------------------------------------------------ *)

let test_batch_metrics () =
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Span.reset ())
    (fun () ->
      let n = 4 in
      (* the second batch runs after the first was folded into this
         domain: its own jobs must still be counted once *)
      List.iter
        (fun workers ->
          let batch = run ~workers (specs_of_pairs (List.init n bv_pair)) in
          let find = Obs.Metrics.find batch.Pool.metrics in
          Alcotest.(check int) "scheduled = jobs" n (find "engine.jobs.scheduled");
          Alcotest.(check int) "completed = jobs" n (find "engine.jobs.completed");
          Alcotest.(check int) "no failures" 0 (find "engine.jobs.failed");
          Alcotest.(check int) "one package per job" n (find "dd.pkg.created");
          Alcotest.(check bool) "workers peak recorded" true
            (find "engine.workers.peak" >= 1);
          Alcotest.(check bool) "DD work is attributed to the batch" true
            (find "dd.unique.mat.inserts" > 0);
          Alcotest.(check bool) "spans cover every job" true
            (List.exists
               (fun (e : Obs.Span.entry) ->
                 e.path = "verify.functional.check" && e.count = n)
               batch.Pool.spans);
          (* the summary's latencies are nearest-rank picks from one sorted
             sample, so they are ordered *)
          let latencies =
            match Obs.Json.member "latency_seconds" (Engine.Results.aggregate batch) with
            | Some (Obs.Json.Obj l) ->
              List.map
                (fun k ->
                  match List.assoc_opt k l with
                  | Some (Obs.Json.Float s) -> s
                  | _ -> Alcotest.failf "latency %s missing" k)
                [ "p50"; "p95"; "p99"; "max" ]
            | _ -> Alcotest.fail "summary has no latency_seconds"
          in
          Alcotest.(check (list (float 0.0))) "p50 <= p95 <= p99 <= max"
            (List.sort compare latencies) latencies;
          List.iter
            (fun (r : Job.result) ->
              Alcotest.(check bool) "per-job metrics carry DD work" true
                (Obs.Metrics.find r.Job.metrics "dd.unique.mat.inserts" > 0))
            batch.Pool.results)
        [ 2; 1 ])

(* -- manifests ---------------------------------------------------------- *)

let test_manifest_compile () =
  let doc =
    Obs.Json.of_string
      {|{ "schema": "qcec-manifest/v1",
          "seed": 7,
          "defaults": { "strategy": "lookahead", "timeout": 30, "retries": 1 },
          "jobs": [
            { "a": "a.qasm", "b": "b.qasm" },
            { "a": "/abs/c.qasm", "b": "d.qasm", "label": "named",
              "strategy": "simulation:16", "timeout": 5, "retries": 0,
              "transform": false, "perm": [1, 0] } ] }|}
  in
  match Manifest.of_json ~dir:"batch" doc with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check int) "two jobs" 2 (List.length m.Manifest.jobs);
    let j0 = List.nth m.Manifest.jobs 0 and j1 = List.nth m.Manifest.jobs 1 in
    (match j0.Job.source with
     | Job.Files { file_a; file_b } ->
       Alcotest.(check string) "relative paths resolve against the manifest dir"
         (Filename.concat "batch" "a.qasm") file_a;
       Alcotest.(check string) "both files" (Filename.concat "batch" "b.qasm")
         file_b
     | Job.Circuits _ -> Alcotest.fail "expected a Files source");
    (match j1.Job.source with
     | Job.Files { file_a; _ } ->
       Alcotest.(check string) "absolute paths pass through" "/abs/c.qasm" file_a
     | Job.Circuits _ -> Alcotest.fail "expected a Files source");
    Alcotest.(check bool) "defaults apply" true
      (j0.Job.strategy = Some Qcec.Strategy.Lookahead
      && j0.Job.timeout = Some 30.0
      && j0.Job.retries = 1 && j0.Job.transform);
    Alcotest.(check bool) "per-job overrides win" true
      (j1.Job.strategy = Some (Qcec.Strategy.Simulation 16)
      && j1.Job.timeout = Some 5.0
      && j1.Job.retries = 0
      && (not j1.Job.transform)
      && j1.Job.perm = Some [| 1; 0 |]);
    Alcotest.(check string) "labels" "named" j1.Job.label;
    Alcotest.(check (option int)) "seed derives per job: seed + index" (Some 7)
      j0.Job.seed;
    Alcotest.(check (option int)) "second job gets seed + 1" (Some 8) j1.Job.seed

let test_manifest_errors () =
  let bad s =
    match Manifest.of_json (Obs.Json.of_string s) with
    | Ok _ -> Alcotest.fail "expected a manifest error"
    | Error _ -> ()
  in
  bad {|{ "jobs": [] }|};
  bad {|{ "schema": "qcec-manifest/v2", "jobs": [] }|};
  bad {|{ "schema": "qcec-manifest/v1" }|};
  bad {|{ "schema": "qcec-manifest/v1", "jobs": [ { "a": "x.qasm" } ] }|};
  bad
    {|{ "schema": "qcec-manifest/v1",
        "jobs": [ { "a": "x.qasm", "b": "y.qasm", "strategy": "nope" } ] }|};
  (* a perm must be a permutation of 0..k-1: no repeats, none out of range *)
  bad
    {|{ "schema": "qcec-manifest/v1",
        "jobs": [ { "a": "x.qasm", "b": "y.qasm", "perm": [0, 0, 1, 2] } ] }|};
  bad
    {|{ "schema": "qcec-manifest/v1",
        "jobs": [ { "a": "x.qasm", "b": "y.qasm", "perm": [1, 2] } ] }|};
  match Manifest.pair_files [ "a"; "b"; "c" ] with
  | Ok _ -> Alcotest.fail "odd file count must be rejected"
  | Error _ ->
    (match Manifest.pair_files [ "a"; "b"; "c"; "d" ] with
     | Ok pairs ->
       Alcotest.(check int) "consecutive pairing" 2 (List.length pairs)
     | Error e -> Alcotest.fail e)

(* A manifest job and the daemon's inline body compile the same fields
   through [Manifest.compile_job]; only the source and the seed differ. *)
let test_inline_compiles_like_manifest () =
  let fields =
    {|"label": "same", "scheme": "lookahead", "perm": [1, 0], "timeout": 5,
      "retries": 2, "transform": false, "cache": false, "portfolio": 3|}
  in
  let from_manifest =
    match
      Manifest.of_json
        (Obs.Json.of_string
           (Printf.sprintf
              {|{ "schema": "qcec-manifest/v1", "seed": 4,
                  "jobs": [ { "a": "a.qasm", "b": "b.qasm", %s } ] }|}
              fields))
    with
    | Ok { Manifest.jobs = [ j ]; _ } -> j
    | Ok _ -> Alcotest.fail "expected one job"
    | Error e -> Alcotest.fail e
  in
  let p = bv_pair 1 in
  let inline =
    match
      Manifest.compile_job ~index:0 ~seed:None
        (Job.Circuits { a = p.Pair.static_circuit; b = p.Pair.dynamic_circuit })
        (Obs.Json.of_string
           (Printf.sprintf {|{ "a": "OPENQASM 2.0;", "b": "OPENQASM 2.0;", %s }|} fields))
    with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let fields_of (s : Job.spec) = { s with Job.source = inline.Job.source; seed = None } in
  Alcotest.(check bool) "same spec fields" true (fields_of from_manifest = fields_of inline);
  Alcotest.(check bool) "fields were compiled, not defaulted" true
    (inline.Job.strategy = Some Qcec.Strategy.Lookahead
    && inline.Job.portfolio = Some 3
    && inline.Job.perm = Some [| 1; 0 |])

(* The retired ["kernels"] and ["backend"] keys may linger in old
   manifests: they must still compile, change nothing, and every gate must
   still go through the direct kernels.  A result line written while the
   ["backend"] field existed must still load. *)
let test_manifest_legacy_kernels_key () =
  let compile ~legacy =
    let key = if legacy then {|, "kernels": false, "backend": "packed"|} else "" in
    let doc =
      Obs.Json.of_string
        (Printf.sprintf
           {|{ "schema": "qcec-manifest/v1",
               "defaults": { "timeout": 60%s },
               "jobs": [
                 { "a": "dynamic_teleport.qasm", "b": "dynamic_teleport.qasm"%s },
                 { "a": "clean_ghz.qasm", "b": "clean_ghz.qasm" } ] }|}
           key key)
    in
    match Manifest.of_json ~dir:"fixtures" doc with
    | Error e -> Alcotest.fail e
    | Ok m -> m.Manifest.jobs
  in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Span.reset ())
    (fun () ->
      let legacy = run ~workers:1 (compile ~legacy:true) in
      let plain = run ~workers:1 (compile ~legacy:false) in
      List.iter2
        (fun (a : Job.result) (b : Job.result) ->
          check_class "legacy-key job verifies" "equivalent"
            (Job.exit_class a.Job.outcome);
          Alcotest.(check bool) "verdict equals the manifest without the key"
            true
            (Job.same_outcome a.Job.outcome b.Job.outcome))
        legacy.Pool.results plain.Pool.results;
      Alcotest.(check bool) "gates still go through the kernels" true
        (Obs.Metrics.find legacy.Pool.metrics "dd.kernel.calls" > 0));
  let old_line =
    {|{"schema":"qcec-result/v1","index":0,"label":"ghz.qasm vs ghz.qasm","files":["ghz.qasm","ghz.qasm"],"exit":"equivalent","equivalent":true,"exactly_equal":true,"strategy":"proportional","t_transform":1e-05,"t_check":0.0003,"transformed_qubits":4,"peak_nodes":5,"cached":false,"error":null,"duration_seconds":0.0006,"attempts":1,"worker":0,"seed":null,"backend":"packed","metrics":{"dd.kernel.calls":8}}|}
  in
  match Job.of_string old_line with
  | Error e -> Alcotest.failf "a result line with \"backend\" must load: %s" e
  | Ok r ->
    check_class "old line keeps its verdict" "equivalent" (Job.exit_class r.Job.outcome);
    Alcotest.(check int) "old line keeps its metrics" 8
      (Obs.Metrics.find r.Job.metrics "dd.kernel.calls")

(* -- qcec-result/v1 round trip ------------------------------------------ *)

let gen_result =
  let open QCheck.Gen in
  let small_float = map (fun i -> float_of_int i /. 1024.0) (int_bound 5_000_000) in
  let label = map (fun i -> Printf.sprintf "job %d \"quoted\"" i) small_nat in
  let verdict =
    map
      (fun ((((equivalent, exactly_equal), cached), strategy), ((t1, t2), (q, p))) ->
        Job.Verdict
          { Job.equivalent
          ; exactly_equal
          ; strategy
          ; t_transform = t1
          ; t_check = t2
          ; transformed_qubits = q
          ; peak_nodes = p
          ; cached
          })
      (pair
         (pair
            (pair (pair bool bool) bool)
            (oneofl [ "proportional"; "lookahead"; "simulation(16)" ]))
         (pair (pair small_float small_float) (pair small_nat small_nat)))
  in
  let failure =
    map2
      (fun reason msg -> Job.Failed { reason; message = msg })
      (oneofl
         [ Job.Timeout; Job.Lint_error; Job.Parse_error; Job.Non_unitary
         ; Job.Rejected; Job.Node_limit; Job.Crash ])
      (map (Printf.sprintf "error #%d: \\ \"bad\"\n") small_nat)
  in
  let metrics =
    map
      (fun vs ->
        List.mapi (fun i v -> (Printf.sprintf "test.metric.%02d" i, v)) vs)
      (small_list small_nat)
  in
  map
    (fun ((((index, label), files), outcome), (((duration, attempts), (worker, seed)), metrics)) ->
      { Job.index
      ; label
      ; files_checked = files
      ; outcome
      ; duration
      ; attempts
      ; worker
      ; seed
      ; metrics
      })
    (pair
       (pair
          (pair (pair small_nat label)
             (opt (pair (map (Printf.sprintf "a%d.qasm") small_nat)
                     (map (Printf.sprintf "b%d.qasm") small_nat))))
          (oneof [ verdict; failure ]))
       (pair
          (pair (pair small_float small_nat)
             (pair small_nat (opt small_int)))
          metrics))

let prop_result_roundtrip =
  QCheck.Test.make ~count:200 ~name:"qcec-result/v1 JSONL round trip"
    (QCheck.make gen_result) (fun r ->
      match Job.of_string (Obs.Json.to_string (Job.to_json r)) with
      | Ok r' -> r = r'
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

(* -- the DD package is single-domain ------------------------------------ *)

let test_pkg_owner_guard () =
  let p = Dd.Pkg.create () in
  ignore (Dd.Pkg.weight p Cxnum.Cx.one);
  let raised =
    Domain.spawn (fun () ->
      match Dd.Pkg.weight p Cxnum.Cx.one with
      | _ -> false
      | exception Dd.Pkg.Cross_domain_use _ -> true)
    |> Domain.join
  in
  Alcotest.(check bool) "cross-domain use raises" true raised;
  (* a package created inside a domain is owned by it *)
  let ok =
    Domain.spawn (fun () ->
      let p = Dd.Pkg.create () in
      match Dd.Pkg.weight p Cxnum.Cx.one with _ -> true)
    |> Domain.join
  in
  Alcotest.(check bool) "same-domain use is fine" true ok

let suite =
  [ Alcotest.test_case "queue drains, results ordered" `Quick test_queue_drains
  ; Alcotest.test_case "streaming callback" `Quick test_streaming_callback
  ; Alcotest.test_case "on_result exception ends the batch" `Quick
      test_on_result_exception
  ; Alcotest.test_case "verdicts independent of worker count" `Quick
      test_worker_count_equivalence
  ; Alcotest.test_case "the caller runs the last worker" `Quick
      test_caller_runs_last_worker
  ; Alcotest.test_case "consecutive runs reuse the helper domain" `Quick
      test_run_reuses_helpers
  ; Alcotest.test_case "seeded stimuli deterministic" `Quick
      test_seeded_stimuli_deterministic
  ; Alcotest.test_case "timeout and bounded retry" `Quick test_timeout_and_retries
  ; Alcotest.test_case "node-limit cancellation" `Quick test_node_limit
  ; Alcotest.test_case "node limit counts live nodes" `Quick
      test_node_limit_counts_live_nodes
  ; Alcotest.test_case "bad jobs never abort the batch" `Quick
      test_bad_jobs_do_not_abort
  ; Alcotest.test_case "transform=false rejects dynamic inputs" `Quick
      test_reject_dynamic
  ; Alcotest.test_case "batch metrics merge worker registries" `Quick
      test_batch_metrics
  ; Alcotest.test_case "manifest compilation" `Quick test_manifest_compile
  ; Alcotest.test_case "manifest rejects malformed input" `Quick
      test_manifest_errors
  ; Alcotest.test_case "legacy kernels key is ignored" `Quick
      test_manifest_legacy_kernels_key
  ; Alcotest.test_case "inline body compiles like a manifest job" `Quick
      test_inline_compiles_like_manifest
  ; QCheck_alcotest.to_alcotest prop_result_roundtrip
  ; Alcotest.test_case "DD package owner-domain guard" `Quick test_pkg_owner_guard
  ]
