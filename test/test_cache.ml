(* Verification-cache tests: structural circuit digests (qcheck
   properties, including permutation canonicalization agreeing with the
   verifier), pair-key sensitivity, the JSONL verdict store (round trip,
   re-inserts, crash recovery from a torn segment, lookups racing
   inserts), and cache-aware verification end to end — direct and through
   the batch engine. *)

module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates
module Key = Cache_store.Key
module Store = Cache_store.Store
module Job = Engine.Job
module Pool = Engine.Pool
module Manifest = Engine.Manifest
module Pair = Algorithms.Pair

let random_unitary seed = Algorithms.Random_circuit.unitary ~seed ~qubits:4 ~gates:20

let random_dynamic seed =
  Algorithms.Random_circuit.dynamic ~seed ~qubits:4 ~cbits:2 ~ops:20

let random_perm ~seed n =
  let st = Random.State.make [| seed |] in
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let invert_perm p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun i pi -> inv.(pi) <- i) p;
  inv

(* -- digest properties -------------------------------------------------- *)

let prop_digest_deterministic =
  QCheck.Test.make ~name:"equal circuits digest equal" ~count:100
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, dynamic) ->
      let c = if dynamic then random_dynamic seed else random_unitary seed in
      let c' = if dynamic then random_dynamic seed else random_unitary seed in
      Circ.digest c = Circ.digest c'
      && Circ.digest ~perm_invariant:true c = Circ.digest ~perm_invariant:true c')

let prop_digest_metadata_insensitive =
  QCheck.Test.make ~name:"names and barriers never change the digest" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_unitary seed in
      let renamed = Circ.with_name c "something-else-entirely" in
      let barriered =
        Circ.make ~name:c.Circ.name ~qubits:c.Circ.num_qubits
          ~cbits:c.Circ.num_cbits
          ((Op.Barrier [ 0; 1 ] :: c.Circ.ops) @ [ Op.Barrier [ 2 ] ])
      in
      Circ.digest c = Circ.digest renamed && Circ.digest c = Circ.digest barriered)

let prop_digest_detects_edits =
  QCheck.Test.make ~name:"a single-gate edit changes the digest" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_unitary seed in
      let appended =
        Circ.make ~name:c.Circ.name ~qubits:c.Circ.num_qubits
          ~cbits:c.Circ.num_cbits
          (c.Circ.ops @ [ Op.apply Gates.X 0 ])
      in
      let truncated =
        Circ.make ~name:c.Circ.name ~qubits:c.Circ.num_qubits
          ~cbits:c.Circ.num_cbits
          (List.filteri (fun i _ -> i > 0) c.Circ.ops)
      in
      Circ.digest c <> Circ.digest appended
      && Circ.digest c <> Circ.digest truncated)

(* a relabeled circuit canonicalizes to the same perm-invariant digest,
   and the verifier agrees the relabeling is an equivalence when told the
   inverse wire map — the digest and the checker see the same symmetry *)
let prop_digest_perm_canonical =
  QCheck.Test.make ~name:"perm-invariant digest agrees with Verify under perm"
    ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, pseed) ->
      let c = random_unitary seed in
      let p = random_perm ~seed:pseed c.Circ.num_qubits in
      let c' = Circ.remap c ~perm:p in
      let digests_agree =
        Circ.digest ~perm_invariant:true c = Circ.digest ~perm_invariant:true c'
      in
      let r = Qcec.Verify.functional ~perm:(invert_perm p) c c' in
      digests_agree && r.Qcec.Verify.equivalent)

(* -- pair keys ----------------------------------------------------------- *)

let test_key_sensitivity () =
  let base =
    { Key.strategy = "proportional"
    ; transform = true
    ; perm = None
    ; seed = None
    ; tol = 1e-10
    }
  in
  let da = "aaaa" and db = "bbbb" in
  let k cfg = Key.make ~digest_a:da ~digest_b:db cfg in
  Alcotest.(check string) "stable for identical inputs" (k base) (k base);
  let distinct =
    [ ("strategy", k { base with Key.strategy = "simulation(16)" })
    ; ("transform", k { base with Key.transform = false })
    ; ("perm", k { base with Key.perm = Some [| 1; 0 |] })
    ; ("seed", k { base with Key.seed = Some 7 })
    ; ("tol", k { base with Key.tol = 1e-6 })
    ; ("digest order", Key.make ~digest_a:db ~digest_b:da base)
    ]
  in
  List.iter
    (fun (what, key) ->
      Alcotest.(check bool) (what ^ " is part of the key") true (key <> k base))
    distinct;
  (* all distinct from each other too: no accidental collisions between
     the perturbations *)
  let keys = k base :: List.map snd distinct in
  Alcotest.(check int) "pairwise distinct"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* -- the verdict store --------------------------------------------------- *)

let entry ~key ~equivalent =
  { Store.key
  ; digest_a = "da-" ^ key
  ; digest_b = "db-" ^ key
  ; strategy = "proportional"
  ; equivalent
  ; exactly_equal = equivalent
  ; transformed_qubits = 5
  ; peak_nodes = 42
  ; t_transform = 0.25
  ; t_check = 1.5
  }

let temp_store_dir () =
  let path = Filename.temp_file "qcec_cache_test" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let test_store_roundtrip () =
  let s = Store.in_memory () in
  Alcotest.(check (option string)) "miss on empty" None
    (Option.map (fun e -> e.Store.key) (Store.lookup s "k0"));
  Store.insert s (entry ~key:"k0" ~equivalent:true);
  Store.insert s (entry ~key:"k1" ~equivalent:false);
  Alcotest.(check int) "two entries" 2 (Store.size s);
  (match Store.lookup s "k1" with
   | Some e -> Alcotest.(check bool) "verdict round trips" false e.Store.equivalent
   | None -> Alcotest.fail "k1 not found");
  Store.insert s (entry ~key:"k0" ~equivalent:false);
  Alcotest.(check (option bool)) "last insert wins" (Some false)
    (Option.map (fun e -> e.Store.equivalent) (Store.lookup s "k0"));
  Alcotest.(check int) "replacement does not grow the index" 2 (Store.size s);
  Alcotest.(check (option string)) "in-memory stores have no dir" None
    (Store.dir s);
  (* the JSONL codec round-trips every field *)
  let e = entry ~key:"codec" ~equivalent:true in
  (match Store.entry_of_json (Store.entry_to_json e) with
   | Ok e' -> Alcotest.(check bool) "entry = decode (encode entry)" true (e = e')
   | Error msg -> Alcotest.fail msg)

let test_store_persistence () =
  let dir = temp_store_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (match Store.open_dir dir with
       | Error msg -> Alcotest.fail msg
       | Ok s ->
         for i = 0 to 9 do
           Store.insert s (entry ~key:(Printf.sprintf "k%d" i) ~equivalent:(i mod 2 = 0))
         done;
         (* the segment now holds k0 twice *)
         Store.insert s (entry ~key:"k0" ~equivalent:false);
         Store.close s);
      match Store.open_dir dir with
      | Error msg -> Alcotest.fail msg
      | Ok s ->
        Alcotest.(check int) "all eleven replayed" 11 (Store.recovered s);
        Alcotest.(check int) "nothing dropped" 0 (Store.dropped s);
        Alcotest.(check int) "one entry per key" 10 (Store.size s);
        (match Store.lookup s "k3" with
         | Some e -> Alcotest.(check bool) "odd keys not equivalent" false e.Store.equivalent
         | None -> Alcotest.fail "k3 lost across reopen");
        Alcotest.(check (option bool)) "the last record of a key wins" (Some false)
          (Option.map (fun e -> e.Store.equivalent) (Store.lookup s "k0"));
        Store.close s)

let test_store_crash_recovery () =
  let dir = temp_store_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (match Store.open_dir dir with
       | Error msg -> Alcotest.fail msg
       | Ok s ->
         for i = 0 to 4 do
           Store.insert s (entry ~key:(Printf.sprintf "k%d" i) ~equivalent:true)
         done;
         Store.close s);
      (* tear the final record: a crash mid-append leaves a truncated last
         line in the newest segment *)
      let seg = Filename.concat dir "seg-00000.jsonl" in
      let len = (Unix.stat seg).Unix.st_size in
      let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (len - 10);
      Unix.close fd;
      match Store.open_dir dir with
      | Error msg -> Alcotest.fail msg
      | Ok s ->
        Alcotest.(check int) "only the torn record is lost" 4 (Store.recovered s);
        Alcotest.(check int) "one dropped line" 1 (Store.dropped s);
        Alcotest.(check bool) "intact records still resolve" true
          (Store.lookup s "k3" <> None);
        Alcotest.(check bool) "the torn record is gone" true
          (Store.lookup s "k4" = None);
        (* the store keeps working: a fresh insert lands and survives
           another reopen *)
        Store.insert s (entry ~key:"k4" ~equivalent:false);
        Alcotest.(check bool) "reinsert visible" true (Store.lookup s "k4" <> None);
        Store.close s;
        (match Store.open_dir dir with
         | Error msg -> Alcotest.fail msg
         | Ok s2 ->
           Alcotest.(check int) "recovery then insert replays clean" 5
             (Store.recovered s2);
           Store.close s2))

(* -- readers racing a writer --------------------------------------------- *)

let test_store_concurrent_lookup () =
  let s = Store.in_memory () in
  let n = 1_000 in
  let key i = Printf.sprintf "k%d" i in
  let started = Atomic.make 0 and stop = Atomic.make false in
  (* a reader sees either nothing or the entry exactly as inserted *)
  let reader () =
    Atomic.incr started;
    let ok = ref true in
    while not (Atomic.get stop) do
      for i = 0 to n - 1 do
        match Store.lookup s (key i) with
        | None -> ()
        | Some e -> ok := !ok && e = entry ~key:(key i) ~equivalent:(i mod 2 = 0)
      done
    done;
    !ok
  in
  let readers = List.init 2 (fun _ -> Domain.spawn reader) in
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  for i = 0 to n - 1 do
    Store.insert s (entry ~key:(key i) ~equivalent:(i mod 2 = 0))
  done;
  Atomic.set stop true;
  List.iter
    (fun d ->
      Alcotest.(check bool) "readers saw only None or complete entries" true
        (Domain.join d))
    readers;
  Alcotest.(check int) "every insert indexed" n (Store.size s);
  Alcotest.(check bool) "every key found after the join" true
    (List.for_all (fun i -> Store.lookup s (key i) <> None) (List.init n Fun.id))

(* -- cache-aware verification -------------------------------------------- *)

let test_verify_with_cache () =
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      let p = Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:3 6) in
      let store = Store.in_memory () in
      let check () =
        Qcec.Verify.functional ~perm:p.Pair.dyn_to_static ~cache:store
          p.Pair.static_circuit p.Pair.dynamic_circuit
      in
      let cold = check () in
      Alcotest.(check bool) "cold result is computed" false cold.Qcec.Verify.cached;
      Alcotest.(check int) "cold verdict inserted" 1 (Store.size store);
      let m0 = Obs.Metrics.snapshot () in
      let warm = check () in
      let dm = Obs.Metrics.diff ~before:m0 ~after:(Obs.Metrics.snapshot ()) in
      Alcotest.(check bool) "warm result is served from the store" true
        warm.Qcec.Verify.cached;
      Alcotest.(check int) "no DD package is built on a hit" 0
        (Obs.Metrics.find dm "dd.pkg.created");
      Alcotest.(check int) "the hit is counted" 1
        (Obs.Metrics.find dm "cache.result.hits");
      Alcotest.(check bool) "verdicts agree" true
        (cold.Qcec.Verify.equivalent = warm.Qcec.Verify.equivalent
        && cold.Qcec.Verify.exactly_equal = warm.Qcec.Verify.exactly_equal
        && cold.Qcec.Verify.peak_nodes = warm.Qcec.Verify.peak_nodes);
      (* a different seed is a different key: no false sharing *)
      let miss =
        Qcec.Verify.functional ~perm:p.Pair.dyn_to_static ~cache:store ~seed:99
          p.Pair.static_circuit p.Pair.dynamic_circuit
      in
      Alcotest.(check bool) "seed is part of the key" false miss.Qcec.Verify.cached)

let test_engine_with_cache () =
  let pair = Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:5 5) in
  let spec ?(cache = true) index =
    { (Job.circuits ~perm:pair.Pair.dyn_to_static ~index pair.Pair.static_circuit
         pair.Pair.dynamic_circuit)
      with
      Job.cache
    }
  in
  let store = Store.in_memory () in
  let cfg = { Pool.default_config with Pool.workers = 1; cache = Some store } in
  let batch = Pool.run cfg [ spec 0; spec 1; spec ~cache:false 2 ] in
  let classes = List.map (fun (r : Job.result) -> Job.exit_class r.Job.outcome)
      batch.Pool.results
  in
  Alcotest.(check (list string))
    "duplicate hits the store; cache=false opts out"
    [ "equivalent"; "cached"; "equivalent" ] classes;
  List.iter
    (fun (r : Job.result) ->
      Alcotest.(check bool) "cached verdicts still count as success" true
        (Job.succeeded r))
    batch.Pool.results

(* -- manifest regressions: skip and the zero-job batch ------------------- *)

let test_manifest_skip () =
  let doc =
    Obs.Json.of_string
      {|{ "schema": "qcec-manifest/v1",
          "seed": 20,
          "jobs": [
            { "a": "a.qasm", "b": "b.qasm", "label": "first" },
            { "a": "c.qasm", "b": "d.qasm", "label": "skipped", "skip": true },
            { "a": "e.qasm", "b": "f.qasm", "label": "third" } ] }|}
  in
  match Manifest.of_json doc with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check int) "skipped jobs are dropped" 2 (List.length m.Manifest.jobs);
    let j0 = List.nth m.Manifest.jobs 0 and j1 = List.nth m.Manifest.jobs 1 in
    Alcotest.(check (list string)) "survivors in order" [ "first"; "third" ]
      [ j0.Job.label; j1.Job.label ];
    (* manifest positions survive the drop, so derived seeds are stable
       whether or not a sibling is skipped *)
    Alcotest.(check (list int)) "indices and seeds keep manifest positions"
      [ 0; 2; 20; 22 ]
      [ j0.Job.index; j1.Job.index;
        Option.get j0.Job.seed; Option.get j1.Job.seed ]

let test_zero_job_batch () =
  (* every job skipped compiles to an empty manifest ... *)
  let doc =
    Obs.Json.of_string
      {|{ "schema": "qcec-manifest/v1",
          "jobs": [ { "a": "a.qasm", "b": "b.qasm", "skip": true } ] }|}
  in
  (match Manifest.of_json doc with
   | Error e -> Alcotest.fail e
   | Ok m -> Alcotest.(check int) "all-skipped manifest is empty" 0
               (List.length m.Manifest.jobs));
  (* ... and the pool and aggregator take an empty batch in stride *)
  let batch = Pool.run { Pool.default_config with Pool.workers = 4 } [] in
  Alcotest.(check int) "no results" 0 (List.length batch.Pool.results);
  match Engine.Results.aggregate batch with
  | Obs.Json.Obj fields ->
    Alcotest.(check bool) "summary still counts zero jobs" true
      (List.assoc "jobs" fields = Obs.Json.Int 0)
  | _ -> Alcotest.fail "aggregate must produce an object"

let suite =
  [ QCheck_alcotest.to_alcotest prop_digest_deterministic
  ; QCheck_alcotest.to_alcotest prop_digest_metadata_insensitive
  ; QCheck_alcotest.to_alcotest prop_digest_detects_edits
  ; QCheck_alcotest.to_alcotest prop_digest_perm_canonical
  ; Alcotest.test_case "pair keys cover every config input" `Quick
      test_key_sensitivity
  ; Alcotest.test_case "store round trip (in memory + codec)" `Quick
      test_store_roundtrip
  ; Alcotest.test_case "store persists across reopen" `Quick test_store_persistence
  ; Alcotest.test_case "store recovers from a torn segment" `Quick
      test_store_crash_recovery
  ; Alcotest.test_case "store lookups race inserts safely" `Quick
      test_store_concurrent_lookup
  ; Alcotest.test_case "Verify serves and fills the store" `Quick
      test_verify_with_cache
  ; Alcotest.test_case "engine short-circuits duplicate pairs" `Quick
      test_engine_with_cache
  ; Alcotest.test_case "manifest skip preserves indices and seeds" `Quick
      test_manifest_skip
  ; Alcotest.test_case "zero-job batches aggregate cleanly" `Quick
      test_zero_job_batch
  ]
