(* The cost-aware lookahead application scheme: scheduling must never
   change verdicts (bit-identical to proportional alternation), it must pay for itself in peak intermediate nodes where
   the cost curves diverge, and the manifest/engine plumbing around
   ["scheme"] (auto routing included) must resolve as documented. *)

module Circ = Circuit.Circ
module Pair = Algorithms.Pair
module Job = Engine.Job
module Manifest = Engine.Manifest

let table1_pairs =
  [ Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:9 9)
  ; Algorithms.Qft.make 6
  ; Algorithms.Qpe.make ~theta:(Algorithms.Qpe.random_theta ~seed:5 ~bits:5) ~bits:5
  ; Algorithms.Qpe.make_textbook
      ~theta:(Algorithms.Qpe.random_theta ~seed:5 ~bits:5) ~bits:5
  ]

let fingerprint (r : Qcec.Verify.functional_result) =
  (r.Qcec.Verify.equivalent, r.Qcec.Verify.exactly_equal)

(* lookahead and proportional agree on every Table 1 pair *)
let test_verdicts_identical () =
  List.iter
    (fun (pair : Pair.t) ->
      let run strategy =
        Qcec.Verify.functional ~strategy ~perm:pair.Pair.dyn_to_static
          pair.Pair.static_circuit pair.Pair.dynamic_circuit
      in
      let name = pair.Pair.static_circuit.Circ.name in
      Alcotest.(check (pair bool bool))
        (name ^ ": verdicts agree")
        (fingerprint (run Qcec.Strategy.Proportional))
        (fingerprint (run Qcec.Strategy.Lookahead));
      Alcotest.(check bool) (name ^ ": equivalent") true
        (run Qcec.Strategy.Lookahead).Qcec.Verify.equivalent)
    table1_pairs

(* an inequivalent pair must stay inequivalent under lookahead — the
   scheduler reorders multiplications, it cannot invent identity *)
let test_inequivalent_pair () =
  let pair = Algorithms.Qft.make 5 in
  let static = Circ.strip_measurements pair.Pair.static_circuit in
  let broken =
    Circ.make ~name:"broken" ~qubits:5 ~cbits:0
      (static.Circ.ops @ [ Circuit.Op.apply Circuit.Gates.T 0 ])
  in
  List.iter
    (fun strategy ->
      let r = Qcec.Verify.functional ~strategy static broken in
      Alcotest.(check bool)
        (Qcec.Strategy.name strategy ^ " rejects the broken pair")
        false r.Qcec.Verify.equivalent)
    [ Qcec.Strategy.Proportional; Qcec.Strategy.Lookahead ]

(* the acceptance gate: on the QPE pairs, whose realizations skew their
   non-Clifford cost mass, lookahead's peak must not exceed proportional —
   both for the aligned generator and for the textbook one, where the
   dynamic realization front-loads its non-Clifford cost *)
let test_qpe_peak () =
  List.iter
    (fun (pair : Pair.t) ->
      let run strategy =
        Qcec.Verify.functional ~strategy ~perm:pair.Pair.dyn_to_static
          pair.Pair.static_circuit pair.Pair.dynamic_circuit
      in
      let p = run Qcec.Strategy.Proportional in
      let l = run Qcec.Strategy.Lookahead in
      let name = pair.Pair.static_circuit.Circ.name in
      Alcotest.(check bool) (name ^ ": both equivalent") true
        (p.Qcec.Verify.equivalent && l.Qcec.Verify.equivalent);
      Alcotest.(check bool)
        (Fmt.str "%s: peak did not regress (%d <= %d)" name l.Qcec.Verify.peak_nodes
           p.Qcec.Verify.peak_nodes)
        true
        (l.Qcec.Verify.peak_nodes <= p.Qcec.Verify.peak_nodes))
    [ Algorithms.Qpe.make ~theta:(Algorithms.Qpe.random_theta ~seed:10 ~bits:10)
        ~bits:10
    ; Algorithms.Qpe.make_textbook
        ~theta:(Algorithms.Qpe.random_theta ~seed:8 ~bits:8) ~bits:8
    ]

(* -- manifest plumbing -------------------------------------------------- *)

let test_manifest_scheme () =
  let doc =
    Obs.Json.of_string
      {|{ "schema": "qcec-manifest/v1",
          "defaults": { "scheme": "auto" },
          "jobs": [
            { "a": "a.qasm", "b": "b.qasm" },
            { "a": "c.qasm", "b": "d.qasm", "scheme": "lookahead" },
            { "a": "e.qasm", "b": "f.qasm", "strategy": "sequential" } ] }|}
  in
  match Manifest.of_json doc with
  | Error e -> Alcotest.fail e
  | Ok m ->
    let j = Array.of_list m.Manifest.jobs in
    Alcotest.(check bool) "defaults scheme=auto inherits" true
      (j.(0).Job.auto_scheme && j.(0).Job.strategy = None);
    Alcotest.(check bool) "per-job scheme pins lookahead" true
      ((not j.(1).Job.auto_scheme)
      && j.(1).Job.strategy = Some Qcec.Strategy.Lookahead);
    Alcotest.(check bool) "explicit strategy beats inherited auto" true
      ((not j.(2).Job.auto_scheme)
      && j.(2).Job.strategy = Some Qcec.Strategy.Sequential)

let test_manifest_scheme_errors () =
  match
    Manifest.of_json
      (Obs.Json.of_string
         {|{ "schema": "qcec-manifest/v1",
             "jobs": [ { "a": "a.qasm", "b": "b.qasm", "scheme": "frobnicate" } ] }|})
  with
  | Ok _ -> Alcotest.fail "unknown scheme must be rejected"
  | Error _ -> ()

(* scheme=auto through the pool: the analysis passes route each job after
   parsing, and the strategy recorded on the result is the routed one *)
let test_pool_auto_scheme () =
  let specs =
    List.mapi
      (fun index (pair : Pair.t) ->
        Job.circuits ~auto_scheme:true ~perm:pair.Pair.dyn_to_static ~index
          pair.Pair.static_circuit pair.Pair.dynamic_circuit)
      table1_pairs
  in
  let batch =
    Engine.Pool.run { Engine.Pool.default_config with Engine.Pool.workers = 2 } specs
  in
  List.iter
    (fun (r : Job.result) ->
      match r.Job.outcome with
      | Job.Verdict v ->
        Alcotest.(check bool) (r.Job.label ^ " equivalent") true v.Job.equivalent;
        Alcotest.(check bool)
          (r.Job.label ^ " routed to a deterministic scheme: " ^ v.Job.strategy)
          true
          (v.Job.strategy = "proportional" || v.Job.strategy = "lookahead")
      | Job.Failed { message; _ } -> Alcotest.fail message)
    batch.Engine.Pool.results

let suite =
  [ Alcotest.test_case "verdicts identical across schemes" `Quick
      test_verdicts_identical
  ; Alcotest.test_case "inequivalent pair stays inequivalent" `Quick
      test_inequivalent_pair
  ; Alcotest.test_case "QPE peak nodes do not regress" `Quick test_qpe_peak
  ; Alcotest.test_case "manifest scheme field" `Quick test_manifest_scheme
  ; Alcotest.test_case "manifest scheme errors" `Quick test_manifest_scheme_errors
  ; Alcotest.test_case "pool scheme=auto routing" `Quick test_pool_auto_scheme
  ]
