(* Observability layer tests: counter/gauge semantics, the global on/off
   switch, span nesting, and JSON serialization round-tripping through the
   parser.  Collection is restored to "off" after every test so the rest of
   the suite runs on the zero-cost path. *)

module M = Obs.Metrics
module Span = Obs.Span
module Json = Obs.Json

let with_metrics f =
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      M.set_enabled false;
      M.reset ();
      Span.reset ())
    f

let test_counter_disabled () =
  let c = M.counter "test.obs.disabled" in
  M.set_enabled false;
  M.incr c;
  M.add c 41;
  Alcotest.(check int) "disabled incr is a no-op" 0 (M.value c)

let test_counter_increment_and_reset () =
  with_metrics (fun () ->
    let c = M.counter "test.obs.counter" in
    Alcotest.(check int) "starts at zero" 0 (M.value c);
    M.incr c;
    M.incr c;
    M.add c 40;
    Alcotest.(check int) "incr + add accumulate" 42 (M.value c);
    Alcotest.(check bool) "same name, same counter" true
      (M.counter "test.obs.counter" == c);
    M.reset ();
    Alcotest.(check int) "reset zeroes" 0 (M.value c))

let test_gauge_peak () =
  with_metrics (fun () ->
    let g = M.gauge "test.obs.gauge" in
    M.observe g 3;
    M.observe g 17;
    M.observe g 5;
    Alcotest.(check int) "peak keeps the maximum" 17 (M.peak g))

let test_snapshot_diff () =
  with_metrics (fun () ->
    let c = M.counter "test.obs.diffc" in
    let g = M.gauge "test.obs.diffg" in
    M.incr c;
    M.observe g 10;
    let before = M.snapshot () in
    M.add c 5;
    M.observe g 30;
    let d = M.diff ~before ~after:(M.snapshot ()) in
    Alcotest.(check int) "counters subtract" 5 (M.find d "test.obs.diffc");
    Alcotest.(check int) "gauges keep the after-value" 30 (M.find d "test.obs.diffg");
    Alcotest.(check int) "absent names read zero" 0 (M.find d "no.such.metric"))

let test_span_nesting () =
  with_metrics (fun () ->
    Span.reset ();
    let r =
      Span.with_ "outer" (fun () ->
        Span.with_ "inner" (fun () -> 1 + 1)
        + Span.with_ "inner" (fun () -> 2))
    in
    Alcotest.(check int) "spans are transparent" 4 r;
    let report = Span.report () in
    let entry path =
      match List.find_opt (fun (e : Span.entry) -> e.path = path) report with
      | Some e -> e
      | None -> Alcotest.failf "missing span path %s" path
    in
    Alcotest.(check int) "outer completes once" 1 (entry "outer").count;
    Alcotest.(check int) "inner nests under outer, twice" 2 (entry "outer/inner").count;
    Alcotest.(check bool) "durations are non-negative" true
      (List.for_all (fun (e : Span.entry) -> e.seconds >= 0.0) report))

let test_domain_local_merge_absorb () =
  with_metrics (fun () ->
    let c = M.counter "test.obs.domc" in
    let g = M.gauge "test.obs.domg" in
    M.incr c;
    M.observe g 5;
    let worker =
      Domain.spawn (fun () ->
        M.add c 10;
        M.observe g 40;
        M.snapshot ())
      |> Domain.join
    in
    (* registries are domain-local: worker increments are invisible here *)
    Alcotest.(check int) "worker work does not leak across domains" 1 (M.value c);
    Alcotest.(check int) "worker snapshot sees only its own work" 10
      (M.find worker "test.obs.domc");
    let merged = M.merge [ M.snapshot (); worker ] in
    Alcotest.(check int) "merge sums counters" 11 (M.find merged "test.obs.domc");
    Alcotest.(check int) "merge maxes gauges" 40 (M.find merged "test.obs.domg");
    M.absorb worker;
    Alcotest.(check int) "absorb folds counters into this domain" 11 (M.value c);
    Alcotest.(check int) "absorb maxes gauges" 40 (M.peak g))

let test_span_absorb () =
  with_metrics (fun () ->
    Span.reset ();
    Span.with_ "absorbed" (fun () -> ());
    let worker =
      Domain.spawn (fun () ->
        Span.with_ "absorbed" (fun () -> ());
        Span.with_ "absorbed" (fun () -> ());
        Span.report ())
      |> Domain.join
    in
    let (), reading =
      Obs.Scope.run (fun () ->
        Span.absorb worker;
        Span.with_ "later" (fun () -> ()))
    in
    (match List.find_opt (fun (e : Span.entry) -> e.path = "absorbed") (Span.report ()) with
     | Some e ->
       Alcotest.(check int) "absorbed counts accumulate" 3 e.count;
       Alcotest.(check bool) "absorbed durations accumulate" true (e.seconds >= 0.0)
     | None -> Alcotest.fail "absorbed span path missing");
    let counts entries = List.map (fun (e : Span.entry) -> (e.path, e.count)) entries in
    Alcotest.(check (list (pair string int))) "a scope reads only what was recorded in it"
      [ ("absorbed", 2); ("later", 1) ]
      (counts reading.Obs.Scope.spans))

(* A scope reads exactly its own work: fresh counters and a fresh peak,
   spans nested under the one already open.  On every exit path it
   reinstalls the enclosing registries and folds its reading into them;
   with collection off it only runs its thunk. *)
let test_scope () =
  with_metrics (fun () ->
    let c = M.counter "test.obs.scopec" and g = M.gauge "test.obs.scopeg" in
    M.add c 5;
    M.observe g 50;
    let v, r =
      Span.with_ "outer" (fun () ->
        Obs.Scope.run (fun () ->
          M.add c 2;
          M.observe g 7;
          Span.with_ "inner" (fun () -> 42)))
    in
    Alcotest.(check int) "the thunk's value" 42 v;
    Alcotest.(check int) "counters read the scope's increments" 2
      (M.find r.Obs.Scope.metrics "test.obs.scopec");
    Alcotest.(check int) "gauges read the scope's own peak" 7
      (M.find r.Obs.Scope.metrics "test.obs.scopeg");
    Alcotest.(check (list string)) "spans nest under the open one" [ "outer/inner" ]
      (List.map (fun (e : Span.entry) -> e.path) r.Obs.Scope.spans);
    Alcotest.(check int) "counters fold into the enclosing registry" 7 (M.value c);
    Alcotest.(check int) "gauges fold by max" 50 (M.peak g);
    Alcotest.(check (list (pair string int))) "the enclosing spans hold both"
      [ ("outer", 1); ("outer/inner", 1) ]
      (List.map (fun (e : Span.entry) -> (e.path, e.count)) (Span.report ()));
    (match Obs.Scope.run (fun () -> M.incr c; failwith "expected") with
     | _ -> Alcotest.fail "the scope swallowed the exception"
     | exception Failure _ -> ());
    Alcotest.(check int) "a raising scope still folds" 8 (M.value c);
    M.incr c;
    Alcotest.(check int) "and reinstalls the enclosing slots" 9 (M.value c);
    M.set_enabled false;
    let v, r = Obs.Scope.run (fun () -> 1) in
    M.set_enabled true;
    Alcotest.(check bool) "off: the thunk runs, the reading is empty" true
      (v = 1 && r = Obs.Scope.empty))

let test_span_survives_exception () =
  with_metrics (fun () ->
    Span.reset ();
    (try Span.with_ "boom" (fun () -> failwith "expected") with Failure _ -> ());
    let report = Span.report () in
    Alcotest.(check int) "raising span still recorded" 1
      (List.length (List.filter (fun (e : Span.entry) -> e.path = "boom") report));
    (* the nesting stack was unwound: a new span is a root again *)
    Span.with_ "after" (fun () -> ());
    Alcotest.(check bool) "stack unwound after raise" true
      (List.exists (fun (e : Span.entry) -> e.path = "after") (Span.report ())))

let sample_json =
  Json.Obj
    [ ("schema", Json.String "qcec-stats/v1")
    ; ("ok", Json.Bool true)
    ; ("nothing", Json.Null)
    ; ("count", Json.Int 42)
    ; ("negative", Json.Int (-7))
    ; ("t", Json.Float 0.0025112719)
    ; ("big", Json.Float 1.5e300)
    ; ("weird \"name\"\n", Json.String "tab\there \\ slash / unicode \xe2\x9c\x93")
    ; ("empty_list", Json.List [])
    ; ("empty_obj", Json.Obj [])
    ; ( "rows"
      , Json.List
          [ Json.Obj [ ("n", Json.Int 8); ("t_ver", Json.Float 0.001) ]
          ; Json.Obj [ ("n", Json.Int 9); ("t_ver", Json.Null) ]
          ] )
    ]

let test_json_roundtrip () =
  List.iter
    (fun pretty ->
      let s = Json.to_string ~pretty sample_json in
      let parsed = Json.of_string s in
      Alcotest.(check bool)
        (Fmt.str "round trip (pretty=%b)" pretty)
        true
        (Json.equal sample_json parsed))
    [ false; true ]

let test_json_parser_strictness () =
  let rejects s =
    Alcotest.(check bool) (Fmt.str "rejects %S" s) true (Json.of_string_opt s = None)
  in
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects "{\"a\":1,}";
  rejects "nul";
  rejects "1 2";
  rejects "\"unterminated";
  rejects "{\"a\" 1}";
  let accepts s expected =
    match Json.of_string_opt s with
    | Some v -> Alcotest.(check bool) (Fmt.str "parses %S" s) true (Json.equal expected v)
    | None -> Alcotest.failf "failed to parse %S" s
  in
  accepts "  [1, -2.5e3, \"x\", null, true] "
    (Json.List
       [ Json.Int 1; Json.Float (-2500.0); Json.String "x"; Json.Null; Json.Bool true ]);
  accepts "\"a\\u00e9\\u2713b\"" (Json.String "a\xc3\xa9\xe2\x9c\x93b")

let test_json_non_finite_floats () =
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_metrics_to_json () =
  with_metrics (fun () ->
    let c = M.counter "test.obs.jsonc" in
    M.add c 7;
    let j = M.to_json (M.snapshot ()) in
    (* serialize and re-parse: the snapshot object must survive *)
    let parsed = Json.of_string (Json.to_string j) in
    match Json.member "test.obs.jsonc" parsed with
    | Some (Json.Int 7) -> ()
    | _ -> Alcotest.fail "snapshot JSON lost a counter")

let test_clock_monotonic () =
  let a = Obs.Clock.now () in
  let b = Obs.Clock.now () in
  Alcotest.(check bool) "clock never goes backwards" true (b >= a);
  Alcotest.(check bool) "elapsed is non-negative" true
    (Obs.Clock.elapsed_s ~since:(Obs.Clock.now_ns ()) >= 0.0)

let test_verify_reports_metrics () =
  (* end-to-end: a functional check read in a scope with collection on
     yields nonzero DD counters, and an empty reading with it off *)
  let pair = Algorithms.Qft.make 4 in
  let check () =
    Qcec.Verify.functional ~perm:pair.Algorithms.Pair.dyn_to_static
      pair.Algorithms.Pair.static_circuit pair.Algorithms.Pair.dynamic_circuit
  in
  let _, off = Obs.Scope.run check in
  Alcotest.(check bool) "no reading when disabled" true (off = Obs.Scope.empty);
  with_metrics (fun () ->
    let on, reading = Obs.Scope.run check in
    let m = reading.Obs.Scope.metrics in
    Alcotest.(check bool) "equivalent" true on.Qcec.Verify.equivalent;
    Alcotest.(check bool) "unique-table inserts recorded" true
      (M.find m "dd.unique.mat.inserts" > 0);
    Alcotest.(check bool) "kernel cache observed" true
      (M.find m "dd.kernel.hits" + M.find m "dd.kernel.misses" > 0);
    (* the generic gate-DD product still reports through the mm cache *)
    let (), generic =
      Obs.Scope.run (fun () ->
        let p = Dd.Pkg.create () in
        let h = Circuit.Gates.matrix Circuit.Gates.H in
        let x = Circuit.Gates.matrix Circuit.Gates.X in
        let hd = Dd.Pkg.gate p ~n:3 ~controls:[] ~target:0 h in
        let cx = Dd.Pkg.gate p ~n:3 ~controls:[ (0, true) ] ~target:2 x in
        ignore (Dd.Mat.mul p cx hd))
    in
    let generic = generic.Obs.Scope.metrics in
    Alcotest.(check bool) "mm cache observed" true
      (M.find generic "dd.cache.mm.hits" + M.find generic "dd.cache.mm.misses" > 0);
    Alcotest.(check bool) "timings non-negative" true
      (on.Qcec.Verify.t_transform >= 0.0 && on.Qcec.Verify.t_check >= 0.0))

let suite =
  [ Alcotest.test_case "counters off by default" `Quick test_counter_disabled
  ; Alcotest.test_case "counter increment and reset" `Quick
      test_counter_increment_and_reset
  ; Alcotest.test_case "gauge records peak" `Quick test_gauge_peak
  ; Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff
  ; Alcotest.test_case "domain-local registries, merge, absorb" `Quick
      test_domain_local_merge_absorb
  ; Alcotest.test_case "span absorb across domains" `Quick test_span_absorb
  ; Alcotest.test_case "spans nest" `Quick test_span_nesting
  ; Alcotest.test_case "span survives exception" `Quick test_span_survives_exception
  ; Alcotest.test_case "json round trip" `Quick test_json_roundtrip
  ; Alcotest.test_case "json parser strictness" `Quick test_json_parser_strictness
  ; Alcotest.test_case "json non-finite floats" `Quick test_json_non_finite_floats
  ; Alcotest.test_case "metrics snapshot to json" `Quick test_metrics_to_json
  ; Alcotest.test_case "clock is monotonic" `Quick test_clock_monotonic
  ; Alcotest.test_case "verify reports metrics" `Quick test_verify_reports_metrics
  ; Alcotest.test_case "a scope reads its own work" `Quick test_scope
  ]
