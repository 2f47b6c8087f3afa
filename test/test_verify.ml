(* End-to-end verification tests: both schemes on the paper's three
   benchmark families, every strategy, and negative cases (the checker must
   catch genuinely inequivalent circuits). *)

module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates
module Pair = Algorithms.Pair

let check_pair ?strategy (pair : Pair.t) =
  Qcec.Verify.functional ?strategy ~perm:pair.Pair.dyn_to_static
    pair.Pair.static_circuit pair.Pair.dynamic_circuit

let test_bv_functional () =
  List.iter
    (fun n ->
      let pair = Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:11 n) in
      let r = check_pair pair in
      Alcotest.(check bool) (Fmt.str "BV %d equivalent" n) true r.Qcec.Verify.equivalent;
      Alcotest.(check int)
        (Fmt.str "BV %d transformed qubits" n)
        (n + 1) r.Qcec.Verify.transformed_qubits)
    [ 1; 2; 5; 9 ]

let test_qft_functional () =
  List.iter
    (fun n ->
      let r = check_pair (Algorithms.Qft.make n) in
      Alcotest.(check bool) (Fmt.str "QFT %d equivalent" n) true r.Qcec.Verify.equivalent)
    [ 1; 2; 4; 7 ]

let test_qpe_functional () =
  List.iter
    (fun m ->
      let theta = Algorithms.Qpe.random_theta ~seed:23 ~bits:m in
      let r = check_pair (Algorithms.Qpe.make ~theta ~bits:m) in
      Alcotest.(check bool) (Fmt.str "QPE %d equivalent" m) true r.Qcec.Verify.equivalent;
      let r = check_pair (Algorithms.Qpe.make_textbook ~theta ~bits:m) in
      Alcotest.(check bool)
        (Fmt.str "textbook QPE %d equivalent" m)
        true r.Qcec.Verify.equivalent)
    [ 2; 4; 6 ]

let test_strategies_agree () =
  let pair = Algorithms.Qpe.paper_example () in
  List.iter
    (fun strategy ->
      let r = check_pair ~strategy pair in
      Alcotest.(check bool)
        (Fmt.str "%s finds equivalence" (Qcec.Strategy.name strategy))
        true r.Qcec.Verify.equivalent)
    [ Qcec.Strategy.Construction; Qcec.Strategy.Proportional; Qcec.Strategy.Simulation 8 ]

let mutate_one_gate (c : Circ.t) =
  (* flip the angle of the first parameterized gate — a subtle bug *)
  let changed = ref false in
  let ops =
    List.map
      (fun op ->
        match (op : Op.t) with
        | Apply { gate = Gates.P lam; controls; target } when not !changed ->
          changed := true;
          Op.Apply { gate = Gates.P (lam +. 0.1); controls; target }
        | _ -> op)
      c.Circ.ops
  in
  assert !changed;
  { c with Circ.ops }

let test_negative_functional () =
  let pair = Algorithms.Qpe.paper_example () in
  let broken = mutate_one_gate pair.Pair.dynamic_circuit in
  List.iter
    (fun strategy ->
      let r =
        Qcec.Verify.functional ~strategy ~perm:pair.Pair.dyn_to_static
          pair.Pair.static_circuit broken
      in
      Alcotest.(check bool)
        (Fmt.str "%s catches mutation" (Qcec.Strategy.name strategy))
        false r.Qcec.Verify.equivalent)
    [ Qcec.Strategy.Construction; Qcec.Strategy.Proportional; Qcec.Strategy.Simulation 8 ]

let test_negative_distribution () =
  let pair = Algorithms.Qpe.paper_example () in
  let broken = mutate_one_gate pair.Pair.dynamic_circuit in
  let r = Qcec.Verify.distribution broken pair.Pair.static_circuit in
  Alcotest.(check bool) "distribution check catches mutation" false
    r.Qcec.Verify.distributions_equal

let test_distribution_families () =
  List.iter
    (fun (name, (pair : Pair.t)) ->
      let r =
        Qcec.Verify.distribution pair.Pair.dynamic_circuit pair.Pair.static_circuit
      in
      Alcotest.(check bool) (name ^ " distributions equal") true
        r.Qcec.Verify.distributions_equal)
    [ ("BV", Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:2 7))
    ; ("QFT", Algorithms.Qft.make 6)
    ; ("QPE", Algorithms.Qpe.make ~theta:(Algorithms.Qpe.random_theta ~seed:3 ~bits:6) ~bits:6)
    ]

let test_global_phase_freedom () =
  (* two circuits equal only up to a global phase: RZ(pi) vs P(pi)=Z *)
  let a = Circ.make ~name:"a" ~qubits:1 ~cbits:0 [ Op.apply (Gates.RZ Float.pi) 0 ] in
  let b = Circ.make ~name:"b" ~qubits:1 ~cbits:0 [ Op.apply Gates.Z 0 ] in
  let r = Qcec.Verify.functional ~strategy:Qcec.Strategy.Construction a b in
  Alcotest.(check bool) "equivalent up to phase" true r.Qcec.Verify.equivalent;
  Alcotest.(check bool) "not exactly equal" false r.Qcec.Verify.exactly_equal

let test_qubit_count_mismatch () =
  (* differing widths are padded with idle wires: GHZ-2 is then compared
     against GHZ-3 on three qubits and correctly found inequivalent *)
  let a = Algorithms.Ghz.static 2 and b = Algorithms.Ghz.static 3 in
  let r = Qcec.Verify.functional a b in
  Alcotest.(check bool) "padded comparison says no" false r.Qcec.Verify.equivalent;
  (* but a circuit really ignoring its extra wire is equivalent *)
  let wide =
    Circ.make ~name:"wide" ~qubits:3 ~cbits:2 (Algorithms.Ghz.static 2).Circ.ops
  in
  let r = Qcec.Verify.functional wide (Algorithms.Ghz.static 2) in
  Alcotest.(check bool) "idle wire accepted" true r.Qcec.Verify.equivalent

let test_distribution_helpers () =
  let d1 = [ ("00", 0.5); ("11", 0.5) ] in
  let d2 = [ ("00", 0.25); ("01", 0.25); ("10", 0.25); ("11", 0.25) ] in
  Util.check_float "TVD" 0.5 (Qcec.Distribution.total_variation d1 d2);
  Util.check_float "TVD self" 0.0 (Qcec.Distribution.total_variation d1 d1);
  Util.check_float "fidelity self" 1.0 (Qcec.Distribution.fidelity d1 d1);
  Util.check_float "fidelity" (Float.sqrt 0.125 *. 2.0) (Qcec.Distribution.fidelity d1 d2);
  let marg = Qcec.Distribution.marginalize d2 ~bits:[ 1 ] in
  Util.check_distributions "marginal" [ ("0", 0.5); ("1", 0.5) ] marg;
  (match Qcec.Distribution.most_probable ~count:1 d1 with
   | [ (_, p) ] -> Util.check_float "top-1" 0.5 p
   | _ -> Alcotest.fail "most_probable size")

let exact_strategies =
  [ Qcec.Strategy.Construction
  ; Qcec.Strategy.Sequential
  ; Qcec.Strategy.Proportional
  ; Qcec.Strategy.Lookahead
  ]

(* the measurement-free static BV circuit on 64 qubits *)
let bv_64 () =
  let g = Circ.strip_measurements (Algorithms.Bv.static (Algorithms.Bv.hidden_string ~seed:5 63)) in
  Alcotest.(check int) "64 qubits" 64 g.Circ.num_qubits;
  g

let with_ops (g : Circ.t) name ops =
  Circ.make ~name ~qubits:g.Circ.num_qubits ~cbits:g.Circ.num_cbits (ops @ g.Circ.ops)

(* Wide trace checks: a 2^n that wraps in a 63-bit int (n >= 62) must not
   turn a fidelity of 1/sqrt 2 into one above the threshold. *)
let test_fidelity_64_qubits () =
  let g = bv_64 () in
  let r = Qcec.Verify.approximate ~threshold:0.99 g (with_ops g "bv+s" [ Op.apply Gates.S 0 ]) in
  Util.check_float "fidelity 1/sqrt 2" Cxnum.Cx.sqrt2_inv r.Qcec.Verify.process_fidelity;
  Alcotest.(check bool) "not within 0.99" false r.Qcec.Verify.within

(* A Z with 24 controls flips the sign of 2^39 of the 2^64 diagonal
   entries, so Tr M = 2^64 - 2^40 passes any relative trace test with a
   tolerance above 6e-8.  Every exact strategy must refute it. *)
let test_controlled_z_64_qubits_refuted () =
  let g = bv_64 () in
  let controls = List.init 24 (fun i -> { Op.cq = i + 1; pos = true }) in
  let g' = with_ops g "bv+c24z" [ Op.apply ~controls Gates.Z 0 ] in
  List.iter
    (fun strategy ->
      let r = Qcec.Verify.functional ~strategy g g' in
      let name = Qcec.Strategy.name strategy in
      Alcotest.(check bool) (name ^ " refutes up to phase") false r.Qcec.Verify.equivalent;
      Alcotest.(check bool) (name ^ " refutes exactly") false r.Qcec.Verify.exactly_equal)
    exact_strategies

(* A phase P(delta) on one wire leaves |Tr M| = dim |cos(delta/2)|, which
   an up-to-phase trace test with a first-order threshold accepts for
   delta up to about 9e-4.  Every exact strategy must refute delta = 1e-6. *)
let test_small_phase_refuted () =
  let pair = Algorithms.Qft.make 6 in
  let g = pair.Pair.static_circuit in
  let nudged = with_ops g "qft+p" [ Op.apply (Gates.P 1e-6) 3 ] in
  List.iter
    (fun strategy ->
      let check g =
        (Qcec.Verify.functional ~strategy ~perm:pair.Pair.dyn_to_static g
           pair.Pair.dynamic_circuit)
          .Qcec.Verify.equivalent
      in
      let name = Qcec.Strategy.name strategy in
      Alcotest.(check bool) (name ^ " accepts QFT-6") true (check g);
      Alcotest.(check bool) (name ^ " refutes P(1e-6) on wire 3") false (check nudged))
    exact_strategies

(* The dynamic side transformed (Section 4) and aligned with the static
   one, ready for [Strategy.check] on an explicit package. *)
let unitary_pair (pair : Pair.t) =
  ( pair.Pair.static_circuit
  , Pair.align_transformed pair (Transform.Dynamic.transform pair.Pair.dynamic_circuit) )

(* By default a package sweeps at checkpoints once its unique tables
   outgrow twice their live set, so the alternating check holds a few
   hundred nodes where a package that never sweeps keeps every node it
   built (about 17,000 on BV-64).  The expected verdicts are those of a
   run without sweeps. *)
let test_default_gc_bounds_tables () =
  let qft, qft' = unitary_pair (Algorithms.Qft.make 40) in
  let cases =
    [ ( "BV-64"
      , unitary_pair (Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:5 63))
      , (true, true) )
    ; ("QFT-40 S-mutant", (with_ops qft "qft+s" [ Op.apply Gates.S 0 ], qft'), (false, false))
    ]
  in
  let check (name, (g, g'), expected) =
    let p = Dd.Pkg.create () in
    let most = ref 0 in
    let before = Obs.Metrics.snapshot () in
    Dd.Pkg.set_safepoint_hook (Some (fun p -> most := max !most (Dd.Pkg.live_nodes p)));
    let o =
      Fun.protect
        ~finally:(fun () -> Dd.Pkg.set_safepoint_hook None)
        (fun () -> Qcec.Strategy.check p Qcec.Strategy.Proportional g g')
    in
    let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
    let most = max !most (Dd.Pkg.live_nodes p) in
    let label = name ^ ": " in
    Alcotest.(check bool) (label ^ "swept") true (Obs.Metrics.find d "dd.gc.runs" > 0);
    let bound = 2 * (Dd.Pkg.gc_floor + o.Qcec.Strategy.peak_nodes) in
    Alcotest.(check bool)
      (Fmt.str "%s%d nodes at a safepoint <= %d" label most bound)
      true (most <= bound);
    Alcotest.(check (pair bool bool)) (label ^ "verdict") expected
      (o.Qcec.Strategy.equivalent, o.Qcec.Strategy.equivalent_up_to_phase)
  in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () -> List.iter check cases)

(* Compacting at every checkpoint: a strategy that holds an edge unrooted
   across a checkpoint sees it lose canonicity there, which shows as a
   changed verdict. *)
let prop_compacting_strategies =
  QCheck.Test.make ~name:"same verdicts when every checkpoint compacts (all strategies)"
    ~count:20
    QCheck.(int_range 0 100000)
    (fun seed ->
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits:3 ~gates:14 in
      let c' = with_ops c "ry+c" [ Op.apply (Gates.RY 0.17) 0 ] in
      let strategies =
        Qcec.Strategy.Random_stimuli { kind = Qcec.Strategy.Entangled; shots = 4 }
        :: exact_strategies
      in
      List.for_all
        (fun strategy ->
          List.for_all
            (fun (g, g') ->
              let verdict () =
                let o = Qcec.Strategy.check ~seed (Dd.Pkg.create ()) strategy g g' in
                (o.Qcec.Strategy.equivalent, o.Qcec.Strategy.equivalent_up_to_phase)
              in
              verdict () = Util.compacting verdict)
            [ (c, c); (c, c') ])
        strategies)

(* property: random unitary circuit is equivalent to itself composed with
   identity-preserving rewrites, and inequivalent to a mutated version *)
let prop_self_equivalence =
  QCheck.Test.make ~name:"random circuit equivalent to itself (all strategies)"
    ~count:25
    QCheck.(int_range 0 100000)
    (fun seed ->
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits:4 ~gates:20 in
      List.for_all
        (fun strategy -> (Qcec.Verify.functional ~strategy c c).Qcec.Verify.equivalent)
        [ Qcec.Strategy.Construction; Qcec.Strategy.Proportional; Qcec.Strategy.Simulation 3 ])

let prop_transform_then_check_random_dynamic =
  QCheck.Test.make ~name:"random dynamic circuit equivalent to its own transform"
    ~count:25
    QCheck.(int_range 0 100000)
    (fun seed ->
      let dyn = Algorithms.Random_circuit.dynamic ~seed ~qubits:3 ~cbits:2 ~ops:10 in
      let static = Transform.Dynamic.transform dyn in
      (* the functional flow transforms [dyn] internally; compare to the
         pre-transformed version *)
      (Qcec.Verify.functional static dyn).Qcec.Verify.equivalent)

let prop_measure_terminal_matches_dense =
  QCheck.Test.make
    ~name:"functional verdicts match dense unitaries on measure-terminal pairs"
    ~count:40
    QCheck.(pair (int_range 1 4) (int_range 0 100000))
    (fun (n, seed) ->
      let u = Algorithms.Random_circuit.unitary ~seed ~qubits:n ~gates:10 in
      let measured c =
        Circ.make ~name:(c.Circ.name ^ "+measure") ~qubits:n ~cbits:n
          (c.Circ.ops @ List.init n (fun q -> Op.Measure { qubit = q; cbit = q }))
      in
      let a = measured u in
      (* half of the pairs differ by an X, so [false] verdicts meet the
         oracle too *)
      let b =
        if seed mod 2 = 0 then a
        else measured (with_ops u "x+u" [ Op.apply Gates.X 0 ])
      in
      let r = Qcec.Verify.functional a b in
      let dense c = Qsim.Statevector.unitary_matrix (Circ.strip_measurements c) in
      let ua = dense a and ub = dense b in
      r.Qcec.Verify.equivalent = Util.matrices_equal_up_to_phase ua ub
      && r.Qcec.Verify.exactly_equal = Util.matrices_equal ua ub)

let prop_distribution_matches_dense =
  QCheck.Test.make
    ~name:"distribution verdicts match dense extraction on dynamic-vs-transformed pairs"
    ~count:30
    QCheck.(pair (int_range 2 4) (int_range 0 100000))
    (fun (n, seed) ->
      let dyn = Algorithms.Random_circuit.dynamic ~seed ~qubits:n ~cbits:2 ~ops:10 in
      let static = Transform.Dynamic.transform dyn in
      let static =
        if seed mod 2 = 0 then static
        else (* an X up front skews the outcome statistics *)
          with_ops static "x+static" [ Op.apply Gates.X 0 ]
      in
      let r = Qcec.Verify.distribution dyn static in
      let dense_dyn = Qsim.Statevector.extract_distribution dyn in
      let dense_static = Qsim.Statevector.extract_distribution static in
      let tv = Qcec.Distribution.total_variation in
      tv r.Qcec.Verify.dynamic_distribution dense_dyn <= 1e-9
      && tv r.Qcec.Verify.static_distribution dense_static <= 1e-9
      && r.Qcec.Verify.distributions_equal = (tv dense_dyn dense_static <= 1e-9))

(* Unsorted lists over eight 3-bit assignments, so keys repeat. *)
let arb_distribution =
  let bit i k = if (i lsr k) land 1 = 1 then '1' else '0' in
  let key = QCheck.Gen.(map (fun i -> String.init 3 (bit i)) (0 -- 7)) in
  QCheck.(list_of_size Gen.(0 -- 24) (pair (make ~print:Fun.id key) (float_range 0.0 1.0)))

let prop_total_variation_matches_reference =
  QCheck.Test.make ~name:"total_variation = hash-table reference; canonical is sorted"
    ~count:300
    QCheck.(pair arb_distribution arb_distribution)
    (fun (a, b) ->
      let canon = Qsim.Classical.canonical a in
      let rec strictly_sorted = function
        | (x, _) :: ((y, _) :: _ as rest) -> String.compare x y < 0 && strictly_sorted rest
        | _ -> true
      in
      Float.abs
        (Qcec.Distribution.total_variation a b -. Distribution_ref.total_variation a b)
      <= 1e-12
      && strictly_sorted canon
      && Float.abs (Qcec.Distribution.mass canon -. Qcec.Distribution.mass a) <= 1e-12)

let suite =
  [ Alcotest.test_case "BV functional" `Quick test_bv_functional
  ; Alcotest.test_case "QFT functional" `Quick test_qft_functional
  ; Alcotest.test_case "QPE functional (both variants)" `Quick test_qpe_functional
  ; Alcotest.test_case "strategies agree" `Quick test_strategies_agree
  ; Alcotest.test_case "mutations caught (functional)" `Quick test_negative_functional
  ; Alcotest.test_case "mutations caught (distribution)" `Quick
      test_negative_distribution
  ; Alcotest.test_case "distribution equivalence families" `Quick
      test_distribution_families
  ; Alcotest.test_case "global phase freedom" `Quick test_global_phase_freedom
  ; Alcotest.test_case "register width padding" `Quick test_qubit_count_mismatch
  ; Alcotest.test_case "distribution helpers" `Quick test_distribution_helpers
  ; Alcotest.test_case "process fidelity on 64 qubits" `Quick test_fidelity_64_qubits
  ; Alcotest.test_case "24-controlled Z on 64 qubits refuted" `Quick
      test_controlled_z_64_qubits_refuted
  ; Alcotest.test_case "small phase refuted by every exact strategy" `Quick
      test_small_phase_refuted
  ; Alcotest.test_case "default GC bounds the unique tables" `Quick
      test_default_gc_bounds_tables
  ; Util.qtest prop_total_variation_matches_reference
  ; Util.qtest prop_self_equivalence
  ; Util.qtest prop_transform_then_check_random_dynamic
  ; Util.qtest prop_measure_terminal_matches_dense
  ; Util.qtest prop_distribution_matches_dense
  ; Util.qtest prop_compacting_strategies
  ]
